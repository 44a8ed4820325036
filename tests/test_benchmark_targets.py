"""The benchmark's tracer wraps mbonacci functions by name
(`perfbench/spans.py`, `TARGETS`).  Each name must still resolve, or a
traced benchmark run fails."""

import importlib
import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_span_targets_resolve_to_callables(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for layer, name, _, _ in spans.TARGETS:
        module = importlib.import_module(f"mbonacci.{layer}")
        assert callable(getattr(module, name, None)), f"mbonacci.{layer}.{name}"
