"""Spans around the calls into each layer of mbonacci, recorded from outside.

`instrument` rebinds each traced function in every loaded `mbonacci.*`
module that holds it, so calls made through a module attribute
(`rotation.vdc_values(...)` in `cli`) and through a name imported with
`from ... import` (`digit_matrix` inside `rotation`) both pass through
the wrapper.  Each span records its name, layer, parent, wall time and CPU
time.  With `memory=True` (`tracemalloc` running) it also records its peak
allocation above the level at entry, both including its child spans and
outside them ("self").  `tracemalloc` slows every allocation, so the
benchmark takes times from rounds without it and peaks from rounds with it.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from dataclasses import dataclass, field

MB = 1024.0 * 1024.0


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    start_mem: int
    t0: float
    c0: float
    wall: float = 0.0
    cpu: float = 0.0
    child_wall: float = 0.0
    peak: int = 0       # highest traced memory seen in the span and its children
    self_peak: int = 0  # highest traced memory seen outside child spans
    counts: dict = field(default_factory=dict)

    @property
    def self_wall(self) -> float:
        return self.wall - self.child_wall


class Tracer:
    """Nested spans kept in memory."""

    def __init__(self, memory: bool) -> None:
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _memory(self) -> tuple[int, int]:
        return tracemalloc.get_traced_memory() if self.memory else (0, 0)

    def enter(self, name: str, layer: str) -> Span:
        cur, peak = self._memory()
        if self._stack:
            # the peak since the last reset belongs to the parent's own code
            parent = self._stack[-1]
            parent.self_peak = max(parent.self_peak, peak)
            parent.peak = max(parent.peak, peak)
        if self.memory:
            tracemalloc.reset_peak()
        span = Span(id=len(self.spans), name=name, layer=layer,
                    parent=self._stack[-1].id if self._stack else None,
                    start_mem=cur, t0=time.perf_counter(), c0=time.process_time(),
                    peak=cur, self_peak=cur)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.wall = time.perf_counter() - span.t0
        span.cpu = time.process_time() - span.c0
        _, peak = self._memory()
        span.self_peak = max(span.self_peak, peak)
        span.peak = max(span.peak, peak)
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent.child_wall += span.wall
            parent.peak = max(parent.peak, span.peak)
        if self.memory:
            tracemalloc.reset_peak()

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        span = self.enter(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(span)


def _s_name(points, *args, **kwargs) -> str:
    s = len(points[0])
    return "discrepancy.star_disc_multi_s2" if s == 2 else "discrepancy.star_disc_multi_s3"


def _corners(result, points, *args, **kwargs) -> dict:
    """Corner candidates of the exact enumeration: the product over the axes
    of the distinct coordinates plus the two ends 0 and 1."""
    import numpy as np

    pts = np.asarray(points)
    total = 1
    for j in range(pts.shape[1]):
        total *= np.unique(np.concatenate((pts[:, j], [0.0, 1.0]))).size
    return {"discrepancy.corners": total}


# (module, function, span name or namer, counter)
TARGETS = (
    ("spectral", "dominant_root", None, None),
    ("spectral", "precise_multiples_minus", None, None),
    ("spectral", "reduce_array", None, None),
    ("numeration", "make_system", None, None),
    ("numeration", "digit_matrix", None,
     lambda r, *a, **k: {"numeration.digit_matrix_bytes": r.shape[0] * r.shape[1]}),
    ("rotation", "vdc_values", None, lambda r, *a, **k: {"rotation.values": r.size}),
    ("rotation", "halton_points", None, None),
    ("rotation", "membership_counts", None, None),
    ("rotation", "local_discrepancy", None, None),
    ("rauzy", "fixed_point_prefix", None, None),
    ("rauzy", "build_cloud", None, lambda r, *a, **k: {"rauzy.cloud_points": r.size}),
    ("rauzy", "export_cloud_csv", None, None),
    ("rauzy", "export_cloud_ppm", None, None),
    ("discrepancy", "load_points_csv", None, None),
    ("discrepancy", "star_disc_1d", None, None),
    ("discrepancy", "star_disc_multi", _s_name, _corners),
    ("discrepancy", "decay_fit", None, None),
    ("discrepancy", "box_dim_boundary", None, None),
)


def instrument(tracer: Tracer) -> None:
    """Route every traced function of the loaded mbonacci modules through spans."""
    modules = [mod for name, mod in list(sys.modules.items())
               if name == "mbonacci" or name.startswith("mbonacci.")]
    for layer, fname, namer, counter in TARGETS:
        original = getattr(sys.modules[f"mbonacci.{layer}"], fname)
        wrapped = _wrap(tracer, original, f"{layer}.{fname}", layer, namer, counter)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def _wrap(tracer, fn, name, layer, namer, counter):
    def wrapper(*args, **kwargs):
        span = tracer.enter(namer(*args, **kwargs) if namer else name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(span)
        if counter:
            span.counts = counter(result, *args, **kwargs)
        return result

    return wrapper


def layer_metrics(spans: list[Span], names: list[str]) -> dict:
    """The per-layer metrics of one round, keyed by the names in `names`.

    `<function>_s` sums the wall time of the spans of that name,
    `<layer>.self_s` sums the self time of the layer's spans, `_peak_mb` is
    the highest span peak (0 unless memory was traced), counts are summed.
    A metric whose spans did not run in this workload reads 0.
    """
    out = {name: 0.0 for name in names}

    def add(key, value):
        if key in out:
            out[key] += value

    for span in spans:
        add(f"{span.name}_s", span.wall)
        add(f"{span.layer}.self_s", span.self_wall)
        for key, value in span.counts.items():
            add(key, value)
        peak = f"{span.name}_peak_mb"
        if peak in out:
            out[peak] = max(out[peak], (span.peak - span.start_mem) / MB)
        if span.layer == "cli":
            add("cli.commands_s", span.wall)
            if "cli.self_peak_mb" in out:
                out["cli.self_peak_mb"] = max(out["cli.self_peak_mb"],
                                              (span.self_peak - span.start_mem) / MB)
    multi_s = out.get("discrepancy.star_disc_multi_s2_s", 0.0) + out.get(
        "discrepancy.star_disc_multi_s3_s", 0.0)
    if "discrepancy.corners_per_s" in out and multi_s > 0:
        out["discrepancy.corners_per_s"] = out.get("discrepancy.corners", 0) / multi_s
    return out
