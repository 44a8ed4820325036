"""Benchmark for mbonacci: run one workload and print its metrics.

    python3 perfbench/run.py --workload emit_text --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from its
`src/`).  The benchmark writes the workload's inputs from the seed,
computes the expected outputs from its own reference code, then runs
whole rounds of the workload, each in a fresh interpreter
(`perfbench/worker.py`), until `--seconds` have passed.  Every round's
outputs are checked.  The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}` with the medians over the
rounds of the end-to-end metrics (`--trace 0`) or of the per-layer metrics
of a traced run (`--trace 1`).  A traced run alternates rounds that time
spans with rounds that also run `tracemalloc`; `_peak_mb` metrics come
from the latter, every other per-layer metric from the former.  Metric
names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER_TIMEOUT_S = 150


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _worker(mode: str, workload: str, arg: int, workdir: str) -> str:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, ROOT, workload, str(arg),
           workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        _fail(f"{mode} of {workload} exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        _fail(f"{mode} of {workload} exited with code {proc.returncode}")
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mbonacci", "cli.py")):
        _fail(f"no mbonacci sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        _fail(f"unknown workload {args.workload!r}")

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        _worker("prepare", args.workload, args.seed, workdir)
        # trace modes of the rounds: 0 untraced; 1 spans, 2 spans and memory
        modes = [1, 2] if args.trace else [0]
        rounds = []
        start = time.perf_counter()
        while len(rounds) < len(modes) or time.perf_counter() - start < args.seconds:
            mode = modes[len(rounds) % len(modes)]
            out = _worker("round", args.workload, mode, workdir)
            rounds.append(dict(json.loads(out.strip().splitlines()[-1]), mode=mode))
            if not args.trace:
                print(f"round {len(rounds)}: " + " ".join(
                    f"{k}={v:.4f}" for k, v in rounds[-1]["metrics"].items()), file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it

    problems = [p for r in rounds for p in r["problems"]]
    per_command: dict[str, int] = {}
    for p in next((r["problems"] for r in rounds if r["problems"]), []):
        command = p.split(":", 1)[0]
        per_command[command] = per_command.get(command, 0) + 1
        if per_command[command] <= 5:
            print(f"check failed: {p}", file=sys.stderr)
    for command, count in per_command.items():
        print(f"check failed: {command}: {count} problems in the first failing round",
              file=sys.stderr)

    def median(name):
        if not args.trace:
            return statistics.median(r["metrics"][name] for r in rounds)
        mode = 2 if name.endswith("_peak_mb") else 1
        return statistics.median(r["layers"][name] for r in rounds if r["mode"] == mode)

    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": median(name), "unit": unit} for name, unit in units.items()},
    }
    print(f"perfbench: {args.workload}, {len(rounds)} rounds", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
