"""The benchmark's child processes.

    python3 perfbench/worker.py prepare ROOT WORKLOAD SEED WORKDIR
    python3 perfbench/worker.py round ROOT WORKLOAD TRACE WORKDIR

TRACE is 0 (untraced), 1 (spans) or 2 (spans and tracemalloc).

`prepare` writes the workload's inputs from the seed and the expected
outputs from the reference code into WORKDIR/job.json.  It runs in its own
process because Linux carries a parent's peak RSS over into the
`ru_maxrss` of the children it starts, so the parent must stay small.

`round` runs one round in a fresh interpreter.  It times set-up (package
import and the workload's `MBonacciSystem`s), then the workload's commands
through `mbonacci.cli.main`, reads the peak RSS, and only then checks
every output against job.json.  It prints one JSON object on the last line
of standard output.
"""

import os

# a single BLAS/OpenMP thread; must be set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from workloads import WORKLOADS, write_inputs  # noqa: E402  (stdlib only at import)


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def prepare(workload: str, seed: int, workdir: str) -> None:
    job = {
        "outdir": workdir,
        "inputs": write_inputs(workload, seed, workdir),
        "expected": {c.span: c.expect(seed) for c in WORKLOADS[workload]},
    }
    with open(os.path.join(workdir, "job.json"), "w") as fh:
        json.dump(job, fh)


def run_round(root: str, workload: str, trace: int, workdir: str) -> dict:
    with open(os.path.join(workdir, "job.json")) as fh:
        job = json.load(fh)
    commands = WORKLOADS[workload]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import mbonacci.cli as cli
    # cli imports the layers inside its handlers; import them here so that
    # set-up, not the first command, pays for loading them
    from mbonacci import discrepancy, numeration, rauzy, rotation, spectral  # noqa: F401

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported mbonacci from {cli.__file__}, not from {src}")
    tracer = None
    if trace:
        import tracemalloc

        import spans

        if trace == 2:
            tracemalloc.start()
        tracer = spans.Tracer(memory=trace == 2)
        spans.instrument(tracer)
        setup = tracer.enter("bench.setup", "bench")
    for cmd in commands:
        for m, max_n in cmd.systems:
            numeration.make_system(m, max_n)
    if tracer:
        tracer.exit(setup)
    setup_s = time.perf_counter() - t0

    failed = 0
    written = {}
    w0, c0 = time.perf_counter(), _cpu()
    for cmd in commands:
        argv, paths = cmd.arguments(job["outdir"], job["inputs"])
        if tracer:
            rc = tracer.call(f"cli.{cmd.span}", "cli", cli.main, argv)
        else:
            rc = cli.main(argv)
        if rc == 0:
            written[cmd.span] = paths
        else:
            failed += 1
    wall_s, cpu_s = time.perf_counter() - w0, _cpu() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    output_bytes = 0
    for cmd in commands:
        if cmd.span not in written:
            continue
        outputs = {}
        for role, path in written[cmd.span].items():
            with open(path, "rb") as fh:
                outputs[role] = fh.read()
            output_bytes += len(outputs[role])
        problems += [f"{cmd.span}: {p}" for p in cmd.check(outputs, job["expected"][cmd.span])]

    result = {
        "attempted": len(commands),
        "failed": failed,
        "problems": problems,
        "metrics": {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
                    "peak_rss_mb": peak_rss_mb},
    }
    if tracer:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        layers = spans.layer_metrics(tracer.spans, names)
        if "cli.output_bytes" in layers:
            layers["cli.output_bytes"] = output_bytes
        result["layers"] = layers
    return result


if __name__ == "__main__":
    mode, root_dir, name, arg, work = sys.argv[1:6]
    if mode == "prepare":
        prepare(name, int(arg), work)
    else:
        print(json.dumps(run_round(root_dir, name, int(arg), work)))
