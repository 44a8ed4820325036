"""Command-line interface.

Heavy submodules are imported inside the command handlers so the thread
cap can be applied to the numeric backends before they initialise.
Numeric output uses a fixed digit count, making runs with identical flags
byte-identical (reports that include wall-clock timing excepted).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

_THREAD_ENV = "MBONACCI_THREADS"
_CONFIG_KEYS = ("threads", "digits")


@dataclass
class RunConfig:
    command: str
    parameters: dict = field(default_factory=dict)
    output: str | None = None
    digits: int = 15


def _read_config(path: str) -> dict:
    values: dict = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key=value: {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in _CONFIG_KEYS:
                values[key] = _int_setting(f"config key {key}", val)
    return values


def _int_setting(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


def _apply_thread_cap(threads: int | None) -> None:
    if threads is None:
        return
    if threads < 1:
        raise ValueError("threads must be >= 1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _levels(text: str) -> list[int]:
    if "-" in text and "," not in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return _int_list(text)


@contextlib.contextmanager
def _output(cfg: RunConfig):
    """The stream a command writes to: stdout for no path or `-`, else the file."""
    if cfg.output in (None, "-"):
        yield sys.stdout
        return
    with open(cfg.output, "w") as fh:
        yield fh


def _emit(cfg: RunConfig, text: str) -> None:
    with _output(cfg) as stream:
        stream.write(text)


def _emit_json(cfg: RunConfig, payload: dict) -> None:
    _emit(cfg, json.dumps(payload, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_expand(cfg: RunConfig) -> int:
    from mbonacci import numeration

    m, n = cfg.parameters["m"], cfg.parameters["n"]
    sys_m = numeration.make_system(m, max(n, 1))
    e = numeration.encode(sys_m, n)
    msb = "".join(str(d) for d in reversed(e.digits)) or "0"
    terms = [str(sys_m.basis[j]) for j in range(len(e.digits) - 1, -1, -1) if e.digits[j]]
    lines = [f"m = {m}", f"n = {n}", f"digits (most significant first): {msb}"]
    lines.append(f"{n} = {' + '.join(terms)}" if terms else f"{n} = 0")
    _emit(cfg, "\n".join(lines) + "\n")
    return 0


def _cmd_seq(cfg: RunConfig) -> int:
    from mbonacci import numeration, rotation, textio

    count = cfg.parameters["count"]
    if cfg.parameters["variant"] == "vdc":
        sys_m = numeration.make_system(cfg.parameters["m"], count)
        header, cols = ["n", "value"], [rotation.vdc_values(sys_m, count)]
    else:
        ms = cfg.parameters["ms"]
        systems = tuple(numeration.make_system(m, count) for m in ms)
        pts = rotation.halton_points(rotation.HaltonConfig(systems=systems), count)
        header, cols = ["n"] + [f"v{i + 1}" for i in range(len(ms))], list(pts.T)
    with _output(cfg) as stream:
        textio.write_csv(stream, header, [range(count)], cols, cfg.digits)
    return 0


def _cmd_fractal(cfg: RunConfig) -> int:
    from mbonacci import rauzy

    cloud = rauzy.build_cloud(cfg.parameters["m"], cfg.parameters["depth"])
    ppm_path = cfg.parameters.get("ppm")
    if ppm_path:
        rauzy.export_cloud_ppm(cloud, ppm_path, size=cfg.parameters.get("size", 512))
    if cfg.output is not None or not ppm_path:
        with _output(cfg) as stream:
            rauzy.export_cloud_csv(cloud, stream, digits=cfg.digits)
    return 0


def _cmd_disc(cfg: RunConfig) -> int:
    from mbonacci import discrepancy, numeration, rotation

    variant = cfg.parameters["variant"]
    start = time.perf_counter()
    if variant == "1d":
        count = cfg.parameters["count"]
        sys_m = numeration.make_system(cfg.parameters["m"], count)
        value = discrepancy.star_disc_1d(rotation.vdc_values(sys_m, count))
        payload = {"method": "exact1d", "N": count, "s": 1, "value": value}
    elif variant == "multi":
        count = cfg.parameters["count"]
        ms = cfg.parameters["ms"]
        systems = tuple(numeration.make_system(m, count) for m in ms)
        pts = rotation.halton_points(rotation.HaltonConfig(systems=systems), count)
        report = discrepancy.star_disc_multi(pts)
        payload = {"method": report.method, "N": count, "s": len(ms), "value": report.value,
                   "exact": report.exact}
    elif variant == "fit":
        ms = cfg.parameters["ms"]
        lo, hi = cfg.parameters["min_exp"], cfg.parameters["max_exp"]
        if lo < 0:
            raise ValueError(f"--min-exp must be >= 0, got {lo}")
        systems = tuple(numeration.make_system(m, 2 ** hi) for m in ms)
        pts = rotation.halton_points(rotation.HaltonConfig(systems=systems), 2 ** hi)
        samples = []
        for e in range(lo, hi + 1):
            n = 2 ** e
            if len(ms) == 1:
                samples.append((n, discrepancy.star_disc_1d(pts[:n, 0])))
                continue
            report = discrepancy.star_disc_multi(pts[:n])
            if not report.exact:
                raise ValueError(
                    f"N = {n} gives only a {report.method}, not an exact value; "
                    f"lower --max-exp to fit exact discrepancies"
                )
            samples.append((n, report.value))
        exponent, _, r2 = discrepancy.decay_fit(samples)
        payload = {
            "method": "decay_fit",
            "N": samples[-1][0],
            "s": len(ms),
            "value": samples[-1][1],
            "exponent": exponent,
            "r2": r2,
            "exact": True,
        }
    else:  # file
        with open(cfg.parameters["input"]) as fh:
            pts = discrepancy.load_points_csv(fh)
        if pts.shape[1] == 1:
            value = discrepancy.star_disc_1d(pts[:, 0])
            method, exact = "exact1d", True
        else:
            report = discrepancy.star_disc_multi(pts)
            value, method, exact = report.value, report.method, report.exact
        payload = {"method": method, "N": len(pts), "s": pts.shape[1], "value": value,
                   "exact": exact}
    payload["wall_seconds"] = round(time.perf_counter() - start, 6)
    _emit_json(cfg, payload)
    return 0


def _cmd_dim(cfg: RunConfig) -> int:
    from mbonacci import discrepancy, rauzy

    start = time.perf_counter()
    cloud = rauzy.build_cloud(cfg.parameters["m"], cfg.parameters["depth"])
    est = discrepancy.box_dim_boundary(
        cloud, cfg.parameters["levels"], mode=cfg.parameters.get("mode", "both")
    )
    _emit_json(cfg, {
        "method": f"box_dim_boundary/{est.mode}",
        "N": cloud.size,
        "s": cloud.m - 1,
        "value": est.slope,
        "levels": list(est.levels),
        "counts": list(est.counts),
        "wall_seconds": round(time.perf_counter() - start, 6),
    })
    return 0


def _cmd_exponent(cfg: RunConfig) -> int:
    from mbonacci import discrepancy

    value = discrepancy.theorem_exponent(cfg.parameters["ms"], cfg.parameters["dims"])
    _emit_json(cfg, {
        "method": "theorem_exponent",
        "s": len(cfg.parameters["ms"]),
        "value": value,
    })
    return 0


def _cmd_local_disc(cfg: RunConfig) -> int:
    from mbonacci import numeration, rotation

    m, k, count = cfg.parameters["m"], cfg.parameters["k"], cfg.parameters["count"]
    sys_m = numeration.make_system(m, count + 1)
    delta = rotation.local_discrepancy(sys_m, k, count)
    _emit_json(cfg, {"k": k, "N": count, "delta": delta})
    return 0


def _report_checks(cfg: RunConfig, results) -> int:
    """One table row per check result and a tally; exit 1 on any FAIL."""
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  {r.seconds:7.2f}s  {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    _emit(cfg, "\n".join(lines) + "\n")
    return 1 if failed else 0


def _cmd_verify(cfg: RunConfig) -> int:
    from mbonacci import verify

    return _report_checks(cfg, verify.run_checks(full=cfg.parameters.get("full", False)))


# the registry's criteria for the paper's worked example: the reference
# exponent with the measured boundary dimensions, and the Halton decay
_EXAMPLE_CRITERIA = (10, 11)


def _cmd_reproduce(cfg: RunConfig) -> int:
    from mbonacci import verify

    full = not cfg.parameters.get("quick", False)
    return _report_checks(cfg, [verify.run_check(c, full) for c in verify.CHECKS
                                if c.number in _EXAMPLE_CRITERIA])


_HANDLERS = {
    "expand": _cmd_expand,
    "seq": _cmd_seq,
    "fractal": _cmd_fractal,
    "disc": _cmd_disc,
    "dim": _cmd_dim,
    "exponent": _cmd_exponent,
    "local-disc": _cmd_local_disc,
    "verify": _cmd_verify,
    "reproduce-example": _cmd_reproduce,
}


def run(cfg: RunConfig) -> int:
    """Dispatch a parsed configuration; nonzero exit with a diagnostic on error."""
    handler = _HANDLERS.get(cfg.command)
    if handler is None:
        print(f"error: unknown command {cfg.command!r}", file=sys.stderr)
        return 2
    try:
        return handler(cfg)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    # the global options also hang off every leaf command (SUPPRESS default,
    # so a late occurrence overrides an early one instead of erasing it)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                        help=f"cap numeric worker threads (default ${_THREAD_ENV} or config)")
    common.add_argument("--config", default=argparse.SUPPRESS, help="key=value config file")
    common.add_argument("-o", "--output", default=argparse.SUPPRESS,
                        help="output path (default stdout)")
    common.add_argument("--digits", type=int, default=argparse.SUPPRESS,
                        help="decimal places in CSV output")

    parser = argparse.ArgumentParser(
        prog="mbonacci",
        description="m-bonacci sequences, fractal geometry, and discrepancy measurement",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="greedy digit expansion of n", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("seq", help="emit sequence values as CSV")
    seq_sub = p.add_subparsers(dest="variant", required=True)
    q = seq_sub.add_parser("vdc", parents=[common])
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--count", type=int, required=True)
    q = seq_sub.add_parser("halton", parents=[common])
    q.add_argument("--ms", type=_int_list, required=True)
    q.add_argument("--count", type=int, required=True)

    p = sub.add_parser("fractal", help="export a fractal cloud (CSV and/or PPM)",
                       parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--ppm", default=None, help="write a PPM render to this path")
    p.add_argument("--size", type=int, default=512)

    p = sub.add_parser("disc", help="discrepancy measurements (JSON)")
    disc_sub = p.add_subparsers(dest="variant", required=True)
    q = disc_sub.add_parser("1d", parents=[common])
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--count", type=int, required=True)
    q = disc_sub.add_parser("multi", parents=[common])
    q.add_argument("--ms", type=_int_list, required=True)
    q.add_argument("--count", type=int, required=True)
    q = disc_sub.add_parser("fit", parents=[common])
    q.add_argument("--ms", type=_int_list, required=True)
    q.add_argument("--min-exp", type=int, default=8)
    q.add_argument("--max-exp", type=int, default=12)
    q = disc_sub.add_parser("file", parents=[common])
    q.add_argument("--input", required=True)

    p = sub.add_parser("dim", help="box-counting boundary dimension (JSON)",
                       parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--levels", type=_levels, default=[4, 5, 6, 7, 8, 9])
    p.add_argument("--mode", choices=("subtile", "outer", "both"), default="both")

    p = sub.add_parser("exponent", help="product-fractal decay exponent (JSON)",
                       parents=[common])
    p.add_argument("--ms", type=_int_list, required=True)
    p.add_argument("--dims", type=_float_list, required=True)

    p = sub.add_parser("local-disc", help="level-k local discrepancy (JSON)",
                       parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", type=int, required=True)

    p = sub.add_parser("verify", help="run the invariant check suite", parents=[common])
    g = p.add_mutually_exclusive_group()
    g.add_argument("--quick", action="store_true", default=True)
    g.add_argument("--full", action="store_true", default=False)

    p = sub.add_parser("reproduce-example",
                       help="criteria 10 and 11 of verify: reference exponent and measured decay",
                       parents=[common])
    p.add_argument("--quick", action="store_true", default=False)

    return parser


def _settings(args) -> tuple[int | None, int]:
    """Thread cap and digit count from the flags, the environment and the
    config file, in that order of precedence."""
    config_path = getattr(args, "config", None)
    config_values = _read_config(config_path) if config_path else {}
    env_threads = os.environ.get(_THREAD_ENV)
    threads = getattr(args, "threads", None)
    if threads is None and env_threads is not None:
        threads = _int_setting(_THREAD_ENV, env_threads)
    if threads is None:
        threads = config_values.get("threads")
    digits = getattr(args, "digits", None)
    if digits is None:
        digits = config_values.get("digits", 15)
    if digits < 1 or digits > 30:
        raise ValueError("--digits must be in 1..30")
    return threads, digits


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        threads, digits = _settings(args)
        _apply_thread_cap(threads)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    params = {
        key: value
        for key, value in vars(args).items()
        if key not in ("threads", "config", "output", "digits", "command")
    }
    cfg = RunConfig(
        command=args.command,
        parameters=params,
        output=getattr(args, "output", None),
        digits=digits,
    )
    return run(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
