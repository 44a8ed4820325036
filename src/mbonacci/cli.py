"""Command-line interface.

Each command's handler reads the parsed `argparse.Namespace`.  Numeric
output uses a fixed digit count, making runs with identical flags
byte-identical (reports that include wall-clock timing excepted).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
import time
import types

from mbonacci import discrepancy, numeration, rauzy, rotation, textio


def _convert(convert, text: str):
    # argparse would name the converter function in its message, not the type
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None


def _int(text: str) -> int:
    return _convert(int, text)


def _digits(text: str) -> int:
    value = _int(text)
    if not 1 <= value <= 30:
        raise argparse.ArgumentTypeError(f"must be in 1..30, got {value}")
    return value


def _misplaced_digits(text: str):
    raise argparse.ArgumentTypeError("goes after the command: seq vdc, seq halton or fractal")


def _count(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    return [_int(part) for part in text.split(",") if part]


def _float_list(text: str) -> list[float]:
    return [_convert(float, part) for part in text.split(",") if part]


def _levels(text: str) -> list[int]:
    if "-" in text and "," not in text:
        lo, hi = (_int(end) for end in text.split("-", 1))
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return _int_list(text)


@contextlib.contextmanager
def _output(args):
    """The binary stream a command writes to: for no path or `-`, the byte
    layer under stdout, once the text already written to stdout is
    flushed into it; else the file, opened for bytes."""
    if args.output in (None, "-"):
        sys.stdout.flush()
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:  # a text stream with no byte layer, as under redirect_stdout
            buffer = types.SimpleNamespace(write=lambda data: sys.stdout.write(str(data, "utf-8")))
        yield buffer
        return
    with open(args.output, "wb") as fh:
        yield fh


def _emit(args, text: str) -> None:
    with _output(args) as stream:
        stream.write(text.encode("utf-8"))


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_expand(args) -> int:
    m, n = args.m, args.n
    sys_m = numeration.make_system(m, n)
    code = numeration.encode(sys_m, n)
    terms = [str(sys_m.basis[j]) for j in range(code.bit_length() - 1, -1, -1) if code >> j & 1]
    lines = [f"m = {m}", f"n = {n}", f"digits (most significant first): {code:b}"]
    lines.append(f"{n} = {' + '.join(terms)}" if terms else f"{n} = 0")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_seq(args) -> int:
    count = args.count
    if args.variant == "vdc":
        header, cols = ["n", "value"], [rotation.vdc_values(numeration.make_system(args.m), count)]
    else:
        systems = tuple(numeration.make_system(m) for m in args.ms)
        pts = rotation.halton_points(systems, count)
        header, cols = ["n"] + [f"v{i + 1}" for i in range(len(args.ms))], list(pts.T)
    with _output(args) as stream:
        textio.write_csv(stream, header, [range(count)], cols, args.digits)
    return 0


def _cmd_fractal(args) -> int:
    if args.ppm:
        rauzy.require_ppm(args.m, args.size)
    cloud = rauzy.build_cloud(args.m, args.depth)
    if args.ppm:
        rauzy.export_cloud_ppm(cloud, args.ppm, size=args.size)
    if args.output is not None or not args.ppm:
        with _output(args) as stream:
            rauzy.export_cloud_csv(cloud, stream, digits=args.digits)
    return 0


def _cmd_disc(args) -> int:
    start = time.perf_counter()
    fit = {}
    if args.variant == "1d":
        # read off the digit code of the count: no value is made
        report = rotation.star_discrepancy(numeration.make_system(args.m), args.count)
    elif args.variant == "multi":
        systems = tuple(numeration.make_system(m) for m in args.ms)
        report = discrepancy.star_disc(rotation.halton_points(systems, args.count))
    elif args.variant == "fit":
        lo, hi = args.min_exp, args.max_exp
        if lo < 0:
            raise ValueError(f"--min-exp must be >= 0, got {lo}")
        if hi < lo + 3:
            raise ValueError(f"--max-exp must be >= --min-exp + 3 for the fit's 4 samples, "
                             f"got --min-exp {lo} and --max-exp {hi}")
        # the count limit's own exponent, checked before 2 ** hi is formed
        limit = numeration.MAX_PRECISE_INDEX.bit_length() - 1
        if hi > limit:
            raise ValueError(f"--max-exp must be <= {limit}, the count limit 2^{limit}, "
                             f"got {hi}")
        systems = tuple(numeration.make_system(m) for m in args.ms)
        pts = rotation.halton_points(systems, 2 ** hi)
        samples = []
        for e in range(lo, hi + 1):
            report = discrepancy.star_disc(pts[:2 ** e])
            if not report.exact:
                raise ValueError(f"no exact value at N = {report.N} within the work budget of "
                                 f"{discrepancy.DEFAULT_MAX_EXACT_OPS}; lower --max-exp")
            samples.append((report.N, report.value))
        exponent, _, r2 = discrepancy.decay_fit(samples)
        fit = {"method": "decay_fit", "exponent": exponent, "r2": r2}
    else:  # file
        with open(args.input) as fh:
            report = discrepancy.star_disc(discrepancy.load_points_csv(fh))
    _emit_json(args, {**dataclasses.asdict(report), **fit,
                      "wall_seconds": round(time.perf_counter() - start, 6)})
    return 0


def _cmd_dim(args) -> int:
    start = time.perf_counter()
    discrepancy.require_levels(args.levels, args.m, args.depth + 1)
    cloud = rauzy.build_cloud(args.m, args.depth)
    est = discrepancy.box_dim_boundary(cloud, args.levels, mode=args.mode)
    _emit_json(args, {
        "method": f"box_dim_boundary/{est.mode}",
        "N": cloud.size,
        "s": cloud.m - 1,
        "value": est.slope,
        "levels": list(est.levels),
        "counts": list(est.counts),
        "wall_seconds": round(time.perf_counter() - start, 6),
    })
    return 0


def _cmd_exponent(args) -> int:
    value = discrepancy.theorem_exponent(args.ms, args.dims)
    _emit_json(args, {"method": "theorem_exponent", "s": len(args.ms), "value": value})
    return 0


def _cmd_local_disc(args) -> int:
    delta = rotation.local_discrepancy(numeration.make_system(args.m), args.k, args.count)
    _emit_json(args, {"k": args.k, "N": args.count, "delta": delta})
    return 0


def _report_checks(args, results) -> int:
    """One table row per check result and a tally; exit 1 on any FAIL."""
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  {r.seconds:7.2f}s  {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    _emit(args, "\n".join(lines) + "\n")
    return 1 if failed else 0


def _cmd_verify(args) -> int:
    from mbonacci import verify

    return _report_checks(args, verify.run_checks(full=args.full))


# the registry's criteria for the paper's worked example: the reference
# exponent with the measured boundary dimensions, and the Halton decay
_EXAMPLE_CRITERIA = (10, 11)


def _cmd_reproduce(args) -> int:
    from mbonacci import verify

    full = not args.quick
    return _report_checks(args, [verify.run_check(c, full) for c in verify.CHECKS
                                 if c.number in _EXAMPLE_CRITERIA])


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process, as a build costs milliseconds: parsing leaves
    # the parser as it was and every default is immutable, so no call sees
    # what an earlier one parsed.  The global option also hangs off every
    # leaf command (SUPPRESS default, so a late occurrence overrides an
    # early one instead of erasing it); its default lives in the namespace
    # `main` parses into
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--output", default=argparse.SUPPRESS,
                        help="output path (default stdout)")
    # --digits before the command is refused by name, not taken for a command
    early = argparse.ArgumentParser(add_help=False)
    early.add_argument("--digits", type=_misplaced_digits, default=argparse.SUPPRESS,
                       help=argparse.SUPPRESS)
    csv = argparse.ArgumentParser(add_help=False, parents=[common])
    csv.add_argument("--digits", type=_digits, default=15,
                     help="decimal places in CSV output, 1..30 (default 15)")

    parser = argparse.ArgumentParser(
        prog="mbonacci",
        description="m-bonacci sequences, fractal geometry, and discrepancy measurement",
        parents=[common, early],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="greedy digit expansion of n", parents=[common])
    p.set_defaults(handler=_cmd_expand)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("seq", help="emit sequence values as CSV", parents=[early])
    p.set_defaults(handler=_cmd_seq)
    seq_sub = p.add_subparsers(dest="variant", required=True)
    q = seq_sub.add_parser("vdc", parents=[csv])
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--count", type=_count, required=True)
    q = seq_sub.add_parser("halton", parents=[csv])
    q.add_argument("--ms", type=_int_list, required=True)
    q.add_argument("--count", type=_count, required=True)

    p = sub.add_parser("fractal", help="export a fractal cloud (CSV and/or PPM)",
                       parents=[csv])
    p.set_defaults(handler=_cmd_fractal)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--ppm", default=None, help="write a PPM render to this path")
    p.add_argument("--size", type=int, default=512)

    p = sub.add_parser("disc", help="discrepancy measurements (JSON)", parents=[early])
    p.set_defaults(handler=_cmd_disc)
    disc_sub = p.add_subparsers(dest="variant", required=True)
    q = disc_sub.add_parser("1d", parents=[common])
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--count", type=_count, required=True)
    q = disc_sub.add_parser("multi", parents=[common])
    q.add_argument("--ms", type=_int_list, required=True)
    q.add_argument("--count", type=_count, required=True)
    q = disc_sub.add_parser("fit", parents=[common])
    q.add_argument("--ms", type=_int_list, required=True)
    q.add_argument("--min-exp", type=int, default=8)
    q.add_argument("--max-exp", type=int, default=12)
    q = disc_sub.add_parser("file", parents=[common])
    q.add_argument("--input", required=True)

    p = sub.add_parser("dim", help="box-counting boundary dimension (JSON)",
                       parents=[common])
    p.set_defaults(handler=_cmd_dim)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--levels", type=_levels, default=(4, 5, 6, 7, 8, 9))
    p.add_argument("--mode", choices=("subtile", "outer", "both"), default="both")

    p = sub.add_parser("exponent", help="product-fractal decay exponent (JSON)",
                       parents=[common])
    p.set_defaults(handler=_cmd_exponent)
    p.add_argument("--ms", type=_int_list, required=True)
    p.add_argument("--dims", type=_float_list, required=True)

    p = sub.add_parser("local-disc", help="level-k local discrepancy (JSON)",
                       parents=[common])
    p.set_defaults(handler=_cmd_local_disc)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", type=_count, required=True)

    p = sub.add_parser("verify", help="run the invariant check suite", parents=[common])
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--full", action="store_true")

    p = sub.add_parser("reproduce-example",
                       help="criteria 10 and 11 of verify: reference exponent and measured decay",
                       parents=[common])
    p.set_defaults(handler=_cmd_reproduce)
    p.add_argument("--quick", action="store_true", default=False)

    return parser


def main(argv=None) -> int:
    """Parse `argv` and run its command; a failing command prints
    `error: ...` and exits 1, bad flags exit 2."""
    args = _build_parser().parse_args(argv, argparse.Namespace(output=None))
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
