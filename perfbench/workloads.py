"""The benchmark's workloads: which commands each runs, with which flags.

The commands are deterministic.  The seed chooses only the point set that
`disc file` reads and the rows the checks sample.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  `span` names it in the trace, `kind` picks its
    check, `outputs` maps output roles ("csv", "json", "ppm") to the flag
    that receives the file path."""

    span: str
    argv: tuple[str, ...]
    kind: str
    params: dict = field(default_factory=dict)
    outputs: tuple[tuple[str, str], ...] = (("json", "-o"),)
    systems: tuple[tuple[int, int], ...] = ()  # (m, max_n) pairs make_system builds

    def arguments(self, outdir: str, inputs: dict) -> tuple[list[str], dict]:
        argv = [inputs.get(a, a) for a in self.argv]
        paths = {}
        for role, flag in self.outputs:
            paths[role] = os.path.join(outdir, f"{self.span}.{role}")
            argv += [flag, paths[role]]
        return argv, paths

    # checks pulls in numpy and mpmath, which a worker must not load before
    # it starts timing the package import
    def expect(self, seed: int) -> dict:
        import checks

        return getattr(checks, f"expect_{self.kind}")(self.params, seed)

    def check(self, outputs: dict, expected: dict) -> list[str]:
        import checks

        return getattr(checks, f"check_{self.kind}")(outputs, self.params, expected)


FILE_POINTS = 200_000
DIM_LEVELS = [4, 5, 6, 7, 8, 9]

WORKLOADS: dict[str, tuple[Command, ...]] = {
    "emit_text": (
        Command("seq_vdc", ("seq", "vdc", "--m", "3", "--count", "200000"), "vdc_csv",
                {"m": 3, "count": 200_000}, (("csv", "-o"),), ((3, 200_000),)),
        Command("seq_halton", ("seq", "halton", "--ms", "2,3,5", "--count", "100000"),
                "halton_csv", {"ms": [2, 3, 5], "count": 100_000}, (("csv", "-o"),),
                ((2, 100_000), (3, 100_000), (5, 100_000))),
        Command("fractal", ("fractal", "--m", "3", "--depth", "100000"), "cloud",
                {"m": 3, "depth": 100_000}, (("csv", "-o"), ("ppm", "--ppm")),
                ((3, 100_000),)),
        Command("disc_file", ("disc", "file", "--input", "{points}"), "disc_file",
                {"points": FILE_POINTS}),
    ),
    "bulk_numeric": (
        Command("disc_1d", ("disc", "1d", "--m", "2", "--count", "2000000"), "disc_1d",
                {"m": 2, "count": 2_000_000}, systems=((2, 2_000_000),)),
        Command("local_disc", ("local-disc", "--m", "3", "--k", "8", "--count", "1000000"),
                "local_disc", {"m": 3, "k": 8, "count": 1_000_000},
                systems=((3, 1_000_001),)),
        Command("dim", ("dim", "--m", "3", "--depth", "1000000"), "dim",
                {"m": 3, "depth": 1_000_000, "levels": DIM_LEVELS},
                systems=((3, 1_000_000),)),
    ),
    "exact_disc": (
        Command("disc_multi_s2", ("disc", "multi", "--ms", "2,3", "--count", "8192"),
                "disc_multi", {"ms": [2, 3], "count": 8192},
                systems=((2, 8192), (3, 8192))),
        Command("disc_multi_s3", ("disc", "multi", "--ms", "2,3,5", "--count", "256"),
                "disc_multi", {"ms": [2, 3, 5], "count": 256},
                systems=((2, 256), (3, 256), (5, 256))),
        Command("disc_fit", ("disc", "fit", "--ms", "2,3", "--min-exp", "8", "--max-exp", "12"),
                "disc_fit", {"ms": [2, 3], "min_exp": 8, "max_exp": 12},
                systems=((2, 4096), (3, 4096))),
    ),
}


def file_points(count: int, seed: int) -> list[float]:
    """The seeded 1-D point set `disc file` reads."""
    rng = random.Random(seed)
    return [rng.random() for _ in range(count)]


def write_inputs(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's input files; returns the argv substitutions."""
    if workload != "emit_text":
        return {}
    path = os.path.join(directory, "points.csv")
    with open(path, "w") as fh:
        fh.write("x1\n")
        fh.writelines(f"{x!r}\n" for x in file_points(FILE_POINTS, seed))
    return {"{points}": path}
