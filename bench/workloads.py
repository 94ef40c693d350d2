"""Seeded inputs for the four benchmark workloads.

Each workload is a pool of CLI operations, generated from the workload
seed and replayed in order until the run's time is up.  Shapes are fixed
per pool slot and only the matrix bits (or the search seed) come from
the seed, so every seed gives the same mix of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from reference import naive_rank

# Each workload repeats a fixed pattern of shapes, with fresh seeded
# matrices (or search seeds) in every repeat.  A run stops only at the end
# of a pattern, so the mix of shapes, and with it each percentile, is the
# same in every run; the repeats average out how much the cost of one
# random matrix differs from another's.

# 3*10^4 .. 5*10^5 subsets, straddling the scan's 200 000-subset fork
# threshold; the distance condition never holds for random codes here,
# so the scan does the counting.  Three 8x19 slots hold the median, the
# 9x22 slot the 90th percentile.
COUNT_SHAPES = ((7, 18), (7, 19), (8, 19), (8, 19), (8, 19), (8, 21), (9, 22))
# Two 3x8 searches per 4x10 one: the median lands among the 3x8, where the
# per-candidate pipeline matters most, the 90th percentile among the 4x10.
SEARCH_SHAPES = ((3, 8), (3, 8), (4, 10))
SEARCH_SAMPLES = 500
# 22 collecting scans per operation (both sides plus 20 row-op trials).
# Three 6x14 per 7x16: the median falls among the 6x14, the 90th
# percentile among the 7x16.
VERIFY_SHAPES = ((6, 14), (6, 14), (6, 14), (7, 16))
VERIFY_TRIALS = 20
# Dual dimension 18..20: 2^18..2^20 dual words per operation.
WEIGHTS_SHAPES = ((14, 34), (15, 34), (16, 34), (16, 35), (16, 36))

# workload -> (shape pattern, distinct repeats); a 25 s run reaches about
# the end of the pool on count_scan and verify_sets.
PATTERNS = {
    "count_scan": (COUNT_SHAPES, 24),
    "search_small": (SEARCH_SHAPES, 16),
    "verify_sets": (VERIFY_SHAPES, 30),
    "weights_dual": (WEIGHTS_SHAPES, 8),
}
WORKLOADS = ("count_scan", "search_small", "verify_sets", "weights_dual")
# The seed whose answers expected.json holds.
DEFAULT_SEED = 1

# The [7, 4] Hamming generator for the cold-start launch: D = 7, I = 28.
SETUP_ROWS = ("1110100", "1011001", "1111111", "0110011")


@dataclass(frozen=True)
class Op:
    """One CLI call: a subcommand, a shape and its matrix or search seed."""

    command: str
    k: int
    n: int
    rows: tuple[str, ...] = ()
    seed: int = 0

    def argv(self, path: str, threads: int) -> list[str]:
        if self.command == "count":
            return ["count", path, "--format", "json", "--threads", str(threads)]
        if self.command == "weights":
            return ["weights", path, "--dual", "--format", "json"]
        if self.command == "verify":
            return ["verify", path, "--format", "json", "--trials",
                    str(VERIFY_TRIALS), "--seed", str(self.seed),
                    "--threads", str(threads)]
        return ["search", "--k", str(self.k), "--n", str(self.n),
                "--samples", str(SEARCH_SAMPLES), "--seed", str(self.seed),
                "--format", "json", "--threads", str(threads)]

    def text(self) -> str:
        return "".join(line + "\n" for line in self.rows)


def random_full_rank(k: int, n: int, rng: random.Random) -> tuple[str, ...]:
    while True:
        rows = [[rng.getrandbits(1) for _ in range(n)] for _ in range(k)]
        if naive_rank(rows) == k:
            return tuple("".join(map(str, row)) for row in rows)


def generate(workload: str, seed: int) -> list[Op]:
    """The operation pool of a workload; same seed, same pool."""
    if workload not in PATTERNS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    pattern, repeats = PATTERNS[workload]
    ops = []
    for k, n in pattern * repeats:
        if workload == "count_scan":
            ops.append(Op("count", k, n, random_full_rank(k, n, rng)))
        elif workload == "search_small":
            ops.append(Op("search", k, n, seed=rng.getrandbits(31)))
        elif workload == "verify_sets":
            ops.append(Op("verify", k, n, random_full_rank(k, n, rng), rng.getrandbits(31)))
        else:
            ops.append(Op("weights", k, n, random_full_rank(k, n, rng)))
    return ops


def write_inputs(ops: list[Op], directory: Path, stem: str) -> list[str]:
    """Write each operation's matrix file; returns the paths ("" for none)."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, op in enumerate(ops):
        if not op.rows:
            paths.append("")
            continue
        path = directory / f"{stem}-{i}.txt"
        path.write_text(op.text(), encoding="utf-8")
        paths.append(str(path))
    return paths
