"""Time ``counting.verify_checks`` in-process, the scan layer of ``verify``.

    python tests/scan_timing.py [ROOT ...] [--rounds N] [--pool P]

Each ROOT is a repository root, the one holding this script by default.
Each gets a fresh Python subprocess with ROOT/src first on ``sys.path``.
Every round times ``verify_checks(m, trials=20, seed=s)`` over a fixed
seeded pool of P full-rank 6 x 14 and P 7 x 16 matrices (s the matrix's
index in its pool) in each root in turn, so slow drift on the host
falls on every root alike.  It prints the best round's milliseconds per
matrix for each shape and root.  It only measures: it sets no bound and
exits 0 whatever the figures.  Needs only the standard library.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

SHAPES = ((6, 14), (7, 16))  # the verify_sets workload's shapes

# One line on stdin runs one round; the worker answers with one line of
# seconds per shape, or with the error that stopped it.
WORKER = r"""
import random, sys, time
sys.path.insert(0, sys.argv[1])
from gf2count import BitMatrix
from gf2count.counting import verify_checks

def full_rank(rows):
    lead = {}
    for row in rows:
        while row and row.bit_length() in lead:
            row ^= lead[row.bit_length()]
        if not row:
            return False
        lead[row.bit_length()] = row
    return True

pools = []
for k, n in %r:
    rng, pool = random.Random(k * 100 + n), []
    while len(pool) < %d:
        rows = tuple(rng.getrandbits(n) for _ in range(k))
        if full_rank(rows):
            pool.append(BitMatrix(k, n, rows))
    pools.append(pool)
for _ in sys.stdin:
    times = []
    for pool in pools:
        start = time.perf_counter()
        for seed, m in enumerate(pool):
            verify_checks(m, trials=20, seed=seed)
        times.append(time.perf_counter() - start)
    print(*times, flush=True)
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("roots", nargs="*", type=Path,
                        default=[Path(__file__).resolve().parent.parent])
    parser.add_argument("--rounds", type=int, default=7, help="rounds a root (default 7)")
    parser.add_argument("--pool", type=int, default=10, help="matrices a shape (default 10)")
    args = parser.parse_args()
    source = WORKER % (SHAPES, args.pool)
    workers = [subprocess.Popen([sys.executable, "-c", source, str(root / "src")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for root in args.roots]
    best: list[list[float] | None] = [[float("inf")] * len(SHAPES) for _ in workers]
    for _ in range(args.rounds):
        for i, worker in enumerate(workers):
            if best[i] is None:
                continue
            try:
                worker.stdin.write("\n")
                worker.stdin.flush()
                times = [float(t) for t in worker.stdout.readline().split()]
            except (OSError, ValueError):
                times = []
            if len(times) != len(SHAPES):  # the worker failed; its stderr says why
                best[i] = None
                continue
            best[i] = [min(b, t) for b, t in zip(best[i], times)]
    for worker in workers:
        worker.stdin.close()
        worker.wait()
    print(f"ms per matrix, best of {args.rounds} rounds of {args.pool} matrices a shape")
    print("root", *(f"{k}x{n}" for k, n in SHAPES), sep="\t")
    for root, times in zip(args.roots, best):
        print(root, *(["failed"] * len(SHAPES) if times is None
                      else [f"{1e3 * t / args.pool:.3f}" for t in times]), sep="\t")


if __name__ == "__main__":
    main()
