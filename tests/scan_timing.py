"""Time the scan layer of ``verify`` and the two layers of ``weights --dual`` in-process.

    python tests/scan_timing.py [ROOT ...] [--rounds N] [--pool P]

Each ROOT is a repository root, the one holding this script by default.
Each gets a fresh Python subprocess with ROOT/src first on ``sys.path``.
Every round times, over fixed seeded pools of full-rank matrices,
``verify_checks(m, trials=20, seed=s)`` on P 6 x 14 and P 7 x 16
matrices (s the matrix's index in its pool), and then, on P matrices of
the weights_dual shapes 14 x 34 to 16 x 36 in turn, the direct dual
enumeration ``weight_enumerator(dual_of(m))`` (``dual_enum``) and the
transform of the primal ``macwilliams(weight_enumerator(m), k)``
(``transform``), in each root in turn, so slow drift on the host falls
on every root alike.  It prints the best round's milliseconds per
matrix for each column and root.  It only measures: it sets no bound
and exits 0 whatever the figures.  Needs only the standard library.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

SHAPES = ((6, 14), (7, 16))  # the verify_sets workload's shapes
WEIGHTS_SHAPES = ((14, 34), (15, 34), (16, 34), (16, 35), (16, 36))  # weights_dual's
COLUMNS = [f"{k}x{n}" for k, n in SHAPES] + ["dual_enum", "transform"]

# One line on stdin runs one round; the worker answers with one line of
# seconds per column, or with the error that stopped it.
WORKER = r"""
import random, sys, time
sys.path.insert(0, sys.argv[1])
from gf2count import BitMatrix, dual_of, macwilliams, weight_enumerator
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

def pool(rng, shapes, size):
    matrices = []
    while len(matrices) < size:
        k, n = shapes[len(matrices) %% len(shapes)]
        rows = tuple(rng.getrandbits(n) for _ in range(k))
        if full_rank(rows):
            matrices.append(BitMatrix(k, n, rows))
    return matrices

size = %d
pools = [pool(random.Random(k * 100 + n), [(k, n)], size) for k, n in %r]
wide = pool(random.Random(34), %r, size)
for _ in sys.stdin:
    times = []
    for matrices in pools:
        start = time.perf_counter()
        for seed, m in enumerate(matrices):
            verify_checks(m, trials=20, seed=seed)
        times.append(time.perf_counter() - start)
    start = time.perf_counter()
    for m in wide:
        weight_enumerator(dual_of(m))
    times.append(time.perf_counter() - start)
    start = time.perf_counter()
    for m in wide:
        macwilliams(weight_enumerator(m), m.rows)
    times.append(time.perf_counter() - start)
    print(*times, flush=True)
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("roots", nargs="*", type=Path,
                        default=[Path(__file__).resolve().parent.parent])
    parser.add_argument("--rounds", type=int, default=7, help="rounds a root (default 7)")
    parser.add_argument("--pool", type=int, default=10, help="matrices a pool (default 10)")
    args = parser.parse_args()
    source = WORKER % (args.pool, SHAPES, WEIGHTS_SHAPES)
    workers = [subprocess.Popen([sys.executable, "-c", source, str(root / "src")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for root in args.roots]
    best: list[list[float] | None] = [[float("inf")] * len(COLUMNS) for _ in workers]
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
            if len(times) != len(COLUMNS):  # the worker failed; its stderr says why
                best[i] = None
                continue
            best[i] = [min(b, t) for b, t in zip(best[i], times)]
    for worker in workers:
        worker.stdin.close()
        worker.wait()
    print(f"ms per matrix, best of {args.rounds} rounds of {args.pool} matrices a pool")
    print("root", *COLUMNS, sep="\t")
    for root, times in zip(args.roots, best):
        print(root, *(["failed"] * len(COLUMNS) if times is None
                      else [f"{1e3 * t / args.pool:.3f}" for t in times]), sep="\t")


if __name__ == "__main__":
    main()
