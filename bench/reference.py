"""Slow list-based reference answers for the benchmark's correctness gate.

Nothing here imports gf2count: matrices are lists of 0/1 rows, rank is
textbook elimination on those lists, and the dual is found by solving
for the null space.  Agreement with the package is therefore evidence,
not a tautology.
"""

from __future__ import annotations

import random
from math import comb

Rows = list[list[int]]


def naive_rank(rows: Rows) -> int:
    """Rank over GF(2) by Gaussian elimination on nested lists."""
    work = [row[:] for row in rows]
    if not work:
        return 0
    r = 0
    for col in range(len(work[0])):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and work[i][col]:
                work[i] = [a ^ b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def naive_counts(rows: Rows) -> tuple[int, int]:
    """(D, I): singular and invertible k x k column selections.

    Depth-first over increasing column choices, keeping the chosen
    columns as an echelon list basis; a column that reduces to zero
    makes every completion of that prefix singular, so it is skipped.
    """
    k, n = len(rows), len(rows[0])
    cols = [[row[j] for row in rows] for j in range(n)]
    invertible = 0

    def extend(first: int, basis: list[tuple[int, list[int]]]) -> None:
        nonlocal invertible
        if len(basis) == k:
            invertible += 1
            return
        for j in range(first, n - (k - len(basis)) + 1):
            v = cols[j]
            for p, b in basis:
                if v[p]:
                    v = [x ^ y for x, y in zip(v, b)]
            if 1 in v:
                extend(j + 1, basis + [(v.index(1), v)])

    extend(0, [])
    return comb(n, k) - invertible, invertible


def null_space(rows: Rows) -> Rows:
    """A basis of {x : rows . x = 0}, from the reduced row echelon form."""
    n = len(rows[0])
    work = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and work[i][col]:
                work[i] = [a ^ b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        x = [0] * n
        x[free] = 1
        for i, p in enumerate(pivots):
            x[p] = work[i][free]
        basis.append(x)
    return basis


def weight_counts(basis: Rows, n: int) -> list[int]:
    """Weight distribution of the span of basis, by a Gray-code walk."""
    counts = [0] * (n + 1)
    counts[0] = 1
    word = [0] * n
    for step in range(1, 1 << len(basis)):
        row = basis[(step & -step).bit_length() - 1]
        word = [a ^ b for a, b in zip(word, row)]
        counts[sum(word)] += 1
    return counts


def dual_weight_counts(rows: Rows) -> list[int]:
    """Weight distribution of the dual of the row space of rows."""
    return weight_counts(null_space(rows), len(rows[0]))


def candidate_rows(p_bits: int, k: int, n: int) -> Rows:
    """Systematic [I | P] whose P block is read row-major from p_bits.

    This is the search command's documented candidate layout.
    """
    width = n - k
    rows = []
    for i in range(k):
        chunk = (p_bits >> (i * width)) & ((1 << width) - 1)
        rows.append([int(j == i) for j in range(k)]
                    + [(chunk >> j) & 1 for j in range(width)])
    return rows


def search_max(k: int, n: int, samples: int, seed: int) -> int:
    """Best I over the P blocks that search --samples draws for seed."""
    rng = random.Random(seed)
    width = k * (n - k)
    seen: set[int] = set()
    best = -1
    for _ in range(samples):
        p = rng.getrandbits(width) if width else 0
        if p not in seen:
            seen.add(p)
            best = max(best, naive_counts(candidate_rows(p, k, n))[1])
    return best


def lines_to_rows(lines) -> Rows:
    return [[int(ch) for ch in line] for line in lines]
