"""Generators of textbook codes whose counts are known in closed form.

Each builder returns the rows of a generator matrix as plain lists of
0/1 ints (MacWilliams & Sloane 1977), so they serve as scale oracles
where a scan over every subset cannot run.  The graph builders return a
graph, to read through ``grounded_incidence``, whose count the
determinant in ``naive.kirchhoff_count`` gives.
"""

import random
from itertools import combinations

# the extended Golay code's cyclic part: x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1
GOLAY_POLYNOMIAL = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)  # coefficient of x^i at i


def gl_order(m: int) -> int:
    """|GL(m, 2)|, the number of ordered bases of F_2^m."""
    out = 1
    for i in range(m):
        out *= 2 ** m - 2 ** i
    return out


def simplex(m: int) -> list[list[int]]:
    """S_m: m rows, column x - 1 is the vector x of F_2^m for x = 1..2^m - 1."""
    return [[x >> i & 1 for x in range(1, 2 ** m)] for i in range(m)]


def hamming(m: int) -> list[list[int]]:
    """The dual of S_m, in S_m's column order.

    For each column x of weight two or more, the word with ones at x and
    at the unit columns of x's bits: it meets every row of S_m evenly,
    and only it holds column x, so the 2^m - 1 - m words are independent.
    """
    n = 2 ** m - 1
    rows = []
    for x in range(1, n + 1):
        if x & (x - 1):
            support = {x} | {1 << i for i in range(m) if x >> i & 1}
            rows.append([int(c in support) for c in range(1, n + 1)])
    return rows


def reed_muller_1(m: int) -> list[list[int]]:
    """RM(1, m): the all-ones row over the rows of F_2^m, column x for x = 0..2^m - 1."""
    return [[1] * 2 ** m] + [[x >> i & 1 for x in range(2 ** m)] for i in range(m)]


def extended_golay() -> list[list[int]]:
    """The [24, 12, 8] code: the 12 shifts of the cyclic [23, 12] generator, plus parity."""
    rows = []
    for s in range(12):
        row = [0] * s + list(GOLAY_POLYNOMIAL) + [0] * (11 - s)
        rows.append(row + [sum(row) % 2])
    return rows


# Graphs, each (V, edges) on vertices 0..V - 1.  Over GF(2) the incidence
# matrix's column matroid is the graph's cycle matroid, so the bases number
# the spanning trees (Kirchhoff 1847).

def complete_graph(m: int) -> tuple[int, list[tuple[int, int]]]:
    """K_m."""
    return m, list(combinations(range(m), 2))


def complete_bipartite(a: int, b: int) -> tuple[int, list[tuple[int, int]]]:
    """K_{a,b}: vertices 0..a - 1 on one side, a..a + b - 1 on the other."""
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def wheel(m: int) -> tuple[int, list[tuple[int, int]]]:
    """W_m: the hub 0 joined to every vertex of the rim, the cycle 1..m."""
    return m + 1, [(0, v) for v in range(1, m + 1)] + [(v, v % m + 1) for v in range(1, m + 1)]


def grid(a: int, b: int) -> tuple[int, list[tuple[int, int]]]:
    """The a x b grid graph, vertex (i, j) numbered i * b + j."""
    edges = [(v, v + 1) for v in range(a * b) if v % b < b - 1]
    return a * b, edges + [(v, v + b) for v in range(a * b - b)]


def random_connected(vertices: int, extra: int, seed: int) -> tuple[int, list[tuple[int, int]]]:
    """A random spanning tree, each vertex joined to an earlier one, and
    ``extra`` more distinct edges, drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, vertices)]
    rest = [e for e in combinations(range(vertices), 2) if e not in edges]
    return vertices, edges + rng.sample(rest, extra)


def grounded_incidence(vertices: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    """The vertex-edge incidence matrix with vertex 0 grounded: the row of
    vertex v at v - 1, for v = 1..V - 1, and a column per edge."""
    return [[int(v in edge) for edge in edges] for v in range(1, vertices)]
