"""Generators of textbook codes whose counts are known in closed form.

Each builder returns the rows of a generator matrix as plain lists of
0/1 ints (MacWilliams & Sloane 1977), so they serve as scale oracles
where a scan over every subset cannot run.
"""

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
