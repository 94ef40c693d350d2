"""Weight enumerators, dual codes and effective distances.

The binary code here is always the row space of a generator matrix.
Weight distributions are exact integer counts; the transform between a
code and its dual is done with integer arithmetic only, so every
coefficient comes out exact and the divisibility by the code size acts
as a built-in consistency check.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import BudgetError, ConsistencyError, DimensionError
from .gf2 import BitMatrix, _Record, _set, check_index_set, full_rank_basis

# Largest dimension enumerated by default.  Random dimension-28 codes took
# 0.8-1.2 s at length 36 and 1.9-2.3 s at length 56 (2-vCPU Xeon, Python
# 3.11); each further dimension doubles that.
DEFAULT_MAX_ENUM_DIM = 28

# Message bits weighed per sliced block: n tables of 2^16 bits (8 KiB
# each).  On random dimension-18 to 22 codes of length 34 to 40 (9
# interleaved rounds), 15-bit blocks took 2-10% longer than 16-bit ones,
# 14-bit 17-31%, 17-bit 18-29% and 18-bit 42-99%.
_SLICE_BITS = 16


class WeightEnumerator(_Record):
    """Exact weight distribution of a length-n code.

    ``coeffs[w]`` counts the codewords of Hamming weight w, for
    w = 0..n, so the tuple always has n + 1 entries and coeffs[0] >= 1.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple[int, ...]) -> None:
        if n < 1:
            raise DimensionError(f"bad length {n}")
        if len(coeffs) != n + 1:
            raise DimensionError(f"need {n + 1} coefficients, got {len(coeffs)}")
        if any(c < 0 for c in coeffs):
            raise ConsistencyError("negative weight count")
        if coeffs[0] < 1:
            raise ConsistencyError("zero word missing from weight distribution")
        _set(self, "n", n)
        _set(self, "coeffs", coeffs)

    @property
    def size(self) -> int:
        """Number of codewords."""
        return sum(self.coeffs)

    def polynomial_str(self) -> str:
        """Render as a homogeneous polynomial in x and y, e.g. x^7 + 7x^4y^4."""
        terms = []
        for w, a in enumerate(self.coeffs):
            if a == 0:
                continue
            factors = str(a) if a > 1 else ""
            xp = self.n - w
            if xp:
                factors += "x" if xp == 1 else f"x^{xp}"
            if w:
                factors += "y" if w == 1 else f"y^{w}"
            terms.append(factors or "1")
        return " + ".join(terms)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "coeffs": list(self.coeffs)}


def weight_enumerator(gen: BitMatrix) -> WeightEnumerator:
    """Weight distribution of the row space of gen, by direct enumeration.

    The walk runs over ``full_rank_basis(gen)``, whose columns are gen's
    reversed; weights do not depend on column order.  Small codes walk
    all 2^k codewords in Gray-code order, so each step is a single row
    XOR and a popcount.  Where ``_slices`` says so, _sliced_counts
    weighs the codewords 2^_SLICE_BITS at a time instead, adding only
    the columns that change from block to block.  The tally is
    order-independent, so the result is deterministic however the walk
    is arranged.

    Args:
        gen: generator matrix with full row rank.

    Raises:
        RankError: gen is rank deficient (the walk would double-count).
        BudgetError: k is over DEFAULT_MAX_ENUM_DIM.
    """
    k, n = gen.rows, gen.cols
    basis, _ = full_rank_basis(gen)
    if k > DEFAULT_MAX_ENUM_DIM:
        raise BudgetError(
            f"enumerating 2^{k} codewords exceeds the dimension guard "
            f"{DEFAULT_MAX_ENUM_DIM}"
        )
    if _slices(k, n):
        return WeightEnumerator(n, tuple(_sliced_counts(basis, n)))
    counts = [0] * (n + 1)
    counts[0] = 1
    word = 0
    for step in range(1, 1 << k):
        word ^= basis[(step & -step).bit_length() - 1]
        counts[word.bit_count()] += 1
    return WeightEnumerator(n, tuple(counts))


# weight_enumerator slices once 2^k >= n * max(16, n / 12) (``_slices``).  A
# sliced block costs a few big-int operations a column where the Gray walk
# costs 2^k steps, so the crossover is a ratio, not a dimension, and past
# n = 192 it grows with n.  Measured Gray/sliced time (median of 5-7 random
# matrices, best of 3-5, 2-vCPU Xeon, Python 3.11) is 1 at n = 8, 18, 40, 76
# and 150 for k = 7 to 11 (2^k/n = 13-16), at n = 250, 410, 650, 790 and 880
# for k = 12 to 16 (2^k/n = 16, 20, 25, 41 and 74); near the rule's edge it
# is 1.1-1.4 for k = 12 to 19 (1.0 at k = 16, n = 886).  Dimensions 3-6
# (2^k/n <= 11) run 1.2-2x faster on the Gray walk.
def _slices(k: int, n: int) -> bool:
    """The rule above: does a dimension-k, length-n code take the sliced path?"""
    return 1 << k >= n * max(16, n // 12)


def _sliced_counts(rows: tuple[int, ...], n: int) -> list[int]:
    """Weight counts of the row space of rows, 2^t messages per block.

    With t = min(k, _SLICE_BITS), bit m of tables[j] is coordinate j of
    the codeword whose low t message bits are m; the high k - t rows are
    walked in Gray order, one block per step.  A column no high row
    covers has the same table in every block, so those are summed once.
    A column only high rows cover is all zeros or all ones in a block,
    and adds its bit of the walk's word to every lane.  The rest are
    complemented as the walk adds their rows, and each block sums them
    onto the once-summed digits with ``_add_planes``.  The lanes are
    then split by sum, top digit first: a part whose lanes all hold the
    digit, or all lack it, passes on whole, and one that splits pays an
    AND, a popcount and an XOR.  Each part carries its size, so the half
    without the digit is counted as the rest of it, and at the last
    digit, whose parts are only counted, that half needs no XOR: one
    popcount a split, one fewer than the final parts.  Any basis counts
    right; in a reduced one each low pivot holds just its lane, each
    high pivot is of the second kind, and at most the n - k non-pivot
    columns are left to the blocks.
    """
    k = len(rows)
    t = min(k, _SLICE_BITS)
    width = 1 << t
    ones = (1 << width) - 1
    # lane i: bit m set iff bit i of m is set (2^i zeros, 2^i ones, ...)
    lane = ones ^ (ones >> (width >> 1))
    tables = [0] * n
    for i in range(t - 1, -1, -1):
        row = rows[i]
        while row:
            low = row & -row
            tables[low.bit_length() - 1] ^= lane
            row ^= low
        lane ^= lane >> (1 << i >> 1)
    high = rows[t:]
    covered = 0
    for row in high:
        covered |= row
    fixed = _add_planes([tables[j] for j in range(n) if tables[j] and not covered >> j & 1])
    moving = [j for j in range(n) if tables[j] and covered >> j & 1]
    constant = sum(1 << j for j in range(n) if not tables[j] and covered >> j & 1)
    flips = [[i for i, j in enumerate(moving) if row >> j & 1] for row in high]
    live = [tables[j] for j in moving]
    counts = [0] * (n + 1)
    word = 0
    for step in range(1 << (k - t)):
        if step:
            h = (step & -step).bit_length() - 1
            word ^= high[h]
            for i in flips[h]:
                live[i] ^= ones
        # split the lanes by sum, top digit first; the last digit's parts
        # are only counted, so there the part without it skips its XOR
        parts = [((word & constant).bit_count(), ones, width)]
        for b, d in reversed([*enumerate(_add_planes(live, fixed))]):
            split = []
            for value, part, size in parts:
                hi = part & d
                if not hi:
                    split.append((value, part, size))
                elif hi == part:
                    split.append((value + (1 << b), part, size))
                else:
                    c = hi.bit_count()
                    split += (value + (1 << b), hi, c), (value, part ^ hi if b else part, size - c)
            parts = split
        for value, _, size in parts:
            counts[value] += size
    return counts


def _add_planes(planes: Sequence[int], seed: Sequence[int] = ()) -> list[int]:
    """Lane-by-lane sum of the planes and seed, as digits.

    Bit m of digits[b] is bit b of lane m's total: the number of planes
    with bit m set plus the number seed, itself such a digit list, holds
    at lane m.  The list runs lowest digit first and its last digit is
    nonzero, so its length is the bit length of the largest total and
    ``_sliced_counts`` can split from the top digit down.  Each
    carry-save full adder (Harley-Seal) turns three planes of one digit
    into their sum at that digit and their carry at the next, in five
    big-int operations.
    """
    digits: list[int] = []
    level = list(planes)
    while level or len(digits) < len(seed):
        level += seed[len(digits):len(digits) + 1]
        carries = []
        while len(level) > 2:
            x, y, z = level.pop(), level.pop(), level.pop()
            u = x ^ y
            level.append(u ^ z)
            carries.append(x & y | u & z)
        if len(level) == 2:
            x, y = level
            level = [x ^ y]
            carries.append(x & y)
        digits.append(level[0])
        level = carries
    while digits and not digits[-1]:  # a carry no lane set
        digits.pop()
    return digits


def macwilliams(we: WeightEnumerator, dim: int) -> WeightEnumerator:
    """Weight distribution of the dual code, via the transform identity.

    Expands W(x + y, x - y) / 2^dim with exact integer arithmetic: the
    dual count for weight w is (1 / 2^dim) * sum_d A_d * K_w(d), where
    the Krawtchouk value K_w(d) = sum_j (-1)^j C(d, j) C(n - d, w - j)
    is the coefficient of z^w in (1 - z)^d (1 + z)^(n - d).  The whole
    sum is one polynomial, built by Kronecker substitution as a single
    int at z = 2^f, Horner-style in d: each step multiplies it by 1 + z
    and adds A_d (1 - z)^d, and multiplies (1 - z)^d by 1 - z, each
    product a shift and an add.  Every coefficient is at most
    2^dim C(n, w) <= 2^(n + dim) in size, so with f = n + dim + 2 each
    fits a signed f-bit field; half of every field is added, so none
    borrows from the next, and the fields are read back from weight 0
    up.

    Args:
        we: weight distribution of a code of dimension dim.
        dim: dimension of the primal code.

    Raises:
        DimensionError: dim is not in 0..n.
        ConsistencyError: coefficient sum is not 2^dim, or the transform
            yields a count that is negative or not divisible by 2^dim.
    """
    n = we.n
    if not 0 <= dim <= n:
        raise DimensionError(f"dimension {dim} out of range for length {n}")
    if we.size != 1 << dim:
        raise ConsistencyError(
            f"coefficients sum to {we.size}, a dimension-{dim} code has {1 << dim} words"
        )
    f = n + dim + 2
    poly, down = 0, 1  # down is (1 - z)^d at z = 2^f
    for a_d in we.coeffs:
        poly += (poly << f) + a_d * down
        down -= down << f
    half = 1 << (f - 1)  # each field now holds its coefficient plus half
    poly += half * ((1 << f * (n + 1)) - 1) // ((1 << f) - 1)
    out = []
    for w in range(n + 1):
        total = (poly >> f * w & (1 << f) - 1) - half
        q, rem = divmod(total, 1 << dim)
        if rem or q < 0:
            raise ConsistencyError(
                f"transform gave {total} at weight {w}, not a multiple of 2^{dim}"
            )
        out.append(q)
    return WeightEnumerator(n, tuple(out))


def min_weight(we: WeightEnumerator) -> int | None:
    """Smallest nonzero weight with a positive count; None for the zero code."""
    for d in range(1, we.n + 1):
        if we.coeffs[d]:
            return d
    return None


def dual_of(m: BitMatrix) -> BitMatrix:
    """Generator of the dual of m's row space, in m's own column order.

    The rows are read off ``full_rank_basis(m)``: one for each non-pivot
    column j, ascending, holding bit j and the pivot of every basis word
    that holds j.  On a systematic [I | P] that is [P^T | I].  For k = n
    every column is a pivot and the result is a 0 x n matrix, the
    generator of the trivial dual.

    Raises:
        RankError: m does not have full row rank.
    """
    k, n = m.rows, m.cols
    basis, pivots = full_rank_basis(m)
    rows = []
    for j in sorted(set(range(n)).difference(pivots)):
        row = 1 << j
        for w, p in zip(basis, pivots):
            if w >> (n - 1 - j) & 1:  # column j is at bit n - 1 - j
                row |= 1 << p
        rows.append(row)
    return BitMatrix(n - k, n, tuple(rows))


def effective_distance(p: BitMatrix, t_set: Sequence[int]) -> int:
    """Weight of the dual codeword whose unit part is supported on t_set.

    For a systematic generator [I | P] the dual is [P^T | I], so the
    combination of its rows named by t_set has weight equal to the XOR
    of the matching columns of P plus |t_set| for the identity part.

    Args:
        p: the k x (n - k) parity block.
        t_set: strictly increasing 0-based indices into the rows of the
            identity block (equivalently the columns of P^T).

    Raises:
        IndexSetError: empty, unsorted or out-of-range t_set.
    """
    check_index_set(t_set, p.cols)
    pcols = p.column_ints()
    acc = 0
    for j in t_set:
        acc ^= pcols[j]
    return acc.bit_count() + len(t_set)
