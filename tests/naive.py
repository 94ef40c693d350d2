"""Slow reference implementations used as independent oracles.

Everything here works on plain lists of 0/1 ints and never touches the
packed representation, so agreement with the library is meaningful.
"""

from itertools import combinations, product
from math import comb


def row_lists(m) -> list[list[int]]:
    """A matrix's rows as 0/1 lists, read from its text form."""
    return [[int(c) for c in line] for line in m.to_lines()]


def naive_gauss_jordan(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Textbook Gauss-Jordan elimination on nested lists, sweeping columns left to right.

    Returns the reduced row echelon form's nonzero rows and their pivot
    columns.  Each pivot is the first row from the current one down with
    a 1 in the column, swapped up and added to every other row with a 1
    there.
    """
    work = [row[:] for row in rows]
    pivots: list[int] = []
    for col in range(len(work[0]) if work else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and work[i][col]:
                work[i] = [(a + b) % 2 for a, b in zip(work[i], work[r])]
        pivots.append(col)
    return work[:len(pivots)], pivots


def naive_rank(rows: list[list[int]]) -> int:
    """The number of pivots of ``naive_gauss_jordan``."""
    return len(naive_gauss_jordan(rows)[1])


def naive_systematic_form(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """[I | P] with the pivot columns moved to the front, in order, and the move.

    Element j of the returned permutation is the position that column j
    moves to.  Meaningful for full-row-rank rows only.
    """
    reduced, pivots = naive_gauss_jordan(rows)
    order = pivots + [j for j in range(len(rows[0])) if j not in pivots]
    moved = [[row[j] for j in order] for row in reduced]
    return moved, [order.index(j) for j in range(len(order))]


def naive_weight_counts(rows: list[list[int]]) -> list[int]:
    """Weight distribution by expanding every row combination."""
    k = len(rows)
    n = len(rows[0])
    counts = [0] * (n + 1)
    for coeffs in product((0, 1), repeat=k):
        word = [0] * n
        for c, row in zip(coeffs, rows):
            if c:
                word = [(a + b) % 2 for a, b in zip(word, row)]
        counts[sum(word)] += 1
    return counts


def naive_subset_split(rows: list[list[int]]) -> tuple[list, list]:
    """All k-column subsets split into (dependent, independent), lexicographic."""
    k = len(rows)
    n = len(rows[0])
    dep, ind = [], []
    for subset in combinations(range(n), k):
        square = [[row[j] for j in subset] for row in rows]
        if naive_rank(square) == k:
            ind.append(subset)
        else:
            dep.append(subset)
    return dep, ind


def naive_dual_basis(rows: list[list[int]]) -> list[list[int]]:
    """A basis of the orthogonal complement, by filtering all of F_2^n."""
    n = len(rows[0])
    dual_words = []
    for cand in product((0, 1), repeat=n):
        if all(sum(a * b for a, b in zip(cand, row)) % 2 == 0 for row in rows):
            dual_words.append(list(cand))
    basis: list[list[int]] = []
    for w in dual_words:
        if naive_rank(basis + [w]) > len(basis):
            basis.append(w)
    return basis


def naive_subspace_bases(k: int) -> list[list[list[int]]]:
    """One basis of every subspace of F_2^k, in reduced row echelon form.

    A subspace is fixed by its pivot columns and, in each basis row, the
    entries right of the pivot that sit in no pivot column; every choice
    of those entries gives a distinct subspace.
    """
    bases = []
    for dim in range(k + 1):
        for pivots in combinations(range(k), dim):
            free = [(r, c) for r, p in enumerate(pivots)
                    for c in range(p + 1, k) if c not in pivots]
            for values in product((0, 1), repeat=len(free)):
                basis = [[int(c == p) for c in range(k)] for p in pivots]
                for (r, c), v in zip(free, values):
                    basis[r][c] = v
                bases.append(basis)
    return bases


def mobius_full_rank_count(rows: list[list[int]]) -> int:
    """I by Moebius inversion over the subspaces U of the coefficient space.

    A k-subset T is independent when no nonzero combination of the rows
    vanishes on T.  The combinations that vanish on T form a subspace,
    and the Moebius function of the subspace lattice is
    (-1)^dim U * 2^C(dim U, 2), so

        I = sum over U of (-1)^dim U * 2^C(dim U, 2) * C(n - |supp U|, k),

    supp U the coordinates where some word of U is nonzero: the union of
    the supports of a basis of U.  For full-rank rows the coefficient
    space and the row space have the same subspaces.
    """
    k, n = len(rows), len(rows[0])
    total = 0
    for basis in naive_subspace_bases(k):
        support = set()
        for coeffs in basis:
            word = [sum(c * row[j] for c, row in zip(coeffs, rows)) % 2
                    for j in range(n)]
            support.update(j for j in range(n) if word[j])
        dim = len(basis)
        total += (-1) ** dim * 2 ** comb(dim, 2) * comb(n - len(support), k)
    return total


def bareiss_determinant(a: list[list[int]]) -> int:
    """Determinant of an integer matrix by Bareiss's fraction-free elimination.

    After step t every entry below and right of the pivot is a (t + 2)-minor,
    so each division by the previous pivot is exact.
    """
    a = [row[:] for row in a]
    sign, prev = 1, 1
    for t in range(len(a) - 1):
        if a[t][t] == 0:
            swap = next((i for i in range(t + 1, len(a)) if a[i][t]), None)
            if swap is None:
                return 0
            a[t], a[swap] = a[swap], a[t]
            sign = -sign
        for i in range(t + 1, len(a)):
            for j in range(t + 1, len(a)):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
        prev = a[t][t]
    return sign * a[-1][-1] if a else 1


def kirchhoff_count(rows: list[list[int]]) -> int:
    """Spanning trees of the graph whose grounded incidence matrix is rows.

    Each column has one or two ones: an edge to the grounded vertex, or
    between two others.  The reduced Laplacian holds each vertex's degree,
    its row's weight, on the diagonal and minus the number of edges
    between two vertices, the columns their rows share, elsewhere; its
    determinant over the integers counts the trees (Kirchhoff 1847).
    """
    shared = [[sum(x * y for x, y in zip(u, v)) for v in rows] for u in rows]
    return bareiss_determinant([[c if i == j else -c for j, c in enumerate(row)]
                                for i, row in enumerate(shared)])


def naive_macwilliams(coeffs: list[int], dim: int) -> list[int]:
    """The dual weight distribution by the MacWilliams identity, term by term.

    Weight w's count is sum_d A_d K_w(d) / 2^dim, with each Krawtchouk
    value K_w(d) = sum_j (-1)^j C(d, j) C(n - d, w - j) summed from
    binomials.  Raises ValueError(w, total) at the first weight whose
    total is not a nonnegative multiple of 2^dim.
    """
    n = len(coeffs) - 1
    out = []
    for w in range(n + 1):
        total = sum(a * sum((-1) ** j * comb(d, j) * comb(n - d, w - j)
                            for j in range(min(w, d) + 1))
                    for d, a in enumerate(coeffs) if a)
        if total % (1 << dim) or total < 0:
            raise ValueError(w, total)
        out.append(total >> dim)
    return out
