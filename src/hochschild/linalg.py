"""Exact linear algebra over the rationals.

Two eliminations, both in integer arithmetic and fraction-free: a
sparse one that ranks the graded complex slices and the bar-complex
differentials (both are mostly zero), and a dense Bareiss echelon,
`_echelon`.  The echelon serves `nullspace`, which finds the weights of
f, and `rank_dense`, kept as the independent reference that the tests
compare the sparse path against.  The sparse path eliminates the
sparsest rows first and stops once the rank reaches the number of
distinct keys, which no later row can raise.  Rational entries are
cleared of denominators row by row, which leaves the rank unchanged;
the sparse path reads a row of nonzero ints as given.  The bar oracle's
entries are ints, so Fraction rows reach `rank_sparse` only from the
graded oracle, where a slice entry is not integral (as for f with a
non-integral coefficient).  `nullspace` back-substitutes, dividing only
through `poly.exact_quotient`.  No floating point and no modular
arithmetic.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .poly import exact_quotient


def _integer_rows(rows):
    """Scale each row by the lcm of its denominators; rank is unchanged."""
    out = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        out.append([int(x * den) for x in row])
    return out


def _echelon(rows):
    """(m, pivots): a row echelon form m of the dense matrix `rows`, by
    Bareiss fraction-free elimination with pivoting over its integer
    rows, and the pivot column of each of m's leading rows.  The pivot
    columns are those where the column space grows, fixed by the
    matrix."""
    m = _integer_rows(rows)
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots: list = []
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        mk = m[rank]
        p = mk[col]
        for r in range(rank + 1, nrows):
            mr = m[r]
            factor = mr[col]
            for c in range(col, ncols):
                mr[c] = (p * mr[c] - factor * mk[c]) // prev
        prev = p
        pivots.append(col)
    return m, pivots


def rank_dense(rows) -> int:
    """Rank via Bareiss fraction-free elimination with pivoting: the
    number of pivots of `_echelon`."""
    return len(_echelon(rows)[1])


def rank_sparse(rows) -> int:
    """Rank of a matrix given as sparse rows (dict col -> int or Fraction).

    Fraction-free elimination over the integers.  The rows are reduced
    in ascending order of their number of entries, and the elimination
    stops once the rank reaches the number of distinct keys: the pivots
    then span every coordinate a row uses, so every row left lies in
    their span (a key whose value is 0 only raises the bound).  The
    order changes which rows become pivots, never the rank.

    A row whose entries are all nonzero ints is read as given; any other
    row is first copied without its zeros and scaled by the lcm of its
    denominators, which leaves the rank unchanged.  A row is reduced
    against the pivot rows found so far: with a and b the pivot's and
    the row's leading entries divided by their gcd, r := a*r - b*pivot
    clears the leading column exactly.  A row read as given is copied
    the first time it is reduced.  A row whose leading column has no
    pivot becomes the pivot there: as given if it was never copied, else
    divided by the gcd of its entries.  The caller's list and dicts are
    never modified.
    """
    rows = sorted(rows, key=len)
    bound = len(set().union(*rows))
    pivots: dict = {}  # leading col -> (leading entry, row)
    rank = 0
    for row in rows:
        values = row.values()
        owned = 0 in values or not all(map(_is_int, values))
        if owned:
            row = _integer_row(row)
        while row:
            c = min(row)
            b = row[c]
            pivot = pivots.get(c)
            if pivot is None:
                if owned:
                    g = gcd(*row.values())
                    if g != 1:
                        b //= g
                        row = {k: v // g for k, v in row.items()}
                pivots[c] = (b, row)
                rank += 1
                if rank == bound:
                    return rank
                break
            a, prow = pivot
            g = gcd(a, b)
            if g != 1:
                a //= g
                b //= g
            if a != 1:
                row = {k: a * v for k, v in row.items()}
            elif not owned:
                row = dict(row)
            owned = True
            for k, v in prow.items():
                s = row.get(k, 0) - b * v
                if s:
                    row[k] = s
                else:
                    del row[k]
    return rank


_is_int = int.__instancecheck__     # isinstance(v, int), for map


def _integer_row(row) -> dict:
    """The nonzero entries of a sparse row times the lcm of their
    denominators, as ints, in a new dict."""
    den = lcm(*(v.denominator for v in row.values()))
    if den == 1:
        return {k: v.numerator for k, v in row.items() if v}
    return {k: v.numerator * (den // v.denominator)
            for k, v in row.items() if v}


def nullspace(rows):
    """Basis of the right nullspace of a small dense matrix of int or
    Fraction entries: one vector per non-pivot column of `_echelon`,
    1 there and 0 at the other non-pivot columns, its pivot entries by
    back-substitution, last pivot first.  The vector is kept as ints
    over a common denominator: the pivot p of a row whose later entries
    sum to s against the vector scales both by p / gcd(p, s), which
    makes the solved entry -s / gcd(p, s) an int.  Each entry is
    divided by the denominator at the end, through `exact_quotient`, so
    basis entries are ints where integral and Fractions otherwise."""
    m, pivots = _echelon(rows)
    ncols = len(m[0]) if m else 0
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [0] * ncols
        vec[free] = den = 1
        for row, col in reversed(list(zip(m, pivots))):
            p = row[col]
            s = sum(map(mul, row[col + 1:], vec[col + 1:]))
            g = gcd(s, p) if p > 0 else -gcd(s, p)
            if g != p:
                vec = [x * (p // g) for x in vec]
                den *= p // g
            vec[col] = -s // g
        basis.append([exact_quotient(x, den) for x in vec])
    return basis
