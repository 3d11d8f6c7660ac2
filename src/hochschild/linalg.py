"""Exact rank computations over the rationals.

Two routines: a sparse Gaussian elimination over Fraction, which ranks
the graded complex slices and the bar-complex differentials (both are
mostly zero), and a dense fraction-free Bareiss elimination, kept as the
independent reference that the tests compare the sparse path against.
Both are exact; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _integer_rows(rows):
    """Scale each row by the lcm of its denominators; rank is unchanged."""
    out = []
    for row in rows:
        denlcm = 1
        for x in row:
            if isinstance(x, Fraction):
                d = x.denominator
            else:
                d = 1
            denlcm = denlcm * d // gcd(denlcm, d)
        out.append([int(x * denlcm) for x in row])
    return out


def rank_dense(rows) -> int:
    """Rank via Bareiss fraction-free elimination with pivoting."""
    if not rows or not rows[0]:
        return 0
    m = _integer_rows(rows)
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    col = 0
    while rank < nrows and col < ncols:
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, nrows):
            mr = m[r]
            mk = m[rank]
            factor = mr[col]
            for c in range(col, ncols):
                mr[c] = (p * mr[c] - factor * mk[c]) // prev
        prev = p
        rank += 1
        col += 1
    return rank


def rank_sparse(rows) -> int:
    """Rank of a matrix given as sparse rows (dict col -> Fraction).

    Plain Gaussian elimination over Fraction; each incoming row is
    reduced against the pivot rows found so far.  Pivot rows are kept
    normalized so reduction is a single scaled subtraction per hit.
    """
    pivots: dict = {}  # col -> normalized row dict
    rank = 0
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = Fraction(1) / row[c]
                pivots[c] = {k: v * inv for k, v in row.items()}
                rank += 1
                break
            factor = row[c]
            for k, v in pivot.items():
                s = row.get(k, 0) - factor * v
                if s:
                    row[k] = s
                elif k in row:
                    del row[k]
    return rank


def nullspace(rows):
    """Basis of the right nullspace of a small dense Fraction matrix."""
    if not rows:
        return []
    m = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    pivot_cols = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivot_cols):
            vec[pc] = -m[row_idx][fc]
        basis.append(vec)
    return basis
