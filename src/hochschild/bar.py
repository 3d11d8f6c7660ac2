"""Bar-complex oracle for small finite-dimensional algebras.

Computes Hochschild (co)homology straight from the definition: cochains
are multilinear maps A^(x)p -> A, chains are tensor powers A^(x)(p+1),
and the differentials are the alternating sums of multiplication maps.
This is exponential in p and only exists to cross-check the Koszul
route on truncated polynomial algebras C[z]/<z^k>; a hard resource
guard rejects anything beyond k = 4, p = 3.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .linalg import rank_sparse

MAX_DIMENSION = 4
MAX_DEGREE = 3


class ResourceLimitError(ValueError):
    pass


class FiniteAlgebra:
    """Associative unital algebra given by structure constants.

    table[i][j] is the coefficient vector of e_i * e_j, and e_0 is the
    unit.  Associativity and the unit law are verified on construction.
    """

    def __init__(self, table):
        self.dim = len(table)
        self.table = tuple(tuple(tuple(Fraction(c) for c in vec) for vec in row)
                           for row in table)
        self.validate()

    def validate(self) -> None:
        k = self.dim
        for row in self.table:
            if len(row) != k or any(len(vec) != k for vec in row):
                raise ValueError("structure constant table is not k x k x k")
        for i in range(k):
            expected = tuple(Fraction(1) if m == i else Fraction(0)
                             for m in range(k))
            if self.table[0][i] != expected or self.table[i][0] != expected:
                raise ValueError("basis element 0 is not a unit")
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    left = self._mul_vec(self.table[i][j], l)
                    right = [Fraction(0)] * k
                    for m, c in enumerate(self.table[j][l]):
                        if c:
                            for t, v in enumerate(self.table[i][m]):
                                right[t] += c * v
                    if left != right:
                        raise ValueError(
                            "associativity fails at (%d, %d, %d)" % (i, j, l))

    def _mul_vec(self, vec, l):
        k = self.dim
        out = [Fraction(0)] * k
        for m, c in enumerate(vec):
            if c:
                for t, v in enumerate(self.table[m][l]):
                    out[t] += c * v
        return out

    @staticmethod
    def truncated_polynomial(k: int) -> "FiniteAlgebra":
        """C[z]/<z^k> on the basis 1, z, ..., z^(k-1)."""
        if k < 1:
            raise ValueError("k must be positive")
        table = [[[1 if i + j == m else 0 for m in range(k)]
                  for j in range(k)] for i in range(k)]
        return FiniteAlgebra(table)


def _guard(algebra: FiniteAlgebra, p_max: int) -> None:
    if algebra.dim > MAX_DIMENSION or p_max > MAX_DEGREE:
        raise ResourceLimitError(
            "bar oracle limited to dimension <= %d and degree <= %d"
            % (MAX_DIMENSION, MAX_DEGREE))


def _cochain_columns(algebra: FiniteAlgebra, p: int):
    """Sparse columns of d: C^p -> C^(p+1), keyed by (tuple, out index).

    (d phi)(a0..ap) = a0 phi(a1..ap)
                      + sum_{i=1..p} (-1)^i phi(a0,..,a_{i-1}a_i,..,ap)
                      + (-1)^(p+1) phi(a0..a_{p-1}) ap
    evaluated on elementary cochains phi = (J -> e_l).
    """
    k = algebra.dim
    table = algebra.table
    columns = []
    for J in product(range(k), repeat=p):
        for l in range(k):
            col: dict = {}
            for i0 in range(k):
                I = (i0,) + J
                for m, c in enumerate(table[i0][l]):
                    if c:
                        key = (I, m)
                        col[key] = col.get(key, 0) + c
            for i in range(1, p + 1):
                sign = -1 if i % 2 else 1
                merged = J[i - 1]
                for a in range(k):
                    for b in range(k):
                        c = table[a][b][merged]
                        if c:
                            I = J[:i - 1] + (a, b) + J[i:]
                            key = (I, l)
                            col[key] = col.get(key, 0) + sign * c
            sign = -1 if (p + 1) % 2 else 1
            for ap in range(k):
                I = J + (ap,)
                for m, c in enumerate(table[l][ap]):
                    if c:
                        key = (I, m)
                        col[key] = col.get(key, 0) + sign * c
            columns.append({key: v for key, v in col.items() if v})
    return columns


def _chain_columns(algebra: FiniteAlgebra, p: int):
    """Sparse columns of d: C_p -> C_(p-1) on A^(x)(p+1).

    d(a0 x .. x ap) = sum_{i=0..p-1} (-1)^i a0 x .. (a_i a_{i+1}) .. x ap
                      + (-1)^p (ap a0) x a1 x .. x a_{p-1}
    """
    k = algebra.dim
    table = algebra.table
    columns = []
    for I in product(range(k), repeat=p + 1):
        col: dict = {}
        for i in range(p):
            sign = -1 if i % 2 else 1
            for m, c in enumerate(table[I[i]][I[i + 1]]):
                if c:
                    key = I[:i] + (m,) + I[i + 2:]
                    col[key] = col.get(key, 0) + sign * c
        sign = -1 if p % 2 else 1
        for m, c in enumerate(table[I[p]][I[0]]):
            if c:
                key = (m,) + I[1:p]
                col[key] = col.get(key, 0) + sign * c
        columns.append({key: v for key, v in col.items() if v})
    return columns


def bar_cohomology_dims(algebra: FiniteAlgebra, p_max: int) -> list:
    """dim HH^p for p = 0..p_max."""
    _guard(algebra, p_max)
    k = algebra.dim
    ranks = [rank_sparse(_cochain_columns(algebra, p))
             for p in range(p_max + 1)]
    dims = []
    for p in range(p_max + 1):
        below = ranks[p - 1] if p else 0
        dims.append(k ** (p + 1) - ranks[p] - below)
    return dims


def bar_homology_dims(algebra: FiniteAlgebra, p_max: int) -> list:
    """dim HH_p for p = 0..p_max."""
    _guard(algebra, p_max)
    k = algebra.dim
    ranks = [rank_sparse(_chain_columns(algebra, p))
             for p in range(1, p_max + 2)]
    dims = []
    for p in range(p_max + 1):
        above = ranks[p]            # rank of d: C_{p+1} -> C_p
        here = ranks[p - 1] if p else 0   # rank of d: C_p -> C_{p-1}
        dims.append(k ** (p + 1) - here - above)
    return dims


def truncated_closed_form(k: int, p: int) -> int:
    """dim HH^p(C[z]/<z^k>) = dim HH_p(C[z]/<z^k>): k in degree 0, k-1
    in every higher degree (and 0 throughout for the smooth case k = 1
    beyond degree 0)."""
    if p == 0:
        return k
    return k - 1
