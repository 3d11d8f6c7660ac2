"""Bar-complex oracle for the truncated polynomial algebras C[z]/<z^k>.

Computes Hochschild (co)homology straight from the definition: cochains
are multilinear maps A^(x)p -> A, chains are tensor powers A^(x)(p+1),
and the differentials are the alternating sums of multiplication maps.
Basis element a of A = C[z]/<z^k> is z^a, and z^a * z^b is z^(a+b) when
a + b < k, else 0, so every column is built in integers from that rule.
This is exponential in p and only exists to cross-check the Koszul
route; a hard resource guard runs before any work and rejects anything
beyond k = 4, p = 3.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

# `linalg.rank_sparse` is looked up at each call, not bound at import:
# the CLI imports this module on first use, and a name bound then would
# keep whatever `linalg` held at that moment, such as a profiler's
# temporary wrapper
from . import linalg

MAX_DIMENSION = 4
MAX_DEGREE = 3


class ResourceLimitError(ValueError):
    pass


def _guard(k: int, p_max: int) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    if k > MAX_DIMENSION or p_max > MAX_DEGREE:
        raise ResourceLimitError(
            "bar oracle limited to dimension <= %d and degree <= %d"
            % (MAX_DIMENSION, MAX_DEGREE))


def _cochain_columns(k: int, p: int):
    """Sparse columns of d: C^p -> C^(p+1), keyed by (tuple, out index).

    (d phi)(a0..ap) = a0 phi(a1..ap)
                      + sum_{i=1..p} (-1)^i phi(a0,..,a_{i-1}a_i,..,ap)
                      + (-1)^(p+1) phi(a0..a_{p-1}) ap
    evaluated on elementary cochains phi = (J -> z^l).
    """
    columns = []
    for J in product(range(k), repeat=p):
        for l in range(k):
            col = Counter()
            for a in range(k - l):
                col[(a,) + J, a + l] += 1
                col[J + (a,), a + l] += (-1) ** (p + 1)
            for i in range(1, p + 1):
                merged = J[i - 1]
                for a in range(merged + 1):
                    col[J[:i - 1] + (a, merged - a) + J[i:], l] += (-1) ** i
            columns.append({key: v for key, v in col.items() if v})
    return columns


def _chain_columns(k: int, p: int):
    """Sparse columns of d: C_p -> C_(p-1) on A^(x)(p+1).

    d(a0 x .. x ap) = sum_{i=0..p-1} (-1)^i a0 x .. (a_i a_{i+1}) .. x ap
                      + (-1)^p (ap a0) x a1 x .. x a_{p-1}
    """
    columns = []
    for I in product(range(k), repeat=p + 1):
        col = Counter()
        for i in range(p):
            if I[i] + I[i + 1] < k:
                col[I[:i] + (I[i] + I[i + 1],) + I[i + 2:]] += (-1) ** i
        if I[p] + I[0] < k:
            col[(I[p] + I[0],) + I[1:p]] += (-1) ** p
        columns.append({key: v for key, v in col.items() if v})
    return columns


def _dims(k: int, ranks: list) -> list:
    """Degree p has k^(p+1) basis elements, ranks[p] is the rank of the
    differential between degrees p and p+1."""
    return [k ** (p + 1) - rank - (ranks[p - 1] if p else 0)
            for p, rank in enumerate(ranks)]


def bar_cohomology_dims(k: int, p_max: int) -> list:
    """dim HH^p(C[z]/<z^k>) for p = 0..p_max."""
    _guard(k, p_max)
    return _dims(k, [linalg.rank_sparse(_cochain_columns(k, p))
                     for p in range(p_max + 1)])


def bar_homology_dims(k: int, p_max: int) -> list:
    """dim HH_p(C[z]/<z^k>) for p = 0..p_max."""
    _guard(k, p_max)
    return _dims(k, [linalg.rank_sparse(_chain_columns(k, p + 1))
                     for p in range(p_max + 1)])
