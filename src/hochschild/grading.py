"""Weighted homogeneity detection and graded dimension counting."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Sequence

from .ideals import GroebnerBasis
from .linalg import nullspace
from .poly import Polynomial, monomial_divides


class NotWeightedHomogeneousError(ValueError):
    pass


class WeightSystem(NamedTuple):
    weights: tuple       # positive integers, one per variable
    degree: int          # common weighted degree of f
    underdetermined: bool


def detect_weights(f: Polynomial) -> WeightSystem:
    """Positive integer weights w with f homogeneous of degree d.

    Solves sum_i w_i a_i = d over the rationals for all exponent vectors
    a of f.  A one-dimensional solution space is scaled to coprime
    positive integers.  If the system is underdetermined (fewer distinct
    exponent relations than unknowns) the minimal positive integer
    completion is returned and flagged.  When no solution has degree
    and weights all positive, f is rejected at once, before that search.
    """
    if f.is_zero() or f.is_constant():
        raise NotWeightedHomogeneousError("no weight system for a constant")
    n = f.n
    exps = sorted(f.terms)
    basis = _homogeneity_solutions(f)
    if not basis:
        raise NotWeightedHomogeneousError("no nonzero weight system solves "
                                          "the homogeneity equations")
    if all(vec[n] == 0 for vec in basis):
        raise NotWeightedHomogeneousError(
            "homogeneity equations force degree 0")
    if len(basis) == 1:
        vec = basis[0]
        denlcm = 1
        for x in vec:
            denlcm = denlcm * x.denominator // gcd(denlcm, x.denominator)
        ints = [int(x * denlcm) for x in vec]
        g = 0
        for x in ints:
            g = gcd(g, x)
        ints = [x // g for x in ints]
        if ints[n] < 0:
            ints = [-x for x in ints]
        if any(w <= 0 for w in ints[:n]) or ints[n] <= 0:
            raise NotWeightedHomogeneousError(
                "homogeneity equations force a non-positive weight")
        return WeightSystem(tuple(ints[:n]), ints[n], False)
    if not _has_positive_solution(basis):
        raise NotWeightedHomogeneousError(
            "no positive weights solve the homogeneity equations")
    # underdetermined: brute-force the minimal positive completion
    best = None
    for bound in range(1, 41):
        candidates = _consistent_weights(exps, n, bound)
        if candidates:
            best = min(candidates, key=lambda wd: (sum(wd[0]), wd[0]))
            break
    if best is None:
        raise NotWeightedHomogeneousError("no small positive weight completion")
    w, d = best
    g = d
    for x in w:
        g = gcd(g, x)
    return WeightSystem(tuple(x // g for x in w), d // g, True)


def is_weighted_homogeneous(f: Polynomial) -> bool:
    """True when some positive rational weights make f homogeneous of
    positive degree; decided exactly, with no search."""
    if f.is_zero() or f.is_constant():
        return False
    basis = _homogeneity_solutions(f)
    return bool(basis) and _has_positive_solution(basis)


def _homogeneity_solutions(f: Polynomial) -> list:
    """Nullspace basis of sum_i w_i a_i - d = 0 over the exponent
    vectors a of f, as vectors (w_1, ..., w_n, d)."""
    return nullspace([[Fraction(e) for e in a] + [Fraction(-1)]
                      for a in sorted(f.terms)])


def _has_positive_solution(basis) -> bool:
    """True when some combination of the basis vectors is positive in
    every coordinate.  Fourier-Motzkin elimination of the combination's
    coefficients: each row asks coordinate j to be > 0, and eliminating
    a coefficient adds every positive combination of a row that bounds
    it below with one that bounds it above.  Rows left once all are
    eliminated read 0 > 0."""
    rows = [[vec[j] for vec in basis] for j in range(len(basis[0]))]
    for v in range(len(basis)):
        low = [r for r in rows if r[v] > 0]
        high = [r for r in rows if r[v] < 0]
        rows = [r for r in rows if r[v] == 0]
        rows += [[-b[v] * x + a[v] * y for x, y in zip(a, b)]
                 for a in low for b in high]
    return not rows


def _consistent_weights(exps, n, bound):
    out = []

    def rec(prefix):
        if len(prefix) == n:
            degs = {sum(wi * e for wi, e in zip(prefix, a)) for a in exps}
            if len(degs) == 1:
                d = degs.pop()
                if d > 0:
                    out.append((tuple(prefix), d))
            return
        for w in range(1, bound + 1):
            rec(prefix + [w])

    rec([])
    return out


def euler_identity_holds(f: Polynomial, ws: WeightSystem) -> bool:
    """Check sum_i w_i z_i d_i f == d * f."""
    n = f.n
    lhs = Polynomial.zero(n)
    for i in range(1, n + 1):
        lhs = lhs + ws.weights[i - 1] * Polynomial.variable(n, i) * f.diff(i)
    return lhs == ws.degree * f


def exponents_of_weight(weights: Sequence[int], s: int) -> list:
    """All exponent tuples with exact weighted degree s."""
    n = len(weights)
    out = []

    def rec(i, prefix, remaining):
        if i == n - 1:
            w = weights[i]
            if remaining % w == 0:
                out.append(tuple(prefix) + (remaining // w,))
            return
        w = weights[i]
        for e in range(remaining // w + 1):
            rec(i + 1, prefix + [e], remaining - w * e)

    if s >= 0:
        rec(0, [], s)
    return out


class GradedQuotient:
    """Graded dimensions of C[z]/I from a Groebner basis of I.

    The standard monomials of exact weight s form a vector space basis
    of the degree-s slice; dim(s) is the Hilbert function value there.
    """

    def __init__(self, gb: GroebnerBasis, weights: Sequence[int]):
        self.gb = gb
        self.weights = tuple(weights)
        self.lead = gb.leading_exponents()
        self._basis_cache: dict = {}

    def basis(self, s: int) -> tuple:
        """Standard monomials of weight s, sorted by the basis order."""
        cached = self._basis_cache.get(s)
        if cached is None:
            lead = self.lead
            cached = tuple(sorted(
                (e for e in exponents_of_weight(self.weights, s)
                 if not any(monomial_divides(le, e) for le in lead)),
                key=self.gb.order.key))
            self._basis_cache[s] = cached
        return cached

    def dim(self, s: int) -> int:
        return len(self.basis(s))


def hilbert_function(gb: GroebnerBasis, weights: Sequence[int], s: int) -> int:
    return GradedQuotient(gb, weights).dim(s)
