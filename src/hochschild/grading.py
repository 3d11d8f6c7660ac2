"""Weighted homogeneity detection and graded dimension counting."""

from __future__ import annotations

from itertools import product
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .ideals import GroebnerBasis, staircase
from .linalg import nullspace
from .poly import Polynomial, exact_quotient


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
    completion with weights up to 40 is returned and flagged; when every
    positive solution needs a larger weight, an exact positive solution
    from the Fourier-Motzkin elimination is scaled to coprime integers
    and flagged instead.  When no solution has degree and weights all
    positive, f is rejected at once, before any search.
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
        ints = _coprime_integers(basis[0])
        if ints[n] < 0:
            ints = [-x for x in ints]
        if any(w <= 0 for w in ints[:n]) or ints[n] <= 0:
            raise NotWeightedHomogeneousError(
                "homogeneity equations force a non-positive weight")
        return WeightSystem(tuple(ints[:n]), ints[n], False)
    point = _positive_point(basis)
    if point is None:
        raise NotWeightedHomogeneousError(
            "no positive weights solve the homogeneity equations")
    # underdetermined: the minimal positive completion with weights up
    # to 40, when there is one, replaces that point
    for bound in range(1, 41):
        candidates = _consistent_weights(exps, n, bound)
        if candidates:
            w, d = min(candidates, key=lambda wd: (sum(wd[0]), wd[0]))
            point = list(w) + [d]
            break
    ints = _coprime_integers(point)
    return WeightSystem(tuple(ints[:n]), ints[n], True)


def _coprime_integers(vec) -> list:
    """A rational vector times the positive factor that makes its
    entries coprime integers."""
    den = lcm(*(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = gcd(*ints)
    return [x // g for x in ints]


def is_weighted_homogeneous(f: Polynomial) -> bool:
    """True when some positive rational weights make f homogeneous of
    positive degree; decided exactly, with no search."""
    if f.is_zero() or f.is_constant():
        return False
    basis = _homogeneity_solutions(f)
    return bool(basis) and _positive_point(basis) is not None


def _homogeneity_solutions(f: Polynomial) -> list:
    """Nullspace basis of sum_i w_i a_i - d = 0 over the exponent
    vectors a of f, as vectors (w_1, ..., w_n, d)."""
    return nullspace([list(a) + [-1] for a in sorted(f.terms)])


def _positive_point(basis):
    """A combination of the basis vectors that is positive in every
    coordinate, or None when there is none.  Fourier-Motzkin
    elimination of the combination's coefficients: each row asks
    coordinate j to be > 0, and eliminating a coefficient adds every
    positive combination of a row that bounds it below with one that
    bounds it above.  Rows left once all are eliminated read 0 > 0.
    Otherwise back-substitution, last coefficient first, picks each
    coefficient strictly between its bounds from the rows of its
    stage, which the later stages guarantee to be consistent."""
    m = len(basis)
    rows = [[vec[j] for vec in basis] for j in range(len(basis[0]))]
    stages = []
    for v in range(m):
        stages.append(rows)
        low = [r for r in rows if r[v] > 0]
        high = [r for r in rows if r[v] < 0]
        rows = [r for r in rows if r[v] == 0]
        rows += [[-b[v] * x + a[v] * y for x, y in zip(a, b)]
                 for a in low for b in high]
    if rows:
        return None
    lam = [0] * m
    for v in reversed(range(m)):
        lower, upper = [], []
        for r in stages[v]:
            if r[v]:
                bound = exact_quotient(
                    -sum(r[u] * lam[u] for u in range(v + 1, m)), r[v])
                (lower if r[v] > 0 else upper).append(bound)
        if lower and upper:
            lam[v] = exact_quotient(max(lower) + min(upper), 2)
        elif lower:
            lam[v] = max(lower) + 1
        elif upper:
            lam[v] = min(upper) - 1
    return [sum(lam[v] * basis[v][j] for v in range(m))
            for j in range(len(basis[0]))]


def _consistent_weights(exps, n, bound):
    """Every (w, d) with f homogeneous of positive degree d, weights in
    1..bound and some weight equal to bound: the ones a search with
    bound - 1 has not tried.  A loop, not a recursive closure, which
    would hold itself in a reference cycle."""
    out = []
    for w in product(range(1, bound + 1), repeat=n):
        if bound not in w:
            continue
        degs = {sum(map(mul, w, a)) for a in exps}
        if len(degs) == 1:
            d = degs.pop()
            if d > 0:
                out.append((w, d))
    return out


def euler_identity_holds(f: Polynomial, ws: WeightSystem) -> bool:
    """Check sum_i w_i z_i d_i f == d * f.  The coefficient of z^a on the
    left is (w . a) c_a, so the identity holds exactly when every
    exponent vector a of f has weight w . a = d."""
    return all(sum(map(mul, ws.weights, a)) == ws.degree for a in f.terms)


class GradedQuotient:
    """Graded bases of C[z]/I from a Groebner basis of I.

    The standard monomials of weight s form a vector space basis of the
    degree-s slice.  `bases[s]` holds them in ascending lex order for
    every s below `len(bases)`, and the position index maps each of
    them to its position there.  A request at or above `len(bases)`
    walks the staircase once, from weight 0 through the request, and
    replaces both.  The walk lists each weight in lex order (see
    `staircase`), so a re-walk gives equal tuples at the lower weights
    and moves no position; a refused walk changes neither.  A caller
    that knows the largest weight it will ask for fills `bases` in one
    walk by asking for that weight first.
    """

    def __init__(self, gb: GroebnerBasis, weights: Sequence[int]):
        self.weights = tuple(weights)
        self.lead = gb.leading_exponents()
        self.bases: list = []       # weight -> standard monomials
        self.position: dict = {}    # standard monomial -> index in basis

    def basis(self, s: int) -> tuple:
        """Standard monomials of weight s, in ascending lex order."""
        if s >= len(self.bases):
            buckets = staircase(self.lead, self.weights, s)
            self.bases = [tuple(buckets.pop(w, ())) for w in range(s + 1)]
            self.position = {}
            for monos in self.bases:
                self.position.update(zip(monos, range(len(monos))))
        return self.bases[s] if s >= 0 else ()
