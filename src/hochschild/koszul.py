"""Koszul-style complexes computing Hochschild (co)homology of C[z]/<f>.

For a hypersurface algebra A = C[z1..zn]/<f> the Hochschild cochain
complex is quasi-isomorphic to a complex of finite free A-modules built
on one even generator b1 and odd generators eta_1..eta_n; the chain
complex is the dual picture on a1 and xi_1..xi_n (Buenos Aires Cyclic
Homology Group, Hochschild and cyclic homology of hypersurfaces,
Adv. Math. 95, 1992).  Both are generated from one rule:

* Layout.  Module p has one component even^m * odd_S for every subset
  S of 1..n with |S| = j, j = p (mod 2), j <= min(n, p), and
  m = (p - j)/2, listed by j, then by S.  S is written as an increasing
  tuple, listed in lexicographic order: the exterior-algebra basis.
* Cochain differential, degree p -> p+1: right contraction with grad f,
  raising the power of b1,
      b1^m eta_S -> sum_k (-1)^(j-k) d_{S_k} f  b1^(m+1) eta_{S minus S_k}.
* Chain differential, degree p -> p-1: m * (df ^ .), lowering the power
  of a1,
      a1^m xi_S -> m * sum_{i not in S} d_i f  a1^(m-1) xi_i xi_S.
* Signs.  An odd tuple produced by either rule is rewritten as the basis
  tuple of its set, times the parity of the permutation between them.
* Shifts (internal weights, for f of weights w and degree d): on the
  cochain side eta_i carries d - w_i and b1 carries 0; on the chain side
  xi_i carries w_i and a1 carries d.  Every differential then preserves
  the grading.

Every differential entry is an integer multiple of a partial derivative
of f.  Modules are listed by homological degree 0..p_max.  For the
cochain complex diffs[p] maps modules[p] to modules[p+1]; for the chain
complex diffs[p] maps modules[p+1] to modules[p].

d^2 = 0 verification.  `verify_entries` decodes every entry as k * d_i f;
`verify_d_squared_zero` then checks each composite of consecutive
differentials on those terms: in every composite entry, the integer
coefficient of each product d_i f * d_j f (i <= j) must cancel.  That is
formal cancellation, so it implies the composite vanishes in C[z].
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .grading import WeightSystem
from .poly import Polynomial, exact_quotient


class BasisElement(NamedTuple):
    power: int        # exponent of the even generator (b1 or a1)
    odd: tuple        # odd indices, increasing


class FreeModule(NamedTuple):
    elements: tuple   # BasisElement per component
    shifts: tuple     # internal weight of each component, or None


class KoszulComplex:
    def __init__(self, direction: str, f: Polynomial, modules, diffs):
        if direction not in ("cochain", "chain"):
            raise ValueError("direction must be cochain or chain")
        self.direction = direction
        self.f = f
        self.n = f.n
        self.modules = list(modules)
        self.diffs = list(diffs)
        self.weights: WeightSystem | None = None

    def ends(self, k: int) -> tuple:
        """(source, target) homological degrees of diffs[k]."""
        return (k, k + 1) if self.direction == "cochain" else (k + 1, k)

    def verify_entries(self) -> list:
        """Every nonzero entry must be an integer multiple k * d_i f.

        Returns what was verified: for each differential, one tuple per
        column of (row, i, k) terms, one term per nonzero entry.
        """
        grad = self.f.gradient()
        out = []
        for mat in self.diffs:
            columns = [[] for _ in mat[0]]
            for r, row in enumerate(mat):
                for c, entry in enumerate(row):
                    if entry.is_zero():
                        continue
                    for i, g in enumerate(grad, 1):
                        k = _integer_ratio(entry, g)
                        if k:
                            columns[c].append((r, i, k))
                            break
                    else:
                        raise AssertionError(
                            "entry %r is not an integer multiple of a "
                            "partial derivative" % (entry,))
            out.append(tuple(map(tuple, columns)))
        return out

    def verify_d_squared_zero(self, terms) -> None:
        """Consecutive composites vanish: in every entry of every
        composite, the coefficients of each product d_i f * d_j f
        (i <= j) sum to 0.  terms are the (row, i, k) columns
        `verify_entries` returned for this complex."""
        for p in range(len(terms) - 1):
            if self.direction == "cochain":
                second, first = terms[p + 1], terms[p]
            else:
                second, first = terms[p], terms[p + 1]
            for column in first:
                acc: dict = {}
                for mid, j, k1 in column:
                    for r, i, k2 in second[mid]:
                        key = (r, i, j) if i <= j else (r, j, i)
                        acc[key] = acc.get(key, 0) + k1 * k2
                if any(acc.values()):
                    raise AssertionError(
                        "d o d != 0 between degrees %d and %d" % (p, p + 2))

    def assign_weights(self, ws: WeightSystem) -> None:
        """Attach internal weights by the shift rule (see `shift`).
        Entry weights are validated against the shifts."""
        new_modules = [FreeModule(m.elements,
                                  tuple(shift(self.direction, ws, e)
                                        for e in m.elements))
                       for m in self.modules]
        w = ws.weights
        # validate: entry at (r, c) must be homogeneous of weight
        # shift_domain[c] - shift_codomain[r]
        for p, mat in enumerate(self.diffs):
            src, tgt = self.ends(p)
            dom, cod = new_modules[src], new_modules[tgt]
            for r, row in enumerate(mat):
                for c, entry in enumerate(row):
                    if entry.is_zero():
                        continue
                    expected = dom.shifts[c] - cod.shifts[r]
                    degs = entry.weighted_degrees(w)
                    if degs != {expected}:
                        raise AssertionError(
                            "entry (%d,%d) of differential %d has weight %s, "
                            "expected %d" % (r, c, p, degs, expected))
        self.modules = new_modules
        self.weights = ws


def _integer_ratio(entry: Polynomial, g: Polynomial) -> int:
    """k when entry == k * g for a nonzero integer k, else 0."""
    if set(entry.terms) != set(g.terms):
        return 0
    any_exp = next(iter(entry.terms))
    ratio = exact_quotient(entry.terms[any_exp], g.terms[any_exp])
    if type(ratio) is not int or entry != ratio * g:
        return 0
    return ratio


def _check_variables(n: int) -> None:
    if n not in (1, 2, 3):
        raise ValueError("only 1 to 3 variables supported")


def module(n: int, p: int) -> tuple:
    """Basis elements of homological degree p, in either direction."""
    _check_variables(n)
    return tuple(BasisElement((p - j) // 2, odd)
                 for j in range(p % 2, min(n, p) + 1, 2)
                 for odd in combinations(range(1, n + 1), j))


def shift(direction: str, ws: WeightSystem, elem: BasisElement) -> int:
    """Internal weight of a basis element of the given direction."""
    d, w = ws.degree, ws.weights
    if direction == "cochain":
        return sum(d - w[i - 1] for i in elem.odd)
    return elem.power * d + sum(w[i - 1] for i in elem.odd)


def _parity_sign(odd: tuple, basis_odd: tuple) -> int:
    perm = [basis_odd.index(i) for i in odd]
    inversions = sum(a > b for a, b in combinations(perm, 2))
    return -1 if inversions % 2 else 1


def _images(direction: str, n: int, elem: BasisElement):
    """d(elem) as (coefficient, partial index, power, odd tuple) terms,
    the odd tuple not yet rewritten in the basis orientation."""
    m, odd = elem
    if direction == "cochain":
        j = len(odd)
        for k, i in enumerate(odd):
            yield (-1) ** (j - 1 - k), i, m + 1, odd[:k] + odd[k + 1:]
    elif m:
        for i in range(1, n + 1):
            if i not in odd:
                yield m, i, m - 1, (i,) + odd


def _differential(direction: str, grad, source: tuple, target: tuple):
    """Matrix of d from source to target: one row per target element."""
    n = len(grad)
    row_of = {(e.power, frozenset(e.odd)): (r, e.odd)
              for r, e in enumerate(target)}
    mat = [[Polynomial.zero(n)] * len(source) for _ in target]
    for c, elem in enumerate(source):
        for coeff, i, power, odd in _images(direction, n, elem):
            r, basis_odd = row_of[(power, frozenset(odd))]
            mat[r][c] = coeff * _parity_sign(odd, basis_odd) * grad[i - 1]
    return mat


def _build(direction: str, f: Polynomial, p_max: int) -> KoszulComplex:
    _check_variables(f.n)
    grad = f.gradient()
    layout = [module(f.n, p) for p in range(p_max + 1)]
    diffs = []
    for lower, upper in zip(layout, layout[1:]):
        source, target = ((lower, upper) if direction == "cochain"
                          else (upper, lower))
        diffs.append(_differential(direction, grad, source, target))
    return KoszulComplex(direction, f, [FreeModule(e, None) for e in layout],
                         diffs)


def cochain_complex(f: Polynomial, p_max: int) -> KoszulComplex:
    return _build("cochain", f, p_max)


def chain_complex(f: Polynomial, p_max: int) -> KoszulComplex:
    return _build("chain", f, p_max)
