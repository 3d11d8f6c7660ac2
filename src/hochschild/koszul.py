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
      b1^m eta_S -> sum_k (-1)^(j-k) d_{S_k} f  b1^(m+1) eta_{S minus S_k},
  k = 1..j.  S minus S_k is still increasing, so that is the sign.
* Chain differential, degree p -> p-1: m * (df ^ .), lowering the power
  of a1,
      a1^m xi_S -> m * sum_{i not in S} (-1)^#{x in S : x < i} d_i f
                   a1^(m-1) xi_{S plus i},
  the sign being that of moving xi_i in front of xi_S to its place.
* Shifts (internal weights, for f of weights w and degree d): on the
  cochain side eta_i carries d - w_i and b1 carries 0; on the chain side
  xi_i carries w_i and a1 carries d.  Every differential then preserves
  the grading.  `lowest_shift` gives a degree's least shift in closed
  form, without listing its module.

Every differential entry is an integer multiple k * d_i f of a partial
derivative of f, and that is how it is stored: a differential is a tuple
of columns, one per source component, each a tuple of (row, i, k) terms
sorted by row.  Modules are listed by homological degree 0..p_max.  For
the cochain complex diffs[p] maps modules[p] to modules[p+1]; for the
chain complex diffs[p] maps modules[p+1] to modules[p].

d^2 = 0 verification.  `verify_entries` checks the shape of every term;
`verify_d_squared_zero` then checks each composite of consecutive
differentials on those terms: in every composite entry, the integer
coefficient of each product d_i f * d_j f (i <= j) must cancel.  That is
formal cancellation, so it implies the composite vanishes in C[z].
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .grading import WeightSystem
from .poly import Polynomial


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

    def ends(self, k: int) -> tuple:
        """(source, target) homological degrees of diffs[k]."""
        return (k, k + 1) if self.direction == "cochain" else (k + 1, k)

    def verify_entries(self) -> list:
        """Check every term (row, i, k) of the entry k * d_i f: k a
        nonzero int, 1 <= i <= n, row inside the target, rows strictly
        increasing down a column, so no two terms share an entry
        (`engine.Analysis._block_ranks` assigns entries, not sums).
        Returns each differential's columns without the terms whose
        d_i f is 0."""
        zero = {i for i, g in enumerate(self.f.gradient(), 1) if g.is_zero()}
        out = []
        for p, columns in enumerate(self.diffs):
            height = len(self.modules[self.ends(p)[1]].elements)
            for column in columns:
                rows = [r for r, _, _ in column]
                if any(a >= b for a, b in zip(rows, rows[1:])) or any(
                        type(k) is not int or not k or not 1 <= i <= self.n
                        or not 0 <= r < height for r, i, k in column):
                    raise AssertionError("differential %d: malformed "
                                         "column %r" % (p, column))
            out.append(tuple(tuple(t for t in column if t[1] not in zero)
                             for column in columns))
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
        Each term (row, i, k) of a column c is validated against the
        shifts: a nonzero d_i f must have weight shift_dom[c] -
        shift_cod[row]."""
        new_modules = [FreeModule(m.elements,
                                  tuple(shift(self.direction, ws, e)
                                        for e in m.elements))
                       for m in self.modules]
        degs = [g.weighted_degrees(ws.weights) for g in self.f.gradient()]
        for p, columns in enumerate(self.diffs):
            src, tgt = self.ends(p)
            dom, cod = new_modules[src].shifts, new_modules[tgt].shifts
            for c, column in enumerate(columns):
                for r, i, k in column:
                    expected = dom[c] - cod[r]
                    if degs[i - 1] and degs[i - 1] != {expected}:
                        raise AssertionError(
                            "entry (%d,%d) of differential %d has weight %s, "
                            "expected %d" % (r, c, p, degs[i - 1], expected))
        self.modules = new_modules


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


def lowest_shift(direction: str, ws: WeightSystem, p: int) -> int:
    """min(shift(direction, ws, e) for e in module(n, p)) in closed
    form.  A component with j odd generators, j = p (mod 2) and
    j <= min(n, p), is lowest on the cochain side when its generators
    carry the j largest weights, j * d minus their sum, and on the chain
    side when they carry the j smallest, ((p - j) / 2) * d plus their
    sum."""
    n, d, w = len(ws.weights), ws.degree, sorted(ws.weights)
    _check_variables(n)
    js = range(p % 2, min(n, p) + 1, 2)
    if direction == "cochain":
        return min(j * d - sum(w[n - j:]) for j in js)
    return min((p - j) // 2 * d + sum(w[:j]) for j in js)


def _differential(direction: str, n: int, source: tuple, target: tuple):
    """d from source to target: one column per source element, each a
    tuple of (row, i, k) terms sorted by row, standing for the entry
    k * d_i f."""
    row_of = {e: r for r, e in enumerate(target)}
    columns = []
    for m, odd in source:
        if direction == "cochain":
            j = len(odd)
            terms = [(row_of[m + 1, odd[:k] + odd[k + 1:]], i,
                      (-1) ** (j - 1 - k))
                     for k, i in enumerate(odd)]
        else:
            terms = [(row_of[m - 1, tuple(sorted(odd + (i,)))], i,
                      (-1) ** sum(x < i for x in odd) * m)
                     for i in range(1, n + 1) if m and i not in odd]
        columns.append(tuple(sorted(terms)))
    return tuple(columns)


def _build(direction: str, f: Polynomial, p_max: int) -> KoszulComplex:
    _check_variables(f.n)
    layout = [module(f.n, p) for p in range(p_max + 1)]
    diffs = []
    for lower, upper in zip(layout, layout[1:]):
        source, target = ((lower, upper) if direction == "cochain"
                          else (upper, lower))
        diffs.append(_differential(direction, f.n, source, target))
    return KoszulComplex(direction, f, [FreeModule(e, None) for e in layout],
                         diffs)


def cochain_complex(f: Polynomial, p_max: int) -> KoszulComplex:
    return _build("cochain", f, p_max)


def chain_complex(f: Polynomial, p_max: int) -> KoszulComplex:
    return _build("chain", f, p_max)
