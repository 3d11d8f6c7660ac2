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
sorted by row.  A term whose d_i f is 0 is an exact zero entry and is
never built, so a column holds the nonzero entries only.  Modules are
listed by homological degree 0..p_max.  For the cochain complex
diffs[p] maps modules[p] to modules[p+1]; for the chain complex diffs[p]
maps modules[p+1] to modules[p].

d^2 = 0 verification.  `verify_entries` checks the shape of every term;
`verify_d_squared_zero` then checks each composite of consecutive
differentials on those terms: in every composite entry, the integer
coefficient of each product d_i f * d_j f (i <= j) must cancel.  That is
formal cancellation, so it implies the composite vanishes in C[z].
Every complex is built and checked in full; nothing is kept between
complexes.
"""

from __future__ import annotations

from itertools import combinations
from operator import mul
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
        Returns the differentials, checked."""
        for p, columns in enumerate(self.diffs):
            height = len(self.modules[self.ends(p)[1]].elements)
            flat = [t for column in columns for t in column]
            if flat:
                rows, idx, ks = zip(*flat)
                if (set(map(type, ks)) != {int} or 0 in ks
                        or min(idx) < 1 or max(idx) > self.n
                        or min(rows) < 0 or max(rows) >= height
                        or any(a[0] >= b[0] for column in columns
                               for a, b in zip(column, column[1:]))):
                    raise AssertionError("differential %d: malformed "
                                         "columns %r" % (p, columns))
        return self.diffs

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
        shifts: d_i f must have weight shift_dom[c] - shift_cod[row].
        The weights of d_i f are w.e - w_i over the terms z^e of f with
        e_i > 0: e -> e - (unit i) is injective, so none cancel."""
        # a shift is additive over generators: the even generator's
        # weight times the power, plus the odd set's, read once per set
        even = shift(self.direction, ws, BasisElement(1, ()))
        odd = {s: shift(self.direction, ws, BasisElement(0, s))
               for j in range(self.n + 1)
               for s in combinations(range(1, self.n + 1), j)}
        new_modules = [FreeModule(m.elements, tuple([even * power + odd[s]
                                                     for power, s in
                                                     m.elements]))
                       for m in self.modules]
        w = ws.weights
        degs = [{sum(map(mul, w, e)) - w[i] for e in self.f.terms if e[i]}
                for i in range(self.n)]
        for p, columns in enumerate(self.diffs):
            src, tgt = self.ends(p)
            dom, cod = new_modules[src].shifts, new_modules[tgt].shifts
            for c, column in enumerate(columns):
                for r, i, k in column:
                    expected = dom[c] - cod[r]
                    if degs[i - 1] != {expected}:
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


def _differential(direction: str, n: int, source: tuple, target: tuple,
                  zero: set) -> tuple:
    """d from source to target: one column per source element, each a
    tuple of (row, i, k) terms sorted by row, standing for the entry
    k * d_i f, with no term for an i in `zero`, where d_i f is 0."""
    row_of = {e: r for r, e in enumerate(target)}
    columns = []
    for m, odd in source:
        if direction == "cochain":
            j = len(odd)
            terms = [(row_of[m + 1, odd[:k] + odd[k + 1:]], i,
                      (-1) ** (j - 1 - k))
                     for k, i in enumerate(odd) if i not in zero]
        else:
            terms = [(row_of[m - 1, tuple(sorted(odd + (i,)))], i,
                      (-1) ** sum(x < i for x in odd) * m)
                     for i in range(1, n + 1)
                     if m and i not in odd and i not in zero]
        columns.append(tuple(sorted(terms)))
    return tuple(columns)


def _build(direction: str, f: Polynomial, p_max: int) -> KoszulComplex:
    _check_variables(f.n)
    zero = {i for i in range(1, f.n + 1) if not any(e[i - 1] for e in f.terms)}
    layout = [module(f.n, p) for p in range(p_max + 1)]
    diffs = []
    for lower, upper in zip(layout, layout[1:]):
        source, target = ((lower, upper) if direction == "cochain"
                          else (upper, lower))
        diffs.append(_differential(direction, f.n, source, target, zero))
    return KoszulComplex(direction, f, [FreeModule(e, None) for e in layout],
                         diffs)


def cochain_complex(f: Polynomial, p_max: int) -> KoszulComplex:
    return _build("cochain", f, p_max)


def chain_complex(f: Polynomial, p_max: int) -> KoszulComplex:
    return _build("chain", f, p_max)
