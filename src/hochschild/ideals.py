"""Groebner bases and ideal arithmetic in C[z1..zn].

Everything runs over exact rationals, and every basis is lex with
z1 > z2 > ... > zn, the order Python gives exponent tuples.  Buchberger
uses the normal pair selection strategy plus the coprime-leading-term
and chain criteria, and stops at the minimal monic basis, whose leading
monomials and remainders are those of any Groebner basis of the ideal
(Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, 2.6).  The
reduced basis is built when `elements` is first read; two ideals are
equal exactly when those coincide element for element.  Each pair is
pushed once onto a heap keyed by the degree of its lcm, ties broken by
the lcm itself; a set of the queued pairs serves the chain criterion.
The selection order cannot change the output: both bases are unique.

Buchberger is bounded by the size of its coefficients, not by its
number of pairs: a basis element, minimal or reduced, whose coefficient
has a numerator or denominator of more than `MAX_COEFFICIENT_BITS` bits
raises `CoefficientLimitError`.  A few trinomials in three variables
reach thousands of bits within a second while only some dozens of
pairs are reduced.

Reduction (`_reduce`) is the reduction routine of Buchberger,
`GroebnerBasis.normal_form` and the interreduction of the reduced
basis.  It works in place on one dict of terms: it pops the leading
term and adds the scaled tail of the first divisor whose leading
monomial divides it; the leading monomials cancel exactly, so no
polynomial temporaries are built, and a chain of thousands of steps
needs no recursion.  The graded oracle does not call it: it reduces by
f alone, over a frontier of exponent offsets
(`engine.Analysis._reduce_maps`).  `divide` keeps the textbook loop
with quotients and is the reference for it.

Every walk over standard monomials (`_runs`) is bounded: one that
would pass `MAX_STANDARD_MONOMIALS` raises `WalkLimitError` before it
builds a single standard monomial, and it holds at most one frame per
coordinate.

Intersections go through the usual auxiliary-variable trick: the new
variable t comes first, so lex eliminates it; colon ideals divide an
intersection through by the denominator.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import add, le, sub
from typing import NamedTuple, Sequence

from .poly import (
    Polynomial,
    exact_quotient,
    int_or_fraction,
    monomial_div,
    monomial_divides,
    monomial_mul,
    trusted_polynomial,
)


class _Infinite:
    """Sentinel for infinite-dimensional quotients."""

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


class DivisionResult(NamedTuple):
    quotients: tuple
    remainder: Polynomial


def divide(p: Polynomial, divisors: Sequence[Polynomial]) -> DivisionResult:
    """Multivariate division; ties go to the first listed divisor.

    Invariant: p == sum(q_i * divisors_i) + remainder, and no remainder
    monomial is divisible by any divisor leading monomial.
    """
    n = p.n
    quotients = [Polynomial.zero(n) for _ in divisors]
    remainder = Polynomial.zero(n)
    lts = [g.leading_term() for g in divisors]
    work = p
    while not work.is_zero():
        c, exps = work.leading_term()
        for i, (gc, gexps) in enumerate(lts):
            if monomial_divides(gexps, exps):
                factor = Polynomial.monomial(n, monomial_div(exps, gexps),
                                            exact_quotient(c, gc))
                quotients[i] = quotients[i] + factor
                work = work - factor * divisors[i]
                break
        else:
            mono = Polynomial.monomial(n, exps, c)
            remainder = remainder + mono
            work = work - mono
    return DivisionResult(tuple(quotients), remainder)


# A basis element's coefficients are refused past this many bits in a
# numerator or denominator: 3,011 digits, under the 4,300 digits Python
# converts between int and str.  No pinned input passes 25 bits.
MAX_COEFFICIENT_BITS = 10_000


class CoefficientLimitError(ValueError):
    """A Groebner basis element would carry a coefficient past
    MAX_COEFFICIENT_BITS."""


def _bounded(terms) -> None:
    """Raise `CoefficientLimitError` if a numerator or denominator of a
    coefficient among `terms`, a collection of (exponents, coefficient)
    pairs, has more than MAX_COEFFICIENT_BITS bits.  An int is measured
    as it is; only a Fraction's numerator and denominator are read."""
    limit = MAX_COEFFICIENT_BITS
    for _, c in terms:
        if type(c) is int:
            if c.bit_length() <= limit:
                continue
        elif c.numerator.bit_length() <= limit \
                and c.denominator.bit_length() <= limit:
            continue
        top = max(max(abs(v.numerator), v.denominator) for _, v in terms)
        raise CoefficientLimitError(
            "a Groebner basis element has a coefficient of %d bits, above "
            "the limit of %d" % (top.bit_length(), limit))


def _divisor(terms: dict) -> tuple:
    """(leading exponents, tail) of a nonzero polynomial's terms, the
    tail scaled by -1/leading coefficient: subtracting c * z^q times the
    monic divisor adds c * v at z^q * z^e for every tail term (e, v).
    The tail is `_bounded`."""
    lead = max(terms)
    lc = -terms[lead]
    tail = tuple((e, exact_quotient(v, lc))
                 for e, v in terms.items() if e != lead)
    _bounded(tail)
    return lead, tail


def _reduce(terms: dict, divisors) -> dict:
    """Remainder of `terms` on division by `divisors` ((lead, tail)
    pairs from `_divisor`), computed in place on `terms`: pop the
    leading term; if some leading monomial divides it (the first listed
    wins), add its scaled tail, the leading monomials cancelling
    exactly; otherwise move it to the remainder."""
    rem = {}
    while terms:
        exps = max(terms)
        c = terms.pop(exps)
        for lead, tail in divisors:
            if all(map(le, lead, exps)):
                q = tuple(map(sub, exps, lead))
                for e, v in tail:
                    m = tuple(map(add, e, q))
                    x = terms.get(m, 0) + c * v
                    if x:
                        terms[m] = x
                    else:
                        del terms[m]
                break
        else:
            rem[exps] = int_or_fraction(c)
    return rem


class GroebnerBasis:
    """Monic lex Groebner basis by descending leading monomial, held
    minimal in `_divisors`; `elements`, the reduced basis, reduces each
    tail by the other divisors when first read."""

    __slots__ = ("_divisors", "_elements")

    def __init__(self, elements: Sequence[Polynomial]):
        self._elements = tuple(elements)
        self._divisors = tuple(_divisor(g.terms) for g in self._elements)

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            ds = self._divisors
            reduced = []
            for i, (lead, tail) in enumerate(ds):
                terms = _reduce({e: -v for e, v in tail}, ds[:i] + ds[i + 1:])
                _bounded(terms.items())
                terms[lead] = 1
                reduced.append(trusted_polynomial(len(lead), terms))
            self._elements = tuple(reduced)
        return self._elements

    def leading_exponents(self):
        return tuple(lead for lead, _ in self._divisors)

    def normal_form(self, p: Polynomial) -> Polynomial:
        return trusted_polynomial(p.n, _reduce(dict(p.terms), self._divisors))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return isinstance(other, GroebnerBasis) and self.elements == other.elements

    def __repr__(self):
        return "GroebnerBasis([%s])" % ", ".join(g.to_str() for g in self.elements)


def buchberger(generators: Sequence[Polynomial]) -> GroebnerBasis:
    basis = [_divisor(g.terms) for g in generators if not g.is_zero()]
    if not basis:
        return GroebnerBasis(())
    queue: list = []    # (sum(lcm), lcm, i, j), each pair once
    live: set = set()   # pairs (i, j), i > j, still queued

    def push(i):
        ei = basis[i][0]
        for j in range(i):
            lcm = tuple(map(max, ei, basis[j][0]))
            heappush(queue, (sum(lcm), lcm, i, j))
            live.add((i, j))

    for i in range(len(basis)):
        push(i)
    while queue:
        _, lcm, i, j = heappop(queue)
        live.discard((i, j))
        ei, ej = basis[i][0], basis[j][0]
        # coprime criterion: disjoint leading monomials reduce to zero
        if lcm == monomial_mul(ei, ej):
            continue
        # chain criterion: some k with lt_k | lcm and both mixed pairs done
        if any(k != i and k != j and all(map(le, basis[k][0], lcm))
               and (max(i, k), min(i, k)) not in live
               and (max(j, k), min(j, k)) not in live
               for k in range(len(basis))):
            continue
        # S-polynomial of the monic pair: the leading terms cancel, so it
        # is the difference of the two shifted tails
        spoly: dict = {}
        for (lead, tail), sign in ((basis[i], -1), (basis[j], 1)):
            q = tuple(map(sub, lcm, lead))
            for e, v in tail:
                m = tuple(map(add, e, q))
                x = spoly.get(m, 0) + sign * v
                if x:
                    spoly[m] = x
                else:
                    del spoly[m]
        rem = _reduce(spoly, basis)
        if rem:
            basis.append(_divisor(rem))
            push(len(basis) - 1)

    # minimalize: process by ascending leading monomial so any proper
    # divisor is already kept; drop duplicates and divisible leads
    basis.sort(key=lambda g: g[0])
    minimal: list = []
    for g in basis:
        if not any(all(map(le, h[0], g[0])) for h in minimal):
            minimal.append(g)
    gb = GroebnerBasis(())
    gb._divisors, gb._elements = tuple(reversed(minimal)), None
    return gb


# At most this many standard monomials are walked.  A walk of 10^6 took
# 0.9 s and 100 MB of exponent tuples with three variables, 2.6 s and
# 285 MB with two, so this stays under 800 MB.
MAX_STANDARD_MONOMIALS = 2_000_000


class WalkLimitError(ValueError):
    """A standard-monomial walk would pass MAX_STANDARD_MONOMIALS."""


def _runs(lead, weights, top: int) -> list:
    """The monomials outside the monomial ideal generated by `lead`
    whose weight under the positive `weights` is at most `top`, as one
    (prefix, weight of prefix, length) per run prefix + (e,), e below
    length, of the last coordinate, in ascending lex order.  Empty when
    `lead` holds 1 or `top` is negative.

    The walk (`_walk`) fixes one exponent at a time and visits only the
    staircase.  Coordinate i stops at a cap: the least i-th exponent
    among the leading monomials whose last nonzero exponent is the i-th
    and whose earlier exponents divide the prefix, since from there on
    every tuple is divisible.  A leading monomial ending earlier cannot
    divide the prefix, or it would have capped an earlier coordinate.
    A coordinate also stops where the weight would pass `top`.

    A run's length is known from its cap: the walk raises
    `WalkLimitError` once the runs hold more than MAX_STANDARD_MONOMIALS
    monomials, and as each holds one or more, the list is bounded too.
    """
    runs = []
    if top < 0 or any(not any(m) for m in lead):
        return runs
    ending = [[] for _ in weights]
    for m in lead:
        ending[max(j for j, e in enumerate(m) if e)].append(m)
    _walk((), 0, ending, weights, top, runs, 0)
    return runs


def _walk(prefix, weight, ending, weights, top, runs, count) -> int:
    """Append the runs that extend `prefix`, of weight `weight`, and
    return `count` plus their monomials: one frame per coordinate, and
    no reference cycle, which a recursive closure would make and `hh`,
    run with the cyclic collector paused, would keep until it ends."""
    i = len(prefix)
    w = weights[i]
    stop = (top - weight) // w + 1
    for m in ending[i]:
        if m[i] < stop and all(map(le, m, prefix)):
            stop = m[i]
    if i < len(weights) - 1:
        for e in range(stop):
            count = _walk(prefix + (e,), weight + e * w, ending, weights,
                          top, runs, count)
        return count
    count += stop
    if count > MAX_STANDARD_MONOMIALS:
        raise WalkLimitError(
            "the standard monomials of weight at most %d number at least "
            "%d, above the limit of %d" % (top, count, MAX_STANDARD_MONOMIALS))
    runs.append((prefix, weight, stop))
    return count


def staircase(lead: Sequence[tuple], weights: Sequence[int],
              top: int) -> dict:
    """The monomials of `_runs` as {weight: [exponent tuples]}, each
    list in strictly ascending lex order, as `GradedQuotient` needs,
    with no sort: a run adds at most one monomial to any weight."""
    buckets: dict = {}
    w = weights[-1]
    for prefix, weight, stop in _runs(lead, weights, top):
        for e in range(stop):
            buckets.setdefault(weight + e * w, []).append(prefix + (e,))
    return buckets


def standard_monomials(gb: GroebnerBasis, n: int) -> tuple | None:
    """Monomials outside the leading-term ideal (Macaulay basis), in
    the ascending lex order of one `_runs` walk; None when infinite.

    Finite exactly when every variable has a pure power among the
    leading monomials (1 counts as one of every variable).  No standard
    monomial reaches the least pure power z_i^(k_i) of any variable, so
    there are at most prod k_i of them; above MAX_STANDARD_MONOMIALS
    the walk is refused with `WalkLimitError` before it starts.
    """
    lead = gb.leading_exponents()
    box = 1
    for i in range(n):
        powers = [m[i] for m in lead if m[i] == sum(m)]
        if not powers:
            return None
        box *= min(powers)
    if box > MAX_STANDARD_MONOMIALS:
        raise WalkLimitError(
            "the standard monomial basis may hold up to %d monomials, "
            "above the limit of %d" % (box, MAX_STANDARD_MONOMIALS))
    # each standard monomial has degree below sum_i max_m m_i
    return tuple(prefix + (e,) for prefix, _, stop
                 in _runs(lead, (1,) * n, sum(map(max, zip(*lead))))
                 for e in range(stop))


def quotient_dimension(generators: Sequence[Polynomial]):
    """dim_C C[z]/<generators>, or INFINITE."""
    if not generators:
        return INFINITE
    std = standard_monomials(buchberger(generators), generators[0].n)
    return INFINITE if std is None else len(std)


def milnor_number(f: Polynomial):
    """dim_C C[z]/<grad f>, or INFINITE for non-isolated singularities."""
    grad = [g for g in f.gradient() if not g.is_zero()]
    if not grad:
        raise ValueError("gradient vanishes identically")
    return quotient_dimension(grad)


def _embed_with_t(p: Polynomial) -> Polynomial:
    return Polynomial(p.n + 1, {(0,) + exps: c for exps, c in p.terms.items()})


def ideal_intersection(gens_a: Sequence[Polynomial],
                       gens_b: Sequence[Polynomial]) -> tuple:
    """Generators of <gens_a> ∩ <gens_b>.

    Standard elimination: in C[t, z] form t*a_i and (1-t)*b_j, take a
    lex Groebner basis, t first so that it dominates every z_i, and
    keep the elements free of t.
    """
    if not gens_a or not gens_b:
        return ()
    n = gens_a[0].n
    t = Polynomial.variable(n + 1, 1)
    ext = [t * _embed_with_t(g) for g in gens_a]
    ext += [(Polynomial.one(n + 1) - t) * _embed_with_t(g) for g in gens_b]
    return tuple(Polynomial(n, {exps[1:]: c for exps, c in g.terms.items()})
                 for g in buchberger(ext)
                 if all(exps[0] == 0 for exps in g.terms))


def exact_divide(p: Polynomial, g: Polynomial) -> Polynomial:
    """p / g when g divides p exactly; error otherwise."""
    quotients, remainder = divide(p, [g])
    if not remainder.is_zero():
        raise ValueError("not an exact division")
    return quotients[0]


def colon_ideal(gens: Sequence[Polynomial], g: Polynomial) -> tuple:
    """Generators of (<gens> : g) = (<gens> ∩ <g>) / g."""
    if g.is_zero():
        raise ValueError("colon by zero")
    meet = ideal_intersection(gens, [g])
    return tuple(exact_divide(h, g) for h in meet)
