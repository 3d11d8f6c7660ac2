"""Groebner bases and ideal arithmetic in C[z1..zn].

Everything runs over exact rationals, and every basis is lex with
z1 > z2 > ... > zn, the order Python gives exponent tuples.  Buchberger
uses the normal pair selection strategy plus the coprime-leading-term
and chain criteria, and always returns the reduced monic basis, so two
ideals are equal exactly when their bases coincide element for element.
Each pair is pushed once onto a heap keyed by the degree of its lcm,
ties broken by the lcm itself; a set of the queued pairs serves the
chain criterion.  The selection order cannot change the output,
because the reduced basis is unique.

Reduction (`_reduce`, shared by Buchberger and
`GroebnerBasis.normal_form`) works in place on one dict of terms: it
pops the leading term and adds the scaled tail of the first divisor
whose leading monomial divides it; the leading monomials cancel
exactly, so no polynomial temporaries are built.  `divide` keeps the
textbook loop with quotients and is the reference for it.

`GroebnerBasis.monomial_normal_form` applies the same rule to one
monomial at a time and memoizes each result on the basis, so the
normal forms of many products sharing reduction chains are sums of
table entries.  Normal forms are linear, so summing the table over a
polynomial's terms gives `normal_form`'s remainder.  The graded oracle
reads standard products from its own position index and takes one
reduction step by f itself; it calls `monomial_normal_form` only for
the products that one step leaves non-standard.

Intersections go through the usual auxiliary-variable trick: the new
variable t comes first, so lex eliminates it; colon ideals divide an
intersection through by the denominator.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain
from operator import add, le, sub
from typing import NamedTuple, Sequence

from .poly import (
    Polynomial,
    exact_quotient,
    int_or_fraction,
    monomial_div,
    monomial_divides,
    monomial_mul,
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


def _divisor(terms: dict) -> tuple:
    """(leading exponents, tail) of a nonzero polynomial's terms, the
    tail scaled by -1/leading coefficient: subtracting c * z^q times the
    monic divisor adds c * v at z^q * z^e for every tail term (e, v)."""
    lead = max(terms)
    lc = -terms[lead]
    return lead, tuple((e, exact_quotient(v, lc))
                       for e, v in terms.items() if e != lead)


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


def _polynomial(n: int, terms: dict) -> Polynomial:
    """Wrap a dict of nonzero coefficients, integral ones int, without
    copying."""
    p = Polynomial.__new__(Polynomial)
    p.n = n
    p.terms = terms
    return p


class GroebnerBasis:
    """Reduced monic lex Groebner basis, elements sorted by descending
    leading monomial for deterministic output."""

    __slots__ = ("elements", "_divisors", "_monomial_nfs")

    def __init__(self, elements: Sequence[Polynomial]):
        self.elements = tuple(elements)
        self._divisors = tuple(_divisor(g.terms) for g in self.elements)
        self._monomial_nfs: dict = {}   # exponents -> monomial_normal_form

    def leading_exponents(self):
        return tuple(lead for lead, _ in self._divisors)

    def normal_form(self, p: Polynomial) -> Polynomial:
        return _polynomial(p.n, _reduce(dict(p.terms), self._divisors))

    def monomial_normal_form(self, exps: tuple) -> tuple:
        """normal_form(z^exps) as (exponents, coefficient) pairs, integral
        coefficients stored as int, memoized on this basis.

        z^a is its own normal form when no leading monomial divides it;
        otherwise it is sum v * nf(z^(e + a - lead)) over the scaled tail
        (e, v) of the first element whose leading monomial divides it,
        the rule `_reduce` follows.  Every such monomial is smaller than
        z^a, so the walk ends; it keeps its own stack rather than
        recursing, since a reduction chain may be thousands of steps.
        """
        table = self._monomial_nfs
        hit = table.get(exps)
        if hit is not None:
            return hit
        stack = [exps]
        while stack:
            a = stack[-1]
            if a in table:
                stack.pop()
                continue
            for lead, tail in self._divisors:
                if all(map(le, lead, a)):
                    q = tuple(map(sub, a, lead))
                    terms = [(tuple(map(add, e, q)), v) for e, v in tail]
                    break
            else:
                table[a] = ((a, 1),)
                stack.pop()
                continue
            missing = [m for m, _ in terms if m not in table]
            if missing:
                stack.extend(missing)
                continue
            table[a] = self.sparse_normal_form(terms)
            stack.pop()
        return table[exps]

    def sparse_normal_form(self, terms) -> tuple:
        """normal_form of sum v * z^e over (e, v) pairs, summed from
        `monomial_normal_form` and returned the way it returns one."""
        nf = self.monomial_normal_form
        acc: dict = {}
        for m, v in terms:
            for e, c in nf(m):
                acc[e] = acc.get(e, 0) + v * c
        return tuple((e, int_or_fraction(c)) for e, c in acc.items() if c)

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
    n = generators[0].n
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
    # fully reduce each monic element against the others; its leading
    # monomial is divisible by no other, so it stays with coefficient 1
    reduced = []
    for i, (lead, tail) in enumerate(minimal):
        terms = _reduce({e: -v for e, v in tail},
                        minimal[:i] + minimal[i + 1:])
        terms[lead] = 1
        reduced.append(_polynomial(n, terms))
    reduced.reverse()
    return GroebnerBasis(reduced)


class StandardMonomials(NamedTuple):
    finite: bool
    monomials: tuple | None      # exponent tuples, None when infinite
    missing_variable: int | None  # 1-based witness when infinite


def staircase(lead: Sequence[tuple], weights: Sequence[int],
              top: int) -> dict:
    """The monomials outside the monomial ideal generated by `lead`
    whose weight under the positive `weights` is at most `top`, as
    {weight: [exponent tuples]}.  Empty when `lead` holds 1.

    The walk fixes one exponent at a time and visits only the
    staircase.  Coordinate i stops at a cap: the least i-th exponent
    among the leading monomials whose last nonzero exponent is the i-th
    and whose earlier exponents divide the prefix, since from there on
    every tuple is divisible.  A leading monomial ending earlier cannot
    divide the prefix, or it would have capped an earlier coordinate.
    A coordinate also stops where the weight would pass `top`.
    """
    buckets: dict = {}
    if any(not any(m) for m in lead):
        return buckets
    n = len(weights)
    ending = [[] for _ in range(n)]
    for m in lead:
        ending[max(j for j, e in enumerate(m) if e)].append(m)

    def walk(prefix, weight):
        i = len(prefix)
        w = weights[i]
        stop = (top - weight) // w + 1
        for m in ending[i]:
            if m[i] < stop and all(map(le, m, prefix)):
                stop = m[i]
        if i == n - 1:
            for e in range(stop):
                buckets.setdefault(weight + e * w, []).append(prefix + (e,))
        else:
            for e in range(stop):
                walk(prefix + (e,), weight + e * w)

    walk((), 0)
    return buckets


# At most this many standard monomials are walked.  A walk of 10^6 took
# 0.9 s and 100 MB of exponent tuples with three variables, 2.6 s and
# 285 MB with two, so this stays under 800 MB.
MAX_STANDARD_MONOMIALS = 2_000_000


class WalkLimitError(ValueError):
    """A standard-monomial walk would pass MAX_STANDARD_MONOMIALS."""


def standard_monomials(gb: GroebnerBasis, n: int) -> StandardMonomials:
    """Monomials outside the leading-term ideal (Macaulay basis), from
    one `staircase` walk.

    Finite exactly when every variable has a pure power among the
    leading monomials (1 counts as one of every variable); the first
    variable without one is the witness.  No standard monomial reaches
    the least pure power z_i^(k_i) of any variable, so there are at
    most prod k_i of them; above MAX_STANDARD_MONOMIALS the walk is
    refused with `WalkLimitError` before it starts.
    """
    lead = gb.leading_exponents()
    box = 1
    for i in range(n):
        powers = [m[i] for m in lead if m[i] == sum(m)]
        if not powers:
            return StandardMonomials(False, None, i + 1)
        box *= min(powers)
    if box > MAX_STANDARD_MONOMIALS:
        raise WalkLimitError(
            "the standard monomial basis may hold up to %d monomials, "
            "above the limit of %d" % (box, MAX_STANDARD_MONOMIALS))
    # each standard monomial has degree below sum_i max_m m_i
    buckets = staircase(lead, (1,) * n, sum(map(max, zip(*lead))))
    out = sorted(chain.from_iterable(buckets.values()))
    return StandardMonomials(True, tuple(out), None)


def quotient_dimension(generators: Sequence[Polynomial]):
    """dim_C C[z]/<generators>, or INFINITE."""
    if not generators:
        return INFINITE
    n = generators[0].n
    gb = buchberger(generators)
    if not gb.elements:
        return INFINITE
    std = standard_monomials(gb, n)
    if not std.finite:
        return INFINITE
    return len(std.monomials)


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
    gb = buchberger(ext)
    out = []
    for g in gb:
        if all(exps[0] == 0 for exps in g.terms):
            out.append(Polynomial(n, {exps[1:]: c for exps, c in g.terms.items()}))
    return tuple(out)


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
