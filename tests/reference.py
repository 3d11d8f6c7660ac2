"""Reference code the tests share: slow, plain versions of what the
package computes, and checks that only the tests run."""

from __future__ import annotations

from hochschild.engine import PreconditionError
from hochschild.poly import Polynomial, exact_quotient, monomial_div


def monomial_lcm(a, b) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial of f and g: both scaled to the lcm of their
    leading monomials with leading coefficient 1, then subtracted."""
    fc, fe = f.leading_term()
    gc, ge = g.leading_term()
    lcm = monomial_lcm(fe, ge)
    mf = Polynomial.monomial(f.n, monomial_div(lcm, fe),
                             exact_quotient(1, fc))
    mg = Polynomial.monomial(g.n, monomial_div(lcm, ge),
                             exact_quotient(1, gc))
    return mf * f - mg * g


def exponents_of_weight(weights, s: int) -> list:
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


def verify_infinite_part(degree, an, free_shift: int) -> bool:
    """Check an oracle scan of an A-plus-finite degree: the excess of
    each slice over dim A at the shifted weight must be nonnegative,
    must sum to the recorded finite dimension, and must vanish on the
    top quarter of the window."""
    if degree.oracle_graded is None:
        raise PreconditionError("no oracle data recorded")
    lo, hi = degree.window
    total = 0
    quarter = hi - (hi - lo) // 4
    for s in range(lo, hi + 1):
        excess = degree.oracle_graded.get(s, 0) - an.A.dim(s - free_shift)
        if excess < 0:
            return False
        if excess and s > quarter:
            return False
        total += excess
    return total == (degree.finite_dim or 0)
