"""Reference code the tests share: slow, plain versions of what the
package computes, and checks that only the tests run."""

from __future__ import annotations

from hochschild.engine import PreconditionError
from hochschild.ideals import INFINITE, divide
from hochschild.koszul import module, shift
from hochschild.poly import (
    Polynomial,
    exact_quotient,
    int_or_fraction,
    monomial_div,
    monomial_divides,
)


def polynomial_from_terms(n: int, terms) -> Polynomial:
    """The polynomial in n variables with the sum of the coefficients
    listed for each exponent tuple, from (coefficient, exponents) pairs."""
    acc: dict = {}
    for coeff, exps in terms:
        exps = tuple(exps)
        acc[exps] = acc.get(exps, 0) + coeff
    return Polynomial(n, acc)


def total_degree(p: Polynomial) -> int:
    """The largest total degree among the terms of the nonzero p."""
    return max(map(sum, p.terms))


# Arnold's 14 exceptional unimodal singularities in z1, z2, z3, each
# with its Milnor number, the subscript of its name (Arnold, Gusein-Zade
# and Varchenko, Singularities of Differentiable Maps I, 1985)
ARNOLD_14 = {
    "E12": ("z1^3+z2^7+z3^2", 12),
    "E13": ("z1^3+z1*z2^5+z3^2", 13),
    "E14": ("z1^3+z2^8+z3^2", 14),
    "Z11": ("z1^3*z2+z2^5+z3^2", 11),
    "Z12": ("z1^3*z2+z1*z2^4+z3^2", 12),
    "Z13": ("z1^3*z2+z2^6+z3^2", 13),
    "W12": ("z1^4+z2^5+z3^2", 12),
    "W13": ("z1^4+z1*z2^4+z3^2", 13),
    "Q10": ("z1^3+z2^4+z2*z3^2", 10),
    "Q11": ("z1^3+z2^2*z3+z1*z3^3", 11),
    "Q12": ("z1^3+z2^5+z2*z3^2", 12),
    "S11": ("z1^4+z2^2*z3+z1*z3^2", 11),
    "S12": ("z1^2*z2+z2^2*z3+z1*z3^3", 12),
    "U12": ("z1^3+z2^3+z3^4", 12),
}


def truncated_closed_form(k: int, p: int) -> int:
    """dim HH^p(C[z]/<z^k>) = dim HH_p(C[z]/<z^k>): k in degree 0, k-1
    in every higher degree (and 0 throughout for the smooth case k = 1
    beyond degree 0)."""
    if p == 0:
        return k
    return k - 1


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


def reduce_groebner_basis(basis) -> list:
    """The reduced monic lex Groebner basis of the ideal that the
    Groebner basis `basis` generates, by the textbook route, sharing
    nothing with `ideals` but `divide`: the elements whose leading
    monomial another's divides dropped, the rest made monic, and each
    replaced by its leading monomial plus the remainder of its tail on
    the others; listed by descending leading monomial."""
    minimal = []
    for g in sorted(basis, key=lambda g: g.leading_term().exponents):
        lead = g.leading_term().exponents
        if not any(monomial_divides(h.leading_term().exponents, lead)
                   for h in minimal):
            minimal.append(exact_quotient(1, g.leading_term().coefficient) * g)
    out = []
    for g in reversed(minimal):
        lead = Polynomial.monomial(g.n, g.leading_term().exponents)
        others = [h for h in minimal if h is not g]
        out.append(lead + divide(g - lead, others).remainder)
    return out


def lowest_module_shift(direction: str, ws, p: int) -> int:
    """The least internal weight among the components of degree p in
    the given direction, enumerated over `koszul.module` and
    `koszul.shift`."""
    return min(shift(direction, ws, e) for e in module(len(ws.weights), p))


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
        excess = (degree.oracle_graded.get(s, 0)
                  - len(an.A.basis(s - free_shift)))
        if excess < 0:
            return False
        if excess and s > quarter:
            return False
        total += excess
    return total == (degree.finite_dim or 0)


def prefix_counts(weights, top: int) -> list:
    """The tables N_j of the closed-form position: counts[j][t] is the
    number of monomials of weight t in z_(j+1)..z_n, 0-based j, for t
    in 0..top; counts[n] holds the constant monomial alone."""
    n = len(weights)
    counts = [[0] * (top + 1) for _ in range(n + 1)]
    counts[n][0] = 1
    for j in reversed(range(n)):
        w, row, below = weights[j], counts[j], counts[j + 1]
        for t in range(top + 1):
            row[t] = below[t] + (row[t - w] if t >= w else 0)
    return counts


def lex_below(v, s: int, weights, counts) -> int:
    """L(v, s): the monomials of weight s lex-below the integer vector
    v.  Those that first differ from v at coordinate j, all earlier ones
    equal, count N_j(t) - N_j(t - v_j w_j), with t = s less the weight
    of v's first j entries; no monomial agrees with v past a negative
    entry."""
    def count(j, t):
        return counts[j][t] if t >= 0 else 0

    total, t = 0, s
    for j, (e, w) in enumerate(zip(v, weights)):
        if e < 0:
            break
        total += count(j, t) - count(j, t - e * w)
        t -= e * w
    return total


def closed_form_position(m, lead, weights, degree: int, counts) -> int:
    """The position of the standard monomial m among those of its weight
    s in C[z]/<f>, in ascending lex order, f weighted homogeneous of
    degree `degree` with leading monomial z^lead:
    pos(m) = L(m, s) - L(m - lead, s - degree).  The monomials lex-below
    m that z^lead divides are z^lead * y with y lex-below m - lead, as
    lex order is invariant under translation."""
    s = sum(e * w for e, w in zip(m, weights))
    return (lex_below(m, s, weights, counts)
            - lex_below([e - a for e, a in zip(m, lead)], s - degree,
                        weights, counts))


def degree_payload(deg) -> dict:
    """The JSON payload of one `engine.DegreeReport`."""
    graded = deg.oracle_graded if deg.oracle_graded is not None \
        else deg.expected_graded
    return {
        "p": deg.p,
        "structure": deg.structure,
        "finite_dim": deg.finite_dim,
        "basis": list(deg.basis) if deg.basis is not None else None,
        "graded_dims": [[s, graded[s]] for s in sorted(graded)]
        if graded is not None else None,
        "top_weight": deg.top_weight,
        "window": list(deg.window),
    }


def report_payload(report) -> dict:
    """The JSON payload of an `engine.Report`: `hh cohomology` and `hh
    homology` print `json.dumps(report_payload(report), indent=2)`."""
    degrees = [degree_payload(d) for d in report.degrees]
    out = {
        "f": report.f.to_str(),
        "weights": list(report.weights.weights),
        "degree": report.weights.degree,
        "milnor": "infinite" if report.milnor is INFINITE else report.milnor,
        "cohomology": degrees if report.direction == "cohomology" else None,
        "homology": degrees if report.direction == "homology" else None,
        "crosscheck": report.crosscheck,
    }
    if report.kernel is not None:
        out["kernel_generators"] = [
            {"name": fam.name,
             "vector": [g.to_str() for g in fam.vector],
             "multipliers": fam.cofactor_monomials}
            for fam in report.kernel.families]
        out["kernel_verified"] = report.kernel.verified
    if report.notes:
        out["notes"] = list(report.notes)
    return out


def gauss_jordan_nullspace(rows) -> list:
    """Basis of the right nullspace of a small dense matrix of int or
    Fraction entries, by Gauss-Jordan elimination over the entries as
    given: each pivot row is normalised with `exact_quotient`, one
    vector per free column, 1 there and 0 at the other free columns.
    Entries are ints where integral and Fractions otherwise."""
    if not rows:
        return []
    m = [list(row) for row in rows]
    nrows, ncols = len(m), len(m[0])
    pivot_cols = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [exact_quotient(x, p) for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for row_idx, pc in enumerate(pivot_cols):
            vec[pc] = -int_or_fraction(m[row_idx][fc])
        basis.append(vec)
    return basis
