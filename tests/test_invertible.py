"""Arnold's 14 exceptional singularities and the invertible polynomials
as a structured test domain.  An invertible polynomial is a
Thom-Sebastiani sum of atoms on disjoint variables (Kreuzer and Skarke,
Comm. Math. Phys. 150, 1992): Fermat z^a, chain z1^a1*z2 + ... + zk^ak
and loop z1^a1*z2 + ... + zk^ak*z1.  mu is checked against the
Milnor-Orlik product prod(d/w_i - 1), and mode both against the
crosscheck each case reads now: the inputs with no elimination route
are pinned as the classifier refuses them."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hochschild import engine
from hochschild.cli import main
from hochschild.parsing import parse_polynomial
from reference import ARNOLD_14, polynomial_from_terms

NO_ROUTE = ("classifier disabled: no valid elimination route: "
            "C[z]/<J'_i, z_i> is infinite-dimensional for every i")

WEDGES = ["grad_wedge_e1", "grad_wedge_e2", "grad_wedge_e3"]
# the kernel families each routed exceptional singularity lists: the
# Brieskorn-Pham sums add the separate-variables fields
KERNEL = {name: WEDGES for name in (
    "E13", "Z11", "Z12", "Z13", "W13", "Q10", "Q11", "Q12", "S11")}
KERNEL.update({name: WEDGES + ["separate_variables"]
               for name in ("E12", "E14", "W12", "U12")})


def _milnor_orlik(ws) -> Fraction:
    return prod(Fraction(ws.degree, w) - 1 for w in ws.weights)


@pytest.mark.parametrize("direction", ["cohomology", "homology"])
@pytest.mark.parametrize("name", sorted(KERNEL))
def test_exceptional_singularity_agrees(name, direction):
    poly, mu = ARNOLD_14[name]
    report = engine.analyze(parse_polynomial(poly), direction, p_max=5,
                            mode="both")
    assert report.milnor == mu == int(name[1:])
    assert mu == _milnor_orlik(report.weights)
    assert report.crosscheck == "agree" and report.notes == []
    if direction == "cohomology":
        assert [fam.name for fam in report.kernel.families] == KERNEL[name]
        assert report.kernel.verified


@pytest.mark.parametrize("direction", ["cohomology", "homology"])
def test_s12_has_no_route(capsys, direction):
    poly, mu = ARNOLD_14["S12"]
    report = engine.analyze(parse_polynomial(poly), direction, p_max=5,
                            mode="both")
    assert report.milnor == mu == 12 == _milnor_orlik(report.weights)
    assert report.crosscheck == "skipped"
    assert report.notes == [NO_ROUTE] and report.kernel is None
    assert main([direction, "--mode", "structural", "--poly", poly]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no valid elimination route" in captured.err


@st.composite
def invertible_polynomials(draw):
    """(f, kinds): a sum of atoms on disjoint variables, at most 3 in
    all, with exponents 2..6, and the kind of each atom in order."""
    n = draw(st.integers(1, 3))
    exps = draw(st.lists(st.integers(2, 6), min_size=n, max_size=n))
    terms, kinds, start = [], [], 0
    while start < n:
        size = draw(st.integers(1, n - start))
        kind = "fermat" if size == 1 else draw(
            st.sampled_from(("chain", "loop")))
        for j in range(start, start + size):
            e = [0] * n
            e[j] = exps[j]
            if j + 1 < start + size:
                e[j + 1] = 1
            elif kind == "loop":
                e[start] = 1
            terms.append((1, e))
        kinds.append(kind)
        start += size
    return polynomial_from_terms(n, terms), kinds


def _case(poly, kinds):
    return parse_polynomial(poly), kinds


@settings(max_examples=120, deadline=None)
@given(invertible_polynomials(), st.sampled_from(["cohomology", "homology"]))
@example(_case("z1^2*z2+z2^3*z1", ["loop"]), "cohomology")
@example(_case("z1^3*z2+z2^2*z3+z3^4*z1", ["loop"]), "homology")
@example(_case("z1^6*z2+z2^5*z1+z3^3", ["loop", "fermat"]), "cohomology")
@example(_case("z1^2+z2^4*z3+z3^3*z2", ["fermat", "loop"]), "homology")
@example(_case("z1^2*z2+z2^3*z3+z3^4", ["chain"]), "cohomology")
def test_invertible_polynomials(case, direction):
    # a loop over all of f's variables has no elimination route, so
    # mode both reads skipped; with a Fermat summand it has one, and
    # every other sum of atoms agrees
    f, kinds = case
    report = engine.analyze(f, direction, p_max=5, mode="both")
    assert report.milnor == _milnor_orlik(report.weights)
    if kinds == ["loop"]:
        assert report.crosscheck == "skipped"
        assert report.notes == [NO_ROUTE]
    else:
        assert report.crosscheck == "agree" and report.notes == []
