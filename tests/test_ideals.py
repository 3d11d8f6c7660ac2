import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hochschild import ideals
from hochschild.ideals import (
    INFINITE,
    GroebnerBasis,
    StandardMonomials,
    WalkLimitError,
    buchberger,
    colon_ideal,
    divide,
    ideal_intersection,
    milnor_number,
    quotient_dimension,
    standard_monomials,
)
from hochschild.poly import Polynomial, monomial_divides
from reference import s_polynomial


def zvars(n):
    return tuple(Polynomial.variable(n, i) for i in range(1, n + 1))


def _same_ideal(gens_a, gens_b):
    """Equal ideals have equal reduced bases."""
    return buchberger(gens_a) == buchberger(gens_b)


def test_divide_golden():
    z1, z2 = zvars(2)
    result = divide(z1 ** 2 * z2, [z1 ** 2 + 3 * z2 ** 2, z2 ** 3])
    assert result.quotients[0] == z2
    assert result.quotients[1] == Polynomial.constant(2, -3)
    assert result.remainder.is_zero()


def test_divide_first_divisor_wins_ties():
    z1, z2 = zvars(2)
    # both divisors have leading monomial z1
    result = divide(z1, [z1 + z2, z1])
    assert result.quotients[0] == 1
    assert result.remainder == -z2


def test_divide_invariant_reconstruction():
    z1, z2 = zvars(2)
    p = z1 ** 3 * z2 + 2 * z1 * z2 ** 2 - z2
    divisors = [z1 ** 2 - z2, z2 ** 2 - 1]
    q, r = divide(p, divisors)
    recombined = sum((qi * gi for qi, gi in zip(q, divisors)),
                     Polynomial.zero(2)) + r
    assert recombined == p


def test_buchberger_golden():
    z1, z2 = zvars(2)
    gb = buchberger([z1 ** 2 * z2 + z2 ** 3, z1 ** 2 + 3 * z2 ** 2])
    assert [g.to_str() for g in gb] == ["z1^2 + 3*z2^2", "z2^3"]


@pytest.mark.parametrize("k", [4, 5, 6])
def test_d_curve_partial_ideal_golden(k):
    z1, z2 = zvars(2)
    f = z1 ** 2 * z2 + z2 ** (k - 1)
    expected = [z1 ** 2 + (k - 1) * z2 ** (k - 2), z2 ** (k - 1)]
    assert _same_ideal([f, f.diff(2)], expected)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_d_curve_jacobian_golden(k):
    z1, z2 = zvars(2)
    f = z1 ** 2 * z2 + z2 ** (k - 1)
    expected = [z1 ** 2 + (k - 1) * z2 ** (k - 2), z1 * z2, z2 ** (k - 1)]
    assert _same_ideal([f.diff(1), f.diff(2)], expected)


def test_e7_curve_ideals_golden():
    z1, z2 = zvars(2)
    f = z1 ** 3 + z1 * z2 ** 3
    assert _same_ideal([f, f.diff(1)],
                        [3 * z1 ** 2 + z2 ** 3, z1 * z2 ** 3, z2 ** 6])
    assert _same_ideal([f.diff(1), f.diff(2)],
                        [3 * z1 ** 2 + z2 ** 3, z1 * z2 ** 2, z2 ** 5])


@pytest.mark.parametrize("k", [4, 5, 6])
def test_d_surface_ideals_golden(k):
    z1, z2, z3 = zvars(3)
    f = z1 ** 2 + z2 ** 2 * z3 + z3 ** k
    assert _same_ideal(list(f.gradient()),
                        [z3 ** k, z2 * z3, z2 ** 2 + k * z3 ** (k - 1), z1])
    assert _same_ideal([f, f.diff(1), f.diff(3)],
                        [z1, z3 ** k, z2 ** 2 + k * z3 ** (k - 1)])


def test_e7_surface_ideals_golden():
    z1, z2, z3 = zvars(3)
    f = z1 ** 2 + z2 ** 3 + z2 * z3 ** 3
    assert _same_ideal(list(f.gradient()),
                        [z3 ** 5, z2 * z3 ** 2, 3 * z2 ** 2 + z3 ** 3, z1])
    assert _same_ideal([f, f.diff(1), f.diff(2)],
                        [z3 ** 6, z2 * z3 ** 3, 3 * z2 ** 2 + z3 ** 3, z1])


def test_intersection_of_coordinate_ideals():
    z1, z2 = zvars(2)
    meet = ideal_intersection([z1], [z2])
    assert _same_ideal(list(meet), [z1 * z2])


def test_colon_ideal_recovers_cofactor():
    z1, z2 = zvars(2)
    # (<z1*z2> : z2) = <z1>
    quot = colon_ideal([z1 * z2], z2)
    assert _same_ideal(list(quot), [z1])


def test_quotient_dimension_finite_and_infinite():
    z1, z2 = zvars(2)
    assert quotient_dimension([z1 ** 2, z2 ** 3]) == 6
    assert quotient_dimension([z1 ** 2, z1 * z2]) is INFINITE
    assert quotient_dimension([Polynomial.one(2)]) == 0


def test_milnor_golden():
    z1, z2 = zvars(2)
    assert milnor_number(z1 ** 3 + z2 ** 2) == 2
    assert milnor_number(z1 ** 2 * z2) is INFINITE
    with pytest.raises(ValueError):
        milnor_number(Polynomial.constant(2, 3))


def test_standard_monomials_witness():
    z1, z2 = zvars(2)
    gb = buchberger([z1 ** 2, z1 * z2])
    std = standard_monomials(gb, 2)
    assert not std.finite
    assert std.missing_variable == 2


def test_standard_monomials_refuses_a_walk_past_the_limit(monkeypatch):
    # the bound is the product of the least pure-power exponents: 2 * 3
    # for <z1^2, z2^3> (6 monomials), 2 * 4 for <z1^2, z1*z2, z2^4>
    # (only 5), and the walk is refused above the limit, not at it
    monkeypatch.setattr(ideals, "MAX_STANDARD_MONOMIALS", 6)
    z1, z2 = zvars(2)
    assert len(standard_monomials(buchberger([z1 ** 2, z2 ** 3]), 2)
               .monomials) == 6
    with pytest.raises(WalkLimitError, match="up to 8 monomials, above "
                       "the limit of 6"):
        standard_monomials(buchberger([z1 ** 2, z1 * z2, z2 ** 4]), 2)
    # an infinite quotient is reported, not refused
    assert not standard_monomials(buchberger([z1 ** 9]), 2).finite


def test_standard_monomials_limit_fires_before_the_walk():
    huge = buchberger([Polynomial(1, {(10 ** 11,): 1})])
    with pytest.raises(WalkLimitError, match="up to 100000000000 "):
        standard_monomials(huge, 1)


def test_standard_monomials_enumeration():
    z1, z2 = zvars(2)
    gb = buchberger([z1 ** 2 + 3 * z2 ** 2, z1 * z2, z2 ** 3])
    std = standard_monomials(gb, 2)
    assert std.finite
    assert set(std.monomials) == {(0, 0), (1, 0), (0, 1), (0, 2)}


def _box_standard_monomials(gb, n):
    """Reference for `standard_monomials`: every exponent tuple in the
    box below the pure-power bounds, kept when no leading monomial
    divides it."""
    lead = gb.leading_exponents()
    if any(all(e == 0 for e in exps) for exps in lead):
        return StandardMonomials(True, (), None)
    bounds = []
    for i in range(n):
        pure = [exps[i] for exps in lead
                if all(e == 0 for j, e in enumerate(exps) if j != i)]
        if not pure:
            return StandardMonomials(False, None, i + 1)
        bounds.append(min(pure))
    out = []

    def rec(prefix):
        i = len(prefix)
        if i == n:
            exps = tuple(prefix)
            if not any(monomial_divides(m, exps) for m in lead):
                out.append(exps)
            return
        for e in range(bounds[i]):
            rec(prefix + [e])

    rec([])
    out.sort()
    return StandardMonomials(True, tuple(out), None)


def _permuted(exps, priority):
    """exps with its entries read in the order `priority` lists them."""
    return tuple(exps[i] for i in priority)


def _permuted_poly(p, priority):
    return Polynomial(p.n, {_permuted(e, priority): c
                            for e, c in p.terms.items()})


@st.composite
def leading_monomial_bases(draw):
    """A basis whose leading monomials are random exponent tuples, with
    a pure power added for every variable but at most one, their
    variables permuted at random: lex with priority pi is plain lex on
    exponent tuples permuted by pi."""
    n = draw(st.integers(1, 4))
    leads = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=6))
    skip = draw(st.none() | st.integers(0, n - 1))
    for i in range(n):
        if i != skip:
            e = draw(st.integers(1, 5))
            leads.append(tuple(e if j == i else 0 for j in range(n)))
    priority = draw(st.permutations(range(n)))
    return n, GroebnerBasis([Polynomial.monomial(n, _permuted(e, priority))
                             for e in leads])


@settings(max_examples=300, deadline=None)
@given(leading_monomial_bases())
@example((2, GroebnerBasis([Polynomial.one(2)])))
@example((3, GroebnerBasis([Polynomial.monomial(3, e) for e in
                            ((2, 0, 0), (1, 1, 0), (0, 0, 3))])))
def test_staircase_walk_matches_box_walk(case):
    n, gb = case
    assert standard_monomials(gb, n) == _box_standard_monomials(gb, n)


def _random_poly(rng, n, max_deg=6, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg // n) for _ in range(n))
        terms[exps] = Fraction(rng.randint(-5, 5))
    return Polynomial(n, terms)


def test_randomized_division_and_buchberger_invariants():
    rng = random.Random(20260823)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 3)
        p = _random_poly(rng, n)
        gs = [_random_poly(rng, n) for _ in range(2)]
        gs = [g for g in gs if not g.is_zero()]
        if not gs or p.is_zero():
            continue
        q, r = divide(p, gs)
        assert sum((qi * gi for qi, gi in zip(q, gs)),
                   Polynomial.zero(n)) + r == p
        lts = [g.leading_term().exponents for g in gs]
        for exps in r.terms:
            assert not any(all(a <= b for a, b in zip(lt, exps))
                           for lt in lts)
        gb = buchberger(gs)
        for g in gs:
            assert gb.normal_form(g).is_zero()
        for i in range(len(gb.elements)):
            for j in range(i):
                s = s_polynomial(gb.elements[i], gb.elements[j])
                assert gb.normal_form(s).is_zero()
        checked += 1


small_polys = st.lists(
    st.tuples(st.integers(-4, 4).filter(bool),
              st.tuples(st.integers(0, 3), st.integers(0, 3))),
    min_size=1, max_size=4).map(lambda ts: Polynomial.from_terms(2, ts))


@settings(max_examples=30, deadline=None)
@given(small_polys, small_polys)
def test_groebner_membership_of_products(p, q):
    if p.is_zero() or q.is_zero():
        return
    gb = buchberger([p, q])
    assert gb.normal_form(p * q).is_zero()
    assert gb.normal_form(p + q).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.lists(small_polys, min_size=1, max_size=3), small_polys)
def test_normal_form_matches_division_remainder(gens, p):
    # the in-place reduction against the division reference
    gb = buchberger(gens)
    assert gb.normal_form(p) == divide(p, gb.elements).remainder


@settings(max_examples=60, deadline=None)
@given(st.lists(small_polys, min_size=1, max_size=3),
       st.tuples(st.integers(0, 9), st.integers(0, 9)), small_polys,
       st.data())
def test_monomial_normal_form_matches_normal_form(gens, a, p, data):
    # the memoized per-monomial table, and sums of it, against
    # whole-polynomial reduction, the variables of every input permuted
    # at random (lex with priority pi is plain lex on permuted inputs); a
    # second lookup reads the table
    priority = data.draw(st.permutations(range(2)))
    gens = [_permuted_poly(g, priority) for g in gens]
    a = _permuted(a, priority)
    p = _permuted_poly(p, priority)
    gb = buchberger(gens)
    expected = gb.normal_form(Polynomial.monomial(2, a)).terms
    for _ in range(2):
        nf = gb.monomial_normal_form(a)
        assert dict(nf) == expected
        assert all(type(c) is int for _, c in nf
                   if Fraction(c).denominator == 1)
    assert dict(gb.sparse_normal_form(p.terms.items())) == \
        gb.normal_form(p).terms


def test_monomial_normal_form_follows_a_deep_chain():
    # z1^4000 -> -z1^3998 z2^2 -> ... is a 2000-step chain, deeper than
    # Python's recursion limit
    z1, z2 = zvars(2)
    gb = buchberger([z1 ** 2 + z2 ** 2])
    assert gb.monomial_normal_form((4000, 0)) == (((0, 4000), 1),)
    assert gb.monomial_normal_form((4001, 0)) == (((1, 4000), 1),)
    assert gb.monomial_normal_form((4002, 0)) == (((0, 4002), -1),)


@settings(max_examples=30, deadline=None)
@given(st.lists(small_polys, min_size=1, max_size=3), st.data())
def test_buchberger_independent_of_generator_order(gens, data):
    # the reduced basis is unique, whatever order the pairs are met in
    with_duplicates = gens + data.draw(st.lists(st.sampled_from(gens),
                                                max_size=2))
    shuffled = data.draw(st.permutations(with_duplicates))
    assert buchberger(shuffled).elements == \
        buchberger(gens).elements
