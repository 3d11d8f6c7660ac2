from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochschild.poly import Polynomial, monomial_str
from reference import polynomial_from_terms


def z(i, n=2):
    return Polynomial.variable(n, i)


def test_add_cancels_to_zero():
    z1 = z(1)
    assert (z1 ** 2 + (-(z1 ** 2))).is_zero()


def test_multiply_difference_of_squares():
    z1, z2 = z(1), z(2)
    assert (z1 + z2) * (z1 - z2) == z1 ** 2 - z2 ** 2


def test_leading_term_lex():
    z1, z2 = z(1), z(2)
    p = z1 * z2 ** 3 + z1 ** 2 + z2
    coeff, exps = p.leading_term()
    assert coeff == 1 and exps == (2, 0)


def test_zero_has_no_leading_term():
    with pytest.raises(ValueError):
        Polynomial.zero(2).leading_term()


def test_diff_simple():
    z1, z2, z3 = (z(i, 3) for i in (1, 2, 3))
    f = z1 ** 2 + z2 ** 2 * z3 + z3 ** 4
    assert f.diff(1) == 2 * z1
    assert f.diff(3) == z2 ** 2 + 4 * z3 ** 3


def test_diff_kills_constants():
    assert Polynomial.constant(2, Fraction(5, 3)).diff(1).is_zero()


def test_substitute_composes():
    z1, z2 = z(1), z(2)
    f = z1 ** 2 - z2
    x = Polynomial.variable(1, 1)
    assert f.substitute([x, x ** 2]).is_zero()


def test_to_str_round_trip_shapes():
    z1, z2 = z(1), z(2)
    p = -2 * z1 ** 2 * z2 + Fraction(3, 2) * z2 - 1
    assert p.to_str() == "-2*z1^2*z2 + 3/2*z2 - 1"


def test_pow_matches_repeated_multiplication():
    z1, z2 = z(1), z(2)
    p = z1 + 2 * z2
    assert p ** 3 == p * p * p
    assert p ** 0 == Polynomial.one(2)


@pytest.mark.parametrize("k", [0, 1, 7])
@pytest.mark.parametrize("coeff", [1, 3, -2, Fraction(-3, 4)])
def test_pow_of_single_term_matches_repeated_multiplication(coeff, k):
    p = Polynomial.monomial(3, (2, 0, 1), coeff)
    expected = Polynomial.one(3)
    for _ in range(k):
        expected = expected * p
    power = p ** k
    assert power == expected
    assert all(type(c) is (int if c.denominator == 1 else Fraction)
               for c in power.terms.values())


def test_pow_of_zero_and_negative_exponent():
    zero = Polynomial.zero(2)
    assert zero ** 0 == Polynomial.one(2)
    assert (zero ** 3).is_zero()
    for p in (zero, z(1), z(1) + z(2)):
        with pytest.raises(ValueError):
            p ** -1


def test_weighted_homogeneity_detection():
    z1, z2 = z(1), z(2)
    f = z1 ** 3 + z2 ** 2
    assert f.is_weighted_homogeneous((2, 3))
    assert not f.is_weighted_homogeneous((1, 1))


def test_mixed_variable_counts_rejected():
    with pytest.raises(ValueError):
        Polynomial.one(2) + Polynomial.one(3)


# property tests

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
exps2 = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys = st.lists(st.tuples(coeffs, exps2), max_size=5).map(
    lambda ts: polynomial_from_terms(2, ts))
monomials = exps2


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_multiplication_associates_and_distributes(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_leibniz_rule(p, q):
    for i in (1, 2):
        lhs = (p * q).diff(i)
        rhs = p.diff(i) * q + p * q.diff(i)
        assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(monomials, monomials, monomials)
def test_order_respects_multiplication(a, b, m):
    # lex, as tuple comparison, is a monomial order
    if a < b:
        am = tuple(x + y for x, y in zip(a, m))
        bm = tuple(x + y for x, y in zip(b, m))
        assert am < bm
    # the unit monomial is minimal
    assert (0, 0) <= a


@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(*[st.integers(0, 12)] * n)))
def test_monomial_str_matches_to_str(exps):
    assert monomial_str(exps) == \
        Polynomial.monomial(len(exps), exps).to_str()


def test_monomial_str_constant_and_names():
    assert monomial_str((0, 0, 0)) == "1"
    assert monomial_str((2, 0, 1)) == "z1^2*z3"
    assert monomial_str((1, 3), ("x", "y")) == "x*y^3"
    # default names past z9 are built on the spot
    assert monomial_str((1,) + (0,) * 9 + (2,)) == "z1*z11^2"
