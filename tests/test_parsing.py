from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochschild.parsing import (
    MAX_COEFFICIENT_DIGITS,
    MAX_POWER_TERMS,
    MAX_TERM_PAIRS,
    ExpansionLimitError,
    ParseError,
    parse_polynomial,
    parse_polynomials,
)
from hochschild.poly import Polynomial
from reference import polynomial_from_terms


def test_basic_expression():
    p = parse_polynomial("z1^2 + 3*z2^2")
    assert p == Polynomial(2, {(2, 0): 1, (0, 2): 3})


def test_rational_coefficients():
    p = parse_polynomial("3/2*z1 - 1/4")
    assert p == Polynomial(1, {(1,): Fraction(3, 2), (0,): Fraction(-1, 4)})


def test_parentheses_and_powers():
    p = parse_polynomial("(z1 + z2)^2")
    assert p == Polynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_variable_count_inferred_from_max_index():
    assert parse_polynomial("z2^3").n == 2
    assert parse_polynomial("z3 + z1").n == 3


def test_polynomials_parsed_together_share_one_ring():
    assert parse_polynomials(["z1^2", "z3", "3"]) == [
        Polynomial(3, {(2, 0, 0): 1}), Polynomial.variable(3, 3),
        Polynomial.constant(3, 3)]


def test_xy_variables():
    p = parse_polynomial("x^2*y - y^3")
    assert p.n == 2
    assert p == Polynomial(2, {(2, 1): 1, (0, 3): -1})


def test_leading_minus():
    assert parse_polynomial("-2*z1") == Polynomial(1, {(1,): -2})
    assert parse_polynomial("-(z1 - z2)") == Polynomial(2, {(1, 0): -1,
                                                            (0, 1): 1})


def test_round_trip_printer_output():
    p = Polynomial(2, {(2, 1): -2, (0, 3): Fraction(3, 2), (0, 0): -1})
    assert parse_polynomial(p.to_str()) == p


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_polynomial("2z1")
    with pytest.raises(ParseError):
        parse_polynomial("z1 z2")
    with pytest.raises(ParseError):
        parse_polynomial("3(z1 + 1)")


@pytest.mark.parametrize("text, message, offset", [
    ("z1 + ", "expected a variable, number or parenthesis", 5),
    ("z1 $ z2", "unexpected character '$'", 3),
    ("(z1+z2", "expected ')'", 6),
    ("", "empty expression", 0),
    ("   ", "empty expression", 0),
    ("z1)", "trailing input", 2),
])
def test_error_positions(text, message, offset):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text)
    assert err.value.position == offset
    assert str(err.value) == "%s (at offset %d)" % (message, offset)


def test_rejects_mixed_alphabets():
    with pytest.raises(ParseError):
        parse_polynomial("x + z1")


def test_rejects_unknown_variables():
    with pytest.raises(ParseError):
        parse_polynomial("z4 + 1")
    with pytest.raises(ParseError):
        parse_polynomial("w + 1")


def test_rejects_bad_exponents():
    with pytest.raises(ParseError):
        parse_polynomial("z1^-1")
    with pytest.raises(ParseError):
        parse_polynomial("z1^(2)")


def test_rejects_interior_unary_minus():
    with pytest.raises(ParseError):
        parse_polynomial("z1 * -z2")


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_polynomial("1/0")


def test_power_is_refused_past_its_term_bound():
    # C(k + 1, 1) = k + 1 terms bound (z1+z2)^k, C(k + 2, 2) (z1+z2+z3)^k
    assert MAX_POWER_TERMS == 1000
    assert len(parse_polynomial("(z1+z2)^999").terms) == 1000
    assert len(parse_polynomial("(z1+z2+z3)^43").terms) == 990
    with pytest.raises(ExpansionLimitError, match=(
            r"^the power at offset 8 may expand to 1001 terms, above the "
            r"limit of 1000$")):
        parse_polynomial("(z1+z2)^1000")
    # 20301 terms and 9 s with no bound; refused before any product
    with pytest.raises(ExpansionLimitError, match="20301 terms"):
        parse_polynomial("(z1+z2+z3)^200")
    # one term, or an exponent below 2, expands to one term at most
    assert parse_polynomial("z1^99999999999").terms == {(99999999999,): 1}
    assert len(parse_polynomial("(z1+z2+z3)^1").terms) == 3


def test_product_is_refused_past_its_term_pairs():
    assert MAX_TERM_PAIRS == 1000000
    # 990 * 990 pairs pass; a third factor pairs 3828 * 990 terms
    square = "(z1+z2+z3)^43*(z1+z2+z3)^43"
    assert len(parse_polynomial(square).terms) == 3828
    with pytest.raises(ExpansionLimitError, match=(
            r"^the product at offset 27 multiplies 3789720 pairs of terms, "
            r"above the limit of 1000000$")):
        parse_polynomial(square + "*(z1+z2+z3)^43")


def test_long_number_literal_is_refused_before_it_is_read():
    # Python reads at most 4300 digits into an int, leading zeros
    # included; the limit counts the digits after them
    assert MAX_COEFFICIENT_DIGITS == 1000
    big = "7" * 1000
    zeros = "0" * 5000
    assert parse_polynomial(big).terms == {(0,): int(big)}
    assert parse_polynomial("1/00" + big).terms == \
        {(0,): Fraction(1, int(big))}
    assert parse_polynomial(zeros + "7/" + zeros + "3*z1^" + zeros + "2"
                            ).terms == {(2,): Fraction(7, 3)}
    assert parse_polynomial(zeros).terms == {}
    # a literal of 1000 digits times z1 passes: a product with a one-term
    # factor is bounded by its digits, not by its bits
    assert parse_polynomial(big + "*z1").terms == {(1,): int(big)}
    for text, offset, digits in [("7" * 5000 + "*z1^2", 0, 5000),
                                 ("z1^2+1/" + "7" * 5000, 5, 5000),
                                 ("z1^2+" + "7" * 5000 + "/3", 5, 5000),
                                 ("z1^" + "9" * 1001, 3, 1001),
                                 (zeros + big + "7*z1", 0, 1001),
                                 # other zero digits are counted
                                 ("\u0660" * 5000 + "7", 0, 5001)]:
        with pytest.raises(ExpansionLimitError, match=(
                r"^the number at offset %d has %d digits, above the limit "
                r"of 1000$" % (offset, digits))):
            parse_polynomial(text)


def test_power_is_refused_past_its_coefficient_bound():
    # a one-term base c to the k: c^k <= 2^(k ceil(log2 c)), so 3^k is
    # estimated at 2k bits; (3*z1)^99999999 would compute for minutes,
    # and a power of 4300 digits or more could not be printed
    for text, offset, digits in [("(3*z1)^99999999", 7, 60206000),
                                 ("(3*z1)^10000", 7, 6021),
                                 ("3^5000*3^5000*z1^2", 2, 3011)]:
        with pytest.raises(ExpansionLimitError, match=(
                r"^the power at offset %d may reach a coefficient of %d "
                r"digits, above the limit of 1000$" % (offset, digits))):
            parse_polynomial(text)
    assert parse_polynomial("2^3300*z1").terms == {(1,): 2 ** 3300}
    assert parse_polynomial("z1^99999999999").terms == {(99999999999,): 1}
    # a t-term base: the coefficients of its k-th power are at most
    # (t max |c|)^k, binomials of 300 digits for (z1+z2)^999
    top = max(parse_polynomial("(z1+z2)^999").terms.values())
    assert len(str(top)) == 300
    with pytest.raises(ExpansionLimitError, match="2406 digits"):
        parse_polynomial("(99*z1+z2)^999")


def test_one_term_powers_and_products_are_bounded_by_their_digits(
        monkeypatch):
    # the estimates take 3^k for 2^(2k) and a literal of 1000 digits for
    # 2^3322, so near the limit a power of a one-term base and a product
    # with a one-term factor are computed and their digits counted
    nines = "9" * 1000
    assert len(str(3 ** 2095)) == 1000
    assert parse_polynomial("3^2000*z1").terms == {(1,): 3 ** 2000}
    assert parse_polynomial("3^2095*z1").terms == {(1,): 3 ** 2095}
    assert parse_polynomial("(-1/3*z2)^2095").terms == \
        {(0, 2095): Fraction(-1, 3 ** 2095)}
    assert parse_polynomial(nines + "*z1").terms == {(1,): int(nines)}
    assert parse_polynomial(nines + "*(z1+1)").terms == \
        {(1,): int(nines), (0,): int(nines)}
    for text, what, offset in [("3^2096*z1", "power", 2),
                               ("(1/3*z1)^2096", "power", 9),
                               ("3^2095*3*z1", "product", 6),
                               (nines + "*(z1+10)", "product", 1000)]:
        with pytest.raises(ExpansionLimitError, match=(
                r"^the %s at offset %d may reach a coefficient of 1001 "
                r"digits, above the limit of 1000$" % (what, offset))):
            parse_polynomial(text)

    # where c^k is past the limit by a lower bound, nothing is computed
    def refuse(base, k):
        raise AssertionError("computed %r^%d" % (base, k))

    monkeypatch.setattr(Polynomial, "__pow__", refuse)
    for text in ("(3*z1)^10000", "(3*z1)^99999999", "(1/3*z1)^10000"):
        with pytest.raises(ExpansionLimitError, match="^the power at"):
            parse_polynomial(text)


def test_product_and_sum_are_refused_past_the_coefficient_bound():
    # 3^1200 has 573 digits, each factor passes, and the product may
    # reach 1146
    assert parse_polynomial("3^1200*z1").terms == {(1,): 3 ** 1200}
    with pytest.raises(ExpansionLimitError, match=(
            r"^the product at offset 6 may reach a coefficient of 1146 "
            r"digits, above the limit of 1000$")):
        parse_polynomial("3^1200*3^1200*z1^2")
    # pairwise coprime denominators of 401 digits: the third term makes
    # the common denominator pass 1000 digits, and it has 1200, as
    # (10^400 + 1) 10^400 (10^400 - 1) = 10^1200 - 10^400
    terms = ["1/%d*z%d" % (10 ** 400 + k, i)
             for i, k in zip((1, 2, 3), (1, 0, -1))]
    assert len(parse_polynomial("+".join(terms[:2])).terms) == 2
    second = len(terms[0]) + 1 + len(terms[1])
    with pytest.raises(ExpansionLimitError, match=(
            r"^the sum at offset %d may reach a coefficient of 1200 digits, "
            r"above the limit of 1000$" % second)):
        parse_polynomial("+".join(terms))
    # a sum is bounded by the digits of its result, not by its bits: a
    # coefficient of 1000 digits passes, and one of 1001 is refused
    nines = "9" * 1000
    assert parse_polynomial(nines + "*z1+z2").terms == \
        {(1, 0): int(nines), (0, 1): 1}
    assert parse_polynomial("z2-" + nines + "*z1").terms == \
        {(1, 0): -int(nines), (0, 1): 1}
    with pytest.raises(ExpansionLimitError, match=(
            r"^the sum at offset 1003 may reach a coefficient of 1001 "
            r"digits, above the limit of 1000$")):
        parse_polynomial(nines + "*z1+" + nines + "*z1")


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)
random_polys = st.lists(
    st.tuples(coeffs, st.tuples(st.integers(0, 5), st.integers(0, 5),
                                st.integers(0, 5))),
    max_size=6).map(lambda ts: polynomial_from_terms(3, ts))


@settings(max_examples=80, deadline=None)
@given(random_polys)
def test_print_parse_round_trip(p):
    parsed = parse_polynomial(p.to_str())
    # the parsed ring has as many variables as the text uses
    padded = Polynomial(3, {e + (0,) * (3 - parsed.n): c
                            for e, c in parsed.terms.items()})
    assert padded == p
