import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hochschild import ideals
from hochschild.grading import (
    GradedQuotient,
    NotWeightedHomogeneousError,
    WeightSystem,
    detect_weights,
    euler_identity_holds,
    is_weighted_homogeneous,
)
from hochschild.ideals import WalkLimitError, buchberger
from hochschild.poly import Polynomial
from reference import (
    closed_form_position,
    exponents_of_weight,
    prefix_counts,
)


def test_detect_weights_d_surface():
    f = Polynomial(3, {(2, 0, 0): 1, (0, 2, 1): 1, (0, 0, 4): 1})
    ws = detect_weights(f)
    assert ws.weights == (4, 3, 2)
    assert ws.degree == 8
    assert not ws.underdetermined


def test_detect_weights_curve():
    f = Polynomial(2, {(3, 0): 1, (0, 2): 1})
    ws = detect_weights(f)
    assert ws == ((2, 3), 6, False)


def test_detect_weights_underdetermined_monomial():
    ws = detect_weights(Polynomial(3, {(1, 1, 0): 1}))
    assert ws.underdetermined
    assert ws.weights == (1, 1, 1)
    assert ws.degree == 2


def test_detect_weights_beyond_search_bound():
    # every positive solution has w2 = 41 w1, past the bounded search
    f = Polynomial(3, {(41, 0, 1): 1, (0, 1, 1): 1})
    ws = detect_weights(f)
    assert ws.underdetermined
    assert ws.weights[1] == 41 * ws.weights[0]
    assert all(w > 0 for w in ws.weights) and ws.degree > 0
    assert f.is_weighted_homogeneous(ws.weights)
    assert euler_identity_holds(f, ws)


def test_detect_weights_failure():
    f = Polynomial(1, {(2,): 1, (3,): 1})
    with pytest.raises(NotWeightedHomogeneousError):
        detect_weights(f)


def test_detect_weights_rejects_constant():
    with pytest.raises(NotWeightedHomogeneousError):
        detect_weights(Polynomial.constant(2, 1))


def test_euler_identity():
    f = Polynomial(2, {(3, 0): 1, (0, 2): 1})
    ws = detect_weights(f)
    assert euler_identity_holds(f, ws)
    # wrong degree fails
    assert not euler_identity_holds(f, ws._replace(degree=5))
    # so does one term of another weight, wherever it is listed
    assert not euler_identity_holds(f + Polynomial(2, {(1, 1): 1}), ws)


def _euler_reference(f, ws):
    """The identity as polynomials: sum_i w_i z_i d_i f == d * f."""
    n = f.n
    lhs = Polynomial.zero(n)
    for i in range(1, n + 1):
        lhs = lhs + ws.weights[i - 1] * Polynomial.variable(n, i) * f.diff(i)
    return lhs == ws.degree * f


@st.composite
def _euler_cases(draw):
    """(f, weights and degree): up to three monomials of the degree,
    plus at most one arbitrary monomial, int or rational coefficients."""
    n = draw(st.integers(1, 3))
    weights = tuple(draw(st.lists(st.integers(1, 4), min_size=n,
                                  max_size=n)))
    degree = draw(st.integers(1, 12))
    monomials = exponents_of_weight(weights, degree)
    chosen = draw(st.lists(st.sampled_from(monomials), max_size=3,
                           unique=True)) if monomials else []
    chosen += draw(st.lists(st.tuples(*[st.integers(0, 4)] * n),
                            max_size=1))
    coefficients = draw(st.lists(
        st.one_of(st.integers(-3, 3),
                  st.fractions(-2, 2, max_denominator=3)).filter(bool),
        min_size=len(chosen), max_size=len(chosen)))
    return (Polynomial(n, dict(zip(chosen, coefficients))),
            WeightSystem(weights, degree, False))


@settings(max_examples=150, deadline=None)
@given(_euler_cases())
def test_euler_check_matches_the_polynomial_identity(case):
    f, ws = case
    assert euler_identity_holds(f, ws) == _euler_reference(f, ws)


def test_exponents_of_weight():
    assert set(exponents_of_weight((2, 3), 6)) == {(3, 0), (0, 2)}
    assert exponents_of_weight((2, 3), -1) == []
    assert exponents_of_weight((2, 3), 0) == [(0, 0)]


def test_hilbert_function_golden():
    z1 = Polynomial.variable(2, 1)
    gb = buchberger([z1 ** 3])
    # weight-6 monomials are z1^3 (in the ideal) and z2^2
    assert len(GradedQuotient(gb, (2, 3)).basis(6)) == 1


def test_graded_quotient_enumeration():
    z1 = Polynomial.variable(2, 1)
    gb = buchberger([z1 ** 3])
    quotient = GradedQuotient(gb, (2, 3))
    # weight 6: z2^2 and z1^0..2 combos: 2*1+3*b? options (0,2) and (3,0)
    assert quotient.basis(6) == ((0, 2),)
    assert len(quotient.basis(6)) == 1
    assert len(quotient.basis(7)) == 1    # z1^2 z2
    assert len(quotient.basis(1)) == 0


def test_graded_quotient_walk_is_refused_past_the_limit(monkeypatch):
    # C[z1, z2]/<z1^3> with weights (1, 1) has 1, 2, 3, 3, ... standard
    # monomials of weight 0, 1, 2, 3, ...: 6 through weight 2, 9 through
    # weight 3.  The walk is refused above the limit, not at it, and a
    # refused walk leaves the bases and the index as they were
    monkeypatch.setattr(ideals, "MAX_STANDARD_MONOMIALS", 6)
    z1 = Polynomial.variable(2, 1)
    quotient = GradedQuotient(buchberger([z1 ** 3]), (1, 1))
    assert quotient.basis(2) == ((0, 2), (1, 1), (2, 0))
    state = (list(quotient.bases), dict(quotient.position))
    for _ in range(2):
        with pytest.raises(WalkLimitError, match="^the standard monomials "
                           "of weight at most 3 number at least 7, above "
                           "the limit of 6$"):
            quotient.basis(3)
        assert (quotient.bases, quotient.position) == state
    fresh = GradedQuotient(buchberger([z1 ** 3]), (1, 1))
    with pytest.raises(WalkLimitError, match="above the limit of 6"):
        fresh.basis(5)
    assert (fresh.bases, fresh.position) == ([], {})


def test_graded_quotient_unit_ideal_is_empty():
    gb = buchberger([Polynomial.one(2)])
    quotient = GradedQuotient(gb, (1, 1))
    assert quotient.basis(0) == ()
    assert quotient.basis(3) == ()


@pytest.mark.parametrize("terms, message", [
    # w1+w2+w3 = d and 2(w1+w2+w3) = d force d = 0
    ({(1, 1, 1): 1, (2, 2, 2): 1}, "degree 0"),
    # 2w1 = d and 2w1 + w2 = d force w2 = 0 while w3 stays free
    ({(2, 0, 0): 1, (2, 1, 0): 1}, "no positive weights"),
    # 2w1 + w2 + w3 = d and w1 = d force w2 + w3 = -w1
    ({(2, 1, 1): 1, (1, 0, 0): 1}, "no positive weights"),
])
def test_detect_weights_rejected_before_search(monkeypatch, terms, message):
    # no positive completion exists, so the bounded search must not run
    import hochschild.grading as grading

    def no_search(*args):
        raise AssertionError("brute-force search ran")

    monkeypatch.setattr(grading, "_consistent_weights", no_search)
    with pytest.raises(NotWeightedHomogeneousError, match=message):
        detect_weights(Polynomial(3, terms))


@settings(max_examples=200, deadline=None)
@given(st.sets(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=3))
def test_weighted_homogeneity_agrees_with_search(exps):
    # small weights solve every system here that has a positive solution
    import hochschild.grading as grading

    f = Polynomial(3, {e: 1 for e in exps})
    assert (is_weighted_homogeneous(f)
            == any(grading._consistent_weights(sorted(exps), 3, bound)
                   for bound in range(1, 13)))


@settings(max_examples=200, deadline=None)
@given(st.sets(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=3))
def test_positive_point_solves_the_homogeneity_equations(exps):
    import hochschild.grading as grading

    f = Polynomial(3, {e: 1 for e in exps})
    basis = grading._homogeneity_solutions(f)
    point = grading._positive_point(basis) if basis else None
    assert (point is not None) == is_weighted_homogeneous(f)
    if point is not None:
        assert all(x > 0 for x in point)
        assert f.weighted_degrees(point[:3]) == {point[3]}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 4), min_size=n, max_size=n),
    st.lists(st.tuples(*[st.integers(0, 5)] * n), min_size=1, max_size=3),
    st.lists(st.integers(-3, 150), min_size=1, max_size=12, unique=True))))
def test_graded_quotient_basis_matches_reference(case):
    weights, leads, weights_s = case
    n = len(weights)
    gb = buchberger([Polynomial(n, {e: 1}) for e in leads])
    lead = gb.leading_exponents()

    def reference(s):
        return tuple(sorted(
            (e for e in exponents_of_weight(weights, s)
             if not any(all(a <= b for a, b in zip(le, e)) for le in lead))))

    # re-walk the table at each higher request, and fill it in one walk
    for order in (sorted(weights_s), sorted(weights_s, reverse=True)):
        quotient = GradedQuotient(gb, weights)
        for s in order:
            assert quotient.basis(s) == reference(s)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 4), min_size=n, max_size=n),
    st.lists(st.tuples(*[st.integers(0, 5)] * n), min_size=1, max_size=3),
    st.lists(st.integers(-3, 150), min_size=1, max_size=12, unique=True))))
def test_position_index_survives_every_rewalk(case):
    # `basis` itself is checked against a reference above.  A request at
    # or above len(bases) walks again through it and replaces `bases`
    # and `position` by equal data at every lower weight
    weights, leads, weights_s = case
    n = len(weights)
    gb = buchberger([Polynomial(n, {e: 1}) for e in leads])
    quotient = GradedQuotient(gb, weights)
    bases, before = [], {}
    for top in sorted(weights_s):
        quotient.basis(top)
        assert len(quotient.bases) == max(top + 1, len(bases))
        assert quotient.bases[:len(bases)] == bases
        expected = {m: basis.index(m)
                    for basis in map(quotient.basis, range(top + 1))
                    for m in basis}
        assert quotient.position == expected
        assert all(quotient.position[m] == j for m, j in before.items())
        bases, before = list(quotient.bases), expected


@st.composite
def _weighted_homogeneous(draw):
    """(f, weights, degree): one to four monomials of one weighted
    degree with nonzero integer coefficients, n = 1..3."""
    n = draw(st.integers(1, 3))
    weights = tuple(draw(st.lists(st.integers(1, 4), min_size=n,
                                  max_size=n)))
    degree = draw(st.integers(1, 12).filter(
        lambda d: exponents_of_weight(weights, d)))
    monomials = draw(st.lists(
        st.sampled_from(exponents_of_weight(weights, degree)),
        min_size=1, max_size=4, unique=True))
    coefficient = st.integers(-3, 3).filter(bool)
    return (Polynomial(n, {e: draw(coefficient) for e in monomials}),
            weights, degree)


@settings(max_examples=80, deadline=None)
@given(_weighted_homogeneous(), st.integers(0, 36))
@example((Polynomial(2, {(2, 1): 1, (0, 5): 1}), (2, 1), 5), 30)
@example((Polynomial(2, {(1, 1): 1}), (1, 1), 2), 20)
def test_positions_match_the_closed_form(case, top):
    # the Groebner basis of <f> is f made monic, so the standard
    # monomials are those z^lead does not divide, and each position
    # the walk's index holds has a closed form (see `reference`)
    f, weights, degree = case
    gb = buchberger([f])
    (lead,) = gb.leading_exponents()
    quotient = GradedQuotient(gb, weights)
    quotient.basis(top)
    counts = prefix_counts(weights, top)
    assert len(quotient.position) == sum(map(len, quotient.bases))
    for m, pos in quotient.position.items():
        assert pos == closed_form_position(m, lead, weights, degree,
                                           counts), (f, m)
