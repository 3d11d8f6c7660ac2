from hypothesis import given, settings
from hypothesis import strategies as st

from hochschild.grading import GradedQuotient
from hochschild.ideals import buchberger
from hochschild.poly import Polynomial
from hochschild.series import PoincareSeries
from reference import exponents_of_weight


@st.composite
def weighted_homogeneous(draw):
    """(weights, degree, f): f a sum of 1-4 monomials of one weighted
    degree, n = 1..3, with nonzero integer coefficients."""
    n = draw(st.integers(1, 3))
    weights = tuple(draw(st.lists(st.integers(1, 4), min_size=n,
                                  max_size=n)))
    degree = draw(st.integers(1, 4)) * draw(st.sampled_from(weights))
    monomials = draw(st.lists(
        st.sampled_from(exponents_of_weight(weights, degree)),
        min_size=1, max_size=4, unique=True))
    coefficients = draw(st.lists(st.integers(-3, 3).filter(bool),
                                 min_size=len(monomials),
                                 max_size=len(monomials)))
    return weights, degree, Polynomial(n, dict(zip(monomials, coefficients)))


@settings(max_examples=80, deadline=None)
@given(weighted_homogeneous())
def test_series_matches_graded_quotient(case):
    weights, degree, f = case
    A = GradedQuotient(buchberger([f]), weights)
    window = range(-5, 4 * degree + 1)
    expected = [A.dim(s) for s in window]
    # ascending the table grows in several steps, descending in one jump
    series = PoincareSeries(weights, degree)
    assert [series.dim(s) for s in window] == expected
    series = PoincareSeries(weights, degree)
    assert [series.dim(s) for s in reversed(window)] == expected[::-1]


@settings(max_examples=60, deadline=None)
@given(weighted_homogeneous(), st.integers(0, 60))
def test_dims_list_matches_dim(case, top):
    weights, degree, _ = case
    assert PoincareSeries(weights, degree).dims(top) == \
        [PoincareSeries(weights, degree).dim(s) for s in range(top + 1)]


def test_series_goldens():
    # z1^3 + z2^2, weights (2, 3), degree 6: A = C[z1] + z2 C[z1]
    series = PoincareSeries((2, 3), 6)
    assert [series.dim(s) for s in range(-1, 10)] == \
        [0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1]
    # C[z]/<z^4> is 1, z, z^2, z^3
    assert [PoincareSeries((1,), 4).dim(s) for s in range(7)] == \
        [1, 1, 1, 1, 0, 0, 0]
