from hypothesis import given, settings
from hypothesis import strategies as st

from hochschild.grading import GradedQuotient
from hochschild.ideals import buchberger
from hochschild.poly import Polynomial
from hochschild.series import poincare_dims
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
@given(weighted_homogeneous(), st.integers(-2, 4))
def test_series_matches_graded_quotient(case, factor):
    weights, degree, f = case
    A = GradedQuotient(buchberger([f]), weights)
    top = factor * degree
    assert poincare_dims(weights, degree, top) == \
        [len(A.basis(s)) for s in range(top + 1)]


@settings(max_examples=60, deadline=None)
@given(weighted_homogeneous(), st.integers(0, 60))
def test_dims_list_matches_dim(case, top):
    # any top, not only a multiple of the degree: each entry is the count
    # of monomials of weight s less that of weight s - d, and the list is
    # a prefix of the list through any higher top
    weights, degree, _ = case
    dims = poincare_dims(weights, degree, top)
    assert dims == [len(exponents_of_weight(weights, s))
                    - len(exponents_of_weight(weights, s - degree))
                    for s in range(top + 1)]
    assert poincare_dims(weights, degree, top + degree + 1)[:top + 1] == dims


def test_series_goldens():
    # z1^3 + z2^2, weights (2, 3), degree 6: A = C[z1] + z2 C[z1]
    assert poincare_dims((2, 3), 6, 9) == [1, 0, 1, 1, 1, 1, 1, 1, 1, 1]
    # C[z]/<z^4> is 1, z, z^2, z^3
    assert poincare_dims((1,), 4, 6) == [1, 1, 1, 1, 0, 0, 0]
    assert poincare_dims((1,), 4, -1) == []
