import pytest

from hochschild.bar import (
    FiniteAlgebra,
    ResourceLimitError,
    bar_cohomology_dims,
    bar_homology_dims,
    truncated_closed_form,
)


def test_truncated_algebra_structure():
    A = FiniteAlgebra.truncated_polynomial(3)
    # z * z = z^2, z * z^2 = 0
    assert A.table[1][1] == (0, 0, 1)
    assert A.table[1][2] == (0, 0, 0)


def test_corrupted_structure_constants_rejected():
    # C[z]/<z^2 - 1> is fine
    FiniteAlgebra([[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    # corrupt C[z]/<z^3>: set z * z^2 = 1 while z^2 * z stays 0, so
    # (z*z)*z = 0 but z*(z*z) = 1
    broken = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
              [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
              [[0, 0, 1], [0, 0, 0], [0, 0, 0]]]
    with pytest.raises(ValueError):
        FiniteAlgebra(broken)


def test_non_unit_basis_rejected():
    table = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(ValueError):
        FiniteAlgebra(table)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_bar_dims_match_closed_forms(k):
    A = FiniteAlgebra.truncated_polynomial(k)
    coh = bar_cohomology_dims(A, 3)
    hom = bar_homology_dims(A, 3)
    assert coh == hom == [truncated_closed_form(k, p) for p in range(4)]


def test_k3_frozen_dims():
    A = FiniteAlgebra.truncated_polynomial(3)
    assert bar_cohomology_dims(A, 3) == [3, 2, 2, 2]
    assert bar_homology_dims(A, 2) == [3, 2, 2]


def test_resource_guard_on_degree():
    A = FiniteAlgebra.truncated_polynomial(4)
    with pytest.raises(ResourceLimitError):
        bar_cohomology_dims(A, 4)
    with pytest.raises(ResourceLimitError):
        bar_homology_dims(A, 5)


def test_resource_guard_on_dimension():
    big = FiniteAlgebra.truncated_polynomial(5)
    with pytest.raises(ResourceLimitError):
        bar_cohomology_dims(big, 1)
