from itertools import product

import pytest

from hochschild.bar import (
    ResourceLimitError,
    _chain_columns,
    _cochain_columns,
    bar_cohomology_dims,
    bar_homology_dims,
)
from reference import truncated_closed_form


def _composite(outer, inner, outer_keys):
    """Columns of outer o inner.  outer's columns are listed in the
    order of outer_keys, the row keys of inner."""
    index = {key: j for j, key in enumerate(outer_keys)}
    out = []
    for col in inner:
        total: dict = {}
        for row, c in col.items():
            for key, v in outer[index[row]].items():
                total[key] = total.get(key, 0) + c * v
        out.append({key: v for key, v in total.items() if v})
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_bar_differentials_square_to_zero(k):
    # d o d = 0 needs z^a (z^b z^c) = (z^a z^b) z^c and z^0 as the unit,
    # so this checks the multiplication rule the columns are built from
    for p in range(3):
        # C^(p+1) is listed by (tuple, out index), tuples in product order
        keys = [(I, m) for I in product(range(k), repeat=p + 1)
                for m in range(k)]
        dd = _composite(_cochain_columns(k, p + 1),
                        _cochain_columns(k, p), keys)
        assert dd and all(not col for col in dd)
    for p in range(1, 3):
        # d: C_(p+1) -> C_p -> C_(p-1); C_p is listed in product order
        keys = list(product(range(k), repeat=p + 1))
        dd = _composite(_chain_columns(k, p), _chain_columns(k, p + 1), keys)
        assert dd and all(not col for col in dd)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_bar_dims_match_closed_forms(k):
    coh = bar_cohomology_dims(k, 3)
    hom = bar_homology_dims(k, 3)
    assert coh == hom == [truncated_closed_form(k, p) for p in range(4)]


def test_k3_frozen_dims():
    assert bar_cohomology_dims(3, 3) == [3, 2, 2, 2]
    assert bar_homology_dims(3, 2) == [3, 2, 2]


def test_resource_guard_on_degree():
    with pytest.raises(ResourceLimitError):
        bar_cohomology_dims(4, 4)
    with pytest.raises(ResourceLimitError):
        bar_homology_dims(4, 5)


def test_resource_guard_on_dimension():
    with pytest.raises(ResourceLimitError):
        bar_cohomology_dims(5, 1)


@pytest.mark.parametrize("dims", [bar_cohomology_dims, bar_homology_dims])
def test_resource_guard_runs_before_any_work(dims):
    # the columns for k = 10^9 could never be built
    with pytest.raises(ResourceLimitError):
        dims(10 ** 9, 1)


@pytest.mark.parametrize("dims", [bar_cohomology_dims, bar_homology_dims])
@pytest.mark.parametrize("p_max", [1, 5])
def test_k_zero_is_a_plain_value_error(dims, p_max):
    # checked before the resource limits, so the CLI exits 2, not 1
    with pytest.raises(ValueError, match="k must be positive") as exc:
        dims(0, p_max)
    assert not isinstance(exc.value, ResourceLimitError)
