import pytest

from hochschild.catalog import (
    catalog_instance,
    catalog_names,
    curve_entry,
    surface_entry,
    verify_invariant_relation,
)
from hochschild.grading import detect_weights
from hochschild.ideals import milnor_number
from hochschild.poly import Polynomial
from reference import total_degree


def test_names_cover_both_variants():
    names = catalog_names()
    assert "a1-curve" in names and "a9-surface" in names
    assert "d4-curve" in names and "d3-curve" not in names
    assert "d3-surface" in names
    assert "e8-curve" in names and "e8-surface" in names


def test_instance_parsing():
    entry = catalog_instance("d5-surface")
    assert entry.family == "D" and entry.variant == "surface" and entry.k == 5
    with pytest.raises(ValueError):
        catalog_instance("f4-surface")
    with pytest.raises(ValueError):
        catalog_instance("a3")


def test_d3_curve_is_accepted_but_flagged():
    entry = curve_entry("D", 3)
    assert entry.flags
    assert milnor_number(entry.f) == 3


@pytest.mark.parametrize("name", catalog_names())
def test_expected_milnor_numbers(name):
    entry = catalog_instance(name)
    assert milnor_number(entry.f) == entry.expected_milnor


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_entries_are_weighted_homogeneous(name):
    entry = catalog_instance(name)
    ws = detect_weights(entry.f)
    assert all(w > 0 for w in ws.weights)


@pytest.mark.parametrize(
    "name", [n for n in catalog_names() if n.endswith("-surface")])
def test_invariant_relations(name):
    assert verify_invariant_relation(catalog_instance(name))


def test_invariant_degrees_e8():
    e1, e2, e3 = surface_entry("E8").invariants
    assert total_degree(e1) == 30
    assert total_degree(e2) == 20
    assert total_degree(e3) == 12


def test_perturbed_invariant_fails_relation():
    entry = surface_entry("E6")
    e1, e2, e3 = entry.invariants
    x = Polynomial.variable(2, 1)
    bad = (e1, e2, e3 + x ** 6)
    value = entry.original_f.substitute(list(bad))
    assert not value.is_zero()


def test_curve_bounds():
    with pytest.raises(ValueError):
        curve_entry("A", 0)
    with pytest.raises(ValueError):
        curve_entry("D", 2)
    with pytest.raises(ValueError):
        surface_entry("D", 2)
