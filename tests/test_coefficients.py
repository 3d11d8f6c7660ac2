"""The coefficient rule: a coefficient is an int when it is integral, a
Fraction otherwise, and never a float; every division in the package
goes through `poly.exact_quotient` or has an explicit Fraction operand."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hochschild
from hochschild.ideals import buchberger, divide
from hochschild.linalg import nullspace
from hochschild.poly import Polynomial, exact_quotient
from reference import polynomial_from_terms
SOURCES = sorted(Path(hochschild.__file__).parent.glob("*.py"))


def _assert_narrowed(values):
    for c in values:
        assert type(c) is (int if c.denominator == 1 else Fraction), repr(c)


def _assert_poly_narrowed(p):
    _assert_narrowed(p.terms.values())


def test_exact_quotient():
    assert exact_quotient(6, 3) == 2 and type(exact_quotient(6, 3)) is int
    assert exact_quotient(-7, 2) == Fraction(-7, 2)
    assert type(exact_quotient(Fraction(3, 2), Fraction(1, 2))) is int
    assert exact_quotient(1, Fraction(2, 3)) == Fraction(3, 2)
    assert type(exact_quotient(Fraction(4), 2)) is int
    with pytest.raises(ZeroDivisionError):
        exact_quotient(1, 0)


def test_constructors_narrow_and_reject_floats():
    p = Polynomial(1, {(1,): Fraction(4, 2), (0,): Fraction(1, 3)})
    assert type(p.terms[(1,)]) is int
    assert type(p.terms[(0,)]) is Fraction
    assert type(Polynomial.constant(2, True).terms[(0, 0)]) is int
    for c in (0.5, 0.0):
        with pytest.raises(TypeError):
            Polynomial.constant(2, c)
        with pytest.raises(TypeError):
            Polynomial.monomial(2, (1, 0), c)


coeffs = st.one_of(st.integers(-6, 6),
                   st.fractions(min_value=-5, max_value=5, max_denominator=4))
exps2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.lists(st.tuples(coeffs, exps2), max_size=4).map(
    lambda ts: polynomial_from_terms(2, ts))
HALF = Polynomial(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(3, 2)})


@settings(max_examples=80, deadline=None)
@given(polys, polys, coeffs, st.integers(0, 3))
@example(HALF, HALF, Fraction(2), 2)
@example(HALF, -HALF, 2, 0)
def test_arithmetic_keeps_the_rule(p, q, c, k):
    for r in (p + q, p - q, p * q, -p, c * p, p * c, p + c, p ** k,
              p.diff(1), p.diff(2)):
        _assert_poly_narrowed(r)


@settings(max_examples=60, deadline=None)
@given(st.lists(polys, min_size=1, max_size=3), polys)
@example([HALF, Polynomial(2, {(2, 0): Fraction(2, 3), (0, 0): 1})],
         HALF * HALF)
def test_groebner_and_division_keep_the_rule(gens, p):
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    gb = buchberger(gens)
    for g in gb:
        _assert_poly_narrowed(g)
    _assert_poly_narrowed(gb.normal_form(p))
    quotients, remainder = divide(p, gens)
    for r in quotients + (remainder,):
        _assert_poly_narrowed(r)


entries = st.one_of(st.integers(-4, 4), st.integers(-4, 4).map(Fraction),
                    st.fractions(min_value=-4, max_value=4,
                                 max_denominator=3))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(entries, min_size=k, max_size=k), min_size=1, max_size=4)))
@example([[2, 4, 6], [1, 2, 3]])
@example([[Fraction(2), Fraction(1, 2)], [Fraction(4), Fraction(1)]])
@example([[1, Fraction(1, 2), 0], [0, 1, 2]])
def test_nullspace_keeps_the_rule(rows):
    for vec in nullspace(rows):
        _assert_narrowed(vec)
        assert all(sum(x * v for x, v in zip(row, vec)) == 0
                   for row in rows)


def _is_fraction_call(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "Fraction"


def _float_risks(source: str) -> list:
    """Line numbers of the true divisions outside `exact_quotient` with
    no Fraction(...) operand, of float literals and of the name float."""
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "exact_quotient":
            inside.update(map(id, ast.walk(node)))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            operands = (node.target, node.value)
        else:
            if isinstance(node, ast.Constant) and type(node.value) is float \
                    or isinstance(node, ast.Name) and node.id == "float":
                lines.append(node.lineno)
            continue
        if id(node) not in inside and not any(map(_is_fraction_call,
                                                  operands)):
            lines.append(node.lineno)
    return lines


def test_float_risks_are_found():
    assert _float_risks("def f(a, b):\n    return a / b\n") == [2]
    assert _float_risks("x = 1\nx /= 2\n") == [2]
    assert _float_risks("x = 0.5\ny = float(3)\n") == [1, 2]
    assert _float_risks("x = Fraction(1) / 2\ny = 3 / Fraction(4)\n"
                        "z = 7 // 2\n") == []
    assert _float_risks("def exact_quotient(a, b):\n    return a / b\n") \
        == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_divides_exactly(path):
    assert _float_risks(path.read_text()) == []
