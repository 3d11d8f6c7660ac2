import pytest

from hochschild.grading import detect_weights
from hochschild.koszul import BasisElement, chain_complex, cochain_complex
from hochschild.poly import Polynomial


def d_surface(k=4):
    return Polynomial(3, {(2, 0, 0): 1, (0, 2, 1): 1, (0, 0, k): 1})


def d_curve(k=4):
    return Polynomial(2, {(2, 1): 1, (0, k - 1): 1})


def _matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    n = a[0][0].n
    out = []
    for r in range(rows):
        out_row = []
        for c in range(cols):
            acc = Polynomial.zero(n)
            for k in range(inner):
                acc = acc + a[r][k] * b[k][c]
            out_row.append(acc)
        out.append(out_row)
    return out


def _composites_vanish(cx):
    """Reference for `verify_d_squared_zero`: every composite of
    consecutive differentials multiplied out as polynomial matrices."""
    for p in range(len(cx.diffs) - 1):
        if cx.direction == "cochain":
            second, first = cx.diffs[p + 1], cx.diffs[p]
        else:
            second, first = cx.diffs[p], cx.diffs[p + 1]
        if any(not e.is_zero() for row in _matmul(second, first) for e in row):
            return False
    return True


def test_cochain_module_layout_n2():
    cx = cochain_complex(d_curve(), 5)
    assert cx.modules[0].elements == (BasisElement(0, ()),)
    assert cx.modules[3].elements == (BasisElement(1, (1,)),
                                      BasisElement(1, (2,)))
    assert cx.modules[4].elements == (BasisElement(2, ()),
                                      BasisElement(1, (1, 2)))


def test_cochain_module_layout_n3():
    cx = cochain_complex(d_surface(), 5)
    assert cx.modules[1].elements == tuple(BasisElement(0, (i,))
                                           for i in (1, 2, 3))
    assert cx.modules[4].elements == (BasisElement(2, ()),
                                      BasisElement(1, (1, 2)),
                                      BasisElement(1, (1, 3)),
                                      BasisElement(1, (2, 3)))
    assert cx.modules[5].elements == (BasisElement(2, (1,)),
                                      BasisElement(2, (2,)),
                                      BasisElement(2, (3,)),
                                      BasisElement(1, (1, 2, 3)))


def test_cochain_matrices_n2():
    f = d_curve()
    d1, d2 = f.diff(1), f.diff(2)
    Z = Polynomial.zero(2)
    cx = cochain_complex(f, 5)
    assert cx.diffs[0] == [[Z], [Z]]
    assert cx.diffs[1] == [[d1, d2], [Z, Z]]
    assert cx.diffs[2] == [[Z, d2], [Z, -d1]]
    assert cx.diffs[3] == [[d1, d2], [Z, Z]]


def test_cochain_matrices_n3():
    f = d_surface()
    d1, d2, d3 = f.gradient()
    Z = Polynomial.zero(3)
    cx = cochain_complex(f, 5)
    assert cx.diffs[1] == [[d1, d2, d3], [Z, Z, Z], [Z, Z, Z], [Z, Z, Z]]
    assert cx.diffs[2] == [[Z, d2, d3, Z],
                           [Z, -d1, Z, d3],
                           [Z, Z, -d1, -d2],
                           [Z, Z, Z, Z]]
    assert cx.diffs[3] == [[d1, d2, d3, Z],
                           [Z, Z, Z, d3],
                           [Z, Z, Z, -d2],
                           [Z, Z, Z, d1]]


def test_chain_matrices_n2():
    f = d_curve()
    d1, d2 = f.diff(1), f.diff(2)
    Z = Polynomial.zero(2)
    cx = chain_complex(f, 5)
    assert cx.diffs[0] == [[Z, Z]]
    assert cx.diffs[1] == [[d1, Z], [d2, Z]]
    assert cx.diffs[2] == [[Z, Z], [-d2, d1]]
    assert cx.diffs[3] == [[2 * d1, Z], [2 * d2, Z]]
    assert cx.diffs[4] == [[Z, Z], [-2 * d2, 2 * d1]]


def test_chain_matrices_n3():
    f = d_surface()
    d1, d2, d3 = f.gradient()
    Z = Polynomial.zero(3)
    cx = chain_complex(f, 7)
    assert cx.diffs[1] == [[d1, Z, Z, Z], [d2, Z, Z, Z], [d3, Z, Z, Z]]
    # odd differential with the degree-dependent integer factor p = 1
    assert cx.diffs[2] == [[Z, Z, Z, Z],
                           [-d2, d1, Z, Z],
                           [-d3, Z, d1, Z],
                           [Z, -d3, d2, Z]]
    assert cx.diffs[3] == [[2 * d1, Z, Z, Z],
                           [2 * d2, Z, Z, Z],
                           [2 * d3, Z, Z, Z],
                           [Z, d3, -d2, d1]]
    assert cx.diffs[4] == [[Z, Z, Z, Z],
                           [-2 * d2, 2 * d1, Z, Z],
                           [-2 * d3, Z, 2 * d1, Z],
                           [Z, -2 * d3, 2 * d2, Z]]


@pytest.mark.parametrize("build", [cochain_complex, chain_complex])
@pytest.mark.parametrize("f", [d_curve(4), d_curve(7), d_surface(4),
                               d_surface(6),
                               Polynomial(1, {(4,): 1}),
                               Polynomial(3, {(3, 0, 0): 1, (0, 3, 0): 1,
                                              (0, 0, 3): 1})])
def test_d_squared_zero_and_entry_structure(build, f):
    cx = build(f, 8)
    terms = cx.verify_entries()
    cx.verify_d_squared_zero(terms)
    # the term check and the polynomial product agree
    assert _composites_vanish(cx)
    # the returned (row, i, k) terms rebuild every matrix exactly
    grad = f.gradient()
    for mat, columns in zip(cx.diffs, terms):
        rebuilt = [[Polynomial.zero(f.n)] * len(columns) for _ in mat]
        for c, column in enumerate(columns):
            for r, i, k in column:
                rebuilt[r][c] = k * grad[i - 1]
        assert rebuilt == mat


def test_sign_flip_breaks_d_squared_zero():
    cx = cochain_complex(d_surface(), 5)
    entry = cx.diffs[2][0][1]
    cx.diffs[2][0][1] = -entry
    assert not _composites_vanish(cx)
    with pytest.raises(AssertionError):
        cx.verify_d_squared_zero(cx.verify_entries())


@pytest.mark.parametrize("build", [cochain_complex, chain_complex])
def test_flipped_term_breaks_d_squared_zero(build):
    cx = build(d_surface(), 5)
    terms = [list(map(list, columns)) for columns in cx.verify_entries()]
    cx.verify_d_squared_zero(terms)
    r, i, k = terms[2][1][0]
    terms[2][1][0] = (r, i, -k)
    with pytest.raises(AssertionError):
        cx.verify_d_squared_zero(terms)


def test_weight_assignment_cochain():
    f = d_surface(4)
    ws = detect_weights(f)          # weights (4, 3, 2), degree 8
    cx = cochain_complex(f, 5)
    cx.assign_weights(ws)
    # eta_i carries d - w_i, b1 carries 0
    assert cx.modules[1].shifts == (4, 5, 6)
    assert cx.modules[2].shifts == (0, 9, 10, 11)
    assert cx.modules[5].shifts == (4, 5, 6, 15)


def test_weight_assignment_chain():
    f = d_surface(4)
    ws = detect_weights(f)
    cx = chain_complex(f, 5)
    cx.assign_weights(ws)
    # xi_i carries w_i, a1 carries d
    assert cx.modules[1].shifts == (4, 3, 2)
    assert cx.modules[2].shifts == (8, 7, 6, 5)
    assert cx.modules[5].shifts == (20, 19, 18, 17)


def test_weight_assignment_rejects_inhomogeneous_entry():
    f = d_surface(4)
    ws = detect_weights(f)
    cx = cochain_complex(f, 5)
    z2 = Polynomial.variable(3, 2)
    cx.diffs[1][0][0] = cx.diffs[1][0][0] + z2   # wrong weight
    with pytest.raises(AssertionError):
        cx.assign_weights(ws)


def test_layout_and_matrices_n1():
    f = Polynomial(1, {(4,): 1})
    d1 = f.diff(1)
    Z = Polynomial.zero(1)
    coc = cochain_complex(f, 5)
    chn = chain_complex(f, 5)
    for cx in (coc, chn):
        assert [m.elements for m in cx.modules] == [
            (BasisElement(0, ()),), (BasisElement(0, (1,)),),
            (BasisElement(1, ()),), (BasisElement(1, (1,)),),
            (BasisElement(2, ()),), (BasisElement(2, (1,)),)]
    # cochain: eta1 * b1^q -> d1 f * b1^(q+1); b1^q -> 0
    assert coc.diffs == [[[Z]], [[d1]], [[Z]], [[d1]], [[Z]]]
    # chain: a1^q -> q * d1 f * xi1 * a1^(q-1); xi1 * a1^q -> 0
    assert chn.diffs == [[[Z]], [[d1]], [[Z]], [[2 * d1]], [[Z]]]
    ws = detect_weights(f)          # weight (1,), degree 4
    coc.assign_weights(ws)
    chn.assign_weights(ws)
    assert [m.shifts for m in coc.modules] == [(0,), (3,)] * 3
    assert [m.shifts for m in chn.modules] == [(0,), (1,), (4,), (5,),
                                               (8,), (9,)]
