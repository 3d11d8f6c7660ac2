from fractions import Fraction
from itertools import combinations

import pytest

from hochschild.grading import detect_weights
from hochschild.koszul import (
    BasisElement,
    chain_complex,
    cochain_complex,
    shift,
)
from hochschild.poly import Polynomial


def d_surface(k=4):
    return Polynomial(3, {(2, 0, 0): 1, (0, 2, 1): 1, (0, 0, k): 1})


def d_curve(k=4):
    return Polynomial(2, {(2, 1): 1, (0, k - 1): 1})


def _dense(cx):
    """Each differential of cx as a matrix of Polynomials, one row per
    target component: entry (row, c) is k * d_i f for the term
    (row, i, k) of column c, and 0 where column c has no term."""
    grad = cx.f.gradient()
    mats = []
    for p, columns in enumerate(cx.diffs):
        height = len(cx.modules[cx.ends(p)[1]].elements)
        mat = [[Polynomial.zero(cx.n)] * len(columns) for _ in range(height)]
        for c, column in enumerate(columns):
            for r, i, k in column:
                mat[r][c] = k * grad[i - 1]
        mats.append(mat)
    return mats


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
    mats = _dense(cx)
    for p in range(len(mats) - 1):
        if cx.direction == "cochain":
            second, first = mats[p + 1], mats[p]
        else:
            second, first = mats[p], mats[p + 1]
        if any(not e.is_zero() for row in _matmul(second, first) for e in row):
            return False
    return True


def _parity_sign(odd: tuple, basis_odd: tuple) -> int:
    perm = [basis_odd.index(i) for i in odd]
    inversions = sum(a > b for a, b in combinations(perm, 2))
    return -1 if inversions % 2 else 1


def _images(direction: str, n: int, elem: BasisElement):
    """d(elem) as (coefficient, partial index, power, odd tuple) terms,
    the odd tuple not yet rewritten in the basis orientation."""
    m, odd = elem
    if direction == "cochain":
        j = len(odd)
        for k, i in enumerate(odd):
            yield (-1) ** (j - 1 - k), i, m + 1, odd[:k] + odd[k + 1:]
    elif m:
        for i in range(1, n + 1):
            if i not in odd:
                yield m, i, m - 1, (i,) + odd


def _reference_columns(cx, p):
    """diffs[p] by the permutation rule: each image's odd tuple is
    rewritten as the basis tuple of its set, times the parity of the
    permutation between them."""
    src, tgt = cx.ends(p)
    row_of = {(e.power, frozenset(e.odd)): (r, e.odd)
              for r, e in enumerate(cx.modules[tgt].elements)}
    columns = []
    for elem in cx.modules[src].elements:
        terms = []
        for coeff, i, power, odd in _images(cx.direction, cx.n, elem):
            r, basis_odd = row_of[(power, frozenset(odd))]
            terms.append((r, i, coeff * _parity_sign(odd, basis_odd)))
        columns.append(tuple(sorted(terms)))
    return tuple(columns)


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
    mats = _dense(cochain_complex(f, 5))
    assert mats[0] == [[Z], [Z]]
    assert mats[1] == [[d1, d2], [Z, Z]]
    assert mats[2] == [[Z, d2], [Z, -d1]]
    assert mats[3] == [[d1, d2], [Z, Z]]


def test_cochain_matrices_n3():
    f = d_surface()
    d1, d2, d3 = f.gradient()
    Z = Polynomial.zero(3)
    mats = _dense(cochain_complex(f, 5))
    assert mats[1] == [[d1, d2, d3], [Z, Z, Z], [Z, Z, Z], [Z, Z, Z]]
    assert mats[2] == [[Z, d2, d3, Z],
                           [Z, -d1, Z, d3],
                           [Z, Z, -d1, -d2],
                           [Z, Z, Z, Z]]
    assert mats[3] == [[d1, d2, d3, Z],
                           [Z, Z, Z, d3],
                           [Z, Z, Z, -d2],
                           [Z, Z, Z, d1]]


def test_chain_matrices_n2():
    f = d_curve()
    d1, d2 = f.diff(1), f.diff(2)
    Z = Polynomial.zero(2)
    mats = _dense(chain_complex(f, 5))
    assert mats[0] == [[Z, Z]]
    assert mats[1] == [[d1, Z], [d2, Z]]
    assert mats[2] == [[Z, Z], [-d2, d1]]
    assert mats[3] == [[2 * d1, Z], [2 * d2, Z]]
    assert mats[4] == [[Z, Z], [-2 * d2, 2 * d1]]


def test_chain_matrices_n3():
    f = d_surface()
    d1, d2, d3 = f.gradient()
    Z = Polynomial.zero(3)
    mats = _dense(chain_complex(f, 7))
    assert mats[1] == [[d1, Z, Z, Z], [d2, Z, Z, Z], [d3, Z, Z, Z]]
    # odd differential with the degree-dependent integer factor p = 1
    assert mats[2] == [[Z, Z, Z, Z],
                           [-d2, d1, Z, Z],
                           [-d3, Z, d1, Z],
                           [Z, -d3, d2, Z]]
    assert mats[3] == [[2 * d1, Z, Z, Z],
                           [2 * d2, Z, Z, Z],
                           [2 * d3, Z, Z, Z],
                           [Z, d3, -d2, d1]]
    assert mats[4] == [[Z, Z, Z, Z],
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
    # no partial of these f is 0, so every generated term is returned
    assert terms == cx.diffs


def test_sign_flip_breaks_d_squared_zero():
    cx = cochain_complex(d_surface(), 5)
    cx.diffs[2] = tuple(map(list, cx.diffs[2]))
    r, i, k = cx.diffs[2][1][0]         # entry (0, 1) is d_2 f
    assert (r, i, k) == (0, 2, 1)
    cx.diffs[2][1][0] = (r, i, -k)
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
    # a term naming a partial of another weight than its entry's
    f = d_surface(4)
    ws = detect_weights(f)          # d_1 f, d_2 f, d_3 f weigh 4, 5, 6
    cx = cochain_complex(f, 5)
    cx.diffs[1] = tuple(map(list, cx.diffs[1]))
    r, i, k = cx.diffs[1][0][0]
    assert i == 1
    cx.diffs[1][0][0] = (r, 2, k)
    cx.verify_entries()             # still well formed
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
    assert _dense(coc) == [[[Z]], [[d1]], [[Z]], [[d1]], [[Z]]]
    # chain: a1^q -> q * d1 f * xi1 * a1^(q-1); xi1 * a1^q -> 0
    assert _dense(chn) == [[[Z]], [[d1]], [[Z]], [[2 * d1]], [[Z]]]
    ws = detect_weights(f)          # weight (1,), degree 4
    coc.assign_weights(ws)
    chn.assign_weights(ws)
    assert [m.shifts for m in coc.modules] == [(0,), (3,)] * 3
    assert [m.shifts for m in chn.modules] == [(0,), (1,), (4,), (5,),
                                               (8,), (9,)]


@pytest.mark.parametrize("build", [cochain_complex, chain_complex])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_terms_match_the_permutation_sign_rule(build, n):
    f = Polynomial(n, {tuple(3 * (a == b) for b in range(n)): 1
                       for a in range(n)})
    cx = build(f, 9)
    for p, columns in enumerate(cx.diffs):
        assert columns == _reference_columns(cx, p), p


@pytest.mark.parametrize("at, term", [
    (1, (0, 1, -1)),            # a second term on row 0
    (1, (1, 1, 0)),             # k = 0
    (1, (1, 1, Fraction(-1))),  # k not an int
    (1, (1, 1, True)),
    (1, (1, 0, -1)),            # i out of range
    (1, (1, 4, -1)),
    (0, (-1, 2, 1)),            # row out of range, rows still increasing
    (1, (4, 1, -1)),            # the target has rows 0..3
])
def test_verify_entries_rejects_a_malformed_term(at, term):
    cx = cochain_complex(d_surface(), 5)
    cx.diffs[2] = tuple(map(list, cx.diffs[2]))
    column = cx.diffs[2][1]
    assert column == [(0, 2, 1), (1, 1, -1)]
    column[at] = term
    with pytest.raises(AssertionError):
        cx.verify_entries()


def test_verify_entries_drops_the_terms_of_a_zero_partial():
    f = Polynomial(3, {(2, 0, 0): 1, (0, 0, 45): 1})     # d_2 f = 0
    for build in (cochain_complex, chain_complex):
        cx = build(f, 5)
        terms = cx.verify_entries()
        assert any(i == 2 for cols in cx.diffs for col in cols
                   for _, i, _ in col)
        assert terms == [tuple(tuple(t for t in col if t[1] != 2)
                               for col in cols) for cols in cx.diffs]
        cx.verify_d_squared_zero(terms)
        cx.assign_weights(detect_weights(f))


def _relative(column):
    """A column with each k divided by its first: the chain side's
    factor m, which the power shift raises, divides out."""
    return tuple((r, i, Fraction(k, column[0][2])) for r, i, k in column)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_layout_recurs_two_degrees_up(n):
    # from p = n - 1 on, module p + 2 is module p with each power
    # raised by 1, and diffs[p + 2] is diffs[p]: as it is on the cochain
    # side, up to each column's factor on the chain side.  Below, the
    # two-degrees-up module has a component more
    f = Polynomial(n, {tuple(2 * (a == b) for b in range(n)): 1
                       for a in range(n)})
    for build, same in ((cochain_complex, tuple), (chain_complex, _relative)):
        cx = build(f, 14)
        layout = [m.elements for m in cx.modules]
        for p in range(n - 1, 12):
            assert layout[p + 2] == tuple(
                BasisElement(e.power + 1, e.odd) for e in layout[p]), p
            assert list(map(same, cx.diffs[p + 2])) == \
                list(map(same, cx.diffs[p])), p
        if n > 1:
            assert len(layout[n]) > len(layout[n - 2])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cochain_tail_shares_one_object_checked_once(n):
    # one object stands at every other degree of the cochain tail, and
    # `verify_entries` returns its checked columns as one object there
    f = Polynomial(n, {tuple(3 * (a == b) for b in range(n)): 1
                       for a in range(n)})
    cx = cochain_complex(f, 12)
    terms = cx.verify_entries()
    for p in range(n - 1, 10):
        assert cx.diffs[p + 2] is cx.diffs[p], p
        assert terms[p + 2] is terms[p], p
    cx.verify_d_squared_zero(terms)
    # the chain side shares the pattern, not the object: the factor m
    # of each column differs two degrees up
    chn = chain_complex(f, 12)
    assert all(chn.diffs[p + 2] is not chn.diffs[p] for p in range(10))


def test_a_flip_in_a_shared_differential_and_in_a_copy_are_caught():
    # a sign flipped in the object the tail shares breaks d^2 = 0 at
    # each degree it stands at; a flipped copy at one degree alone is
    # checked on its own and caught there
    f = d_surface()
    cx = cochain_complex(f, 8)
    shared = cx.diffs[3]
    assert cx.diffs[5] is shared
    flipped = tuple(column[:-1] + ((column[-1][0], column[-1][1],
                                    -column[-1][2]),) if column else column
                    for column in shared)
    for degrees in ((3, 5, 7), (5,)):
        cx = cochain_complex(f, 8)
        for p in degrees:
            cx.diffs[p] = flipped
        with pytest.raises(AssertionError, match="d o d"):
            cx.verify_d_squared_zero(cx.verify_entries())


@pytest.mark.parametrize("build", [cochain_complex, chain_complex])
@pytest.mark.parametrize("f", [d_curve(5), d_surface(5),
                               Polynomial(1, {(6,): 1}),
                               Polynomial(3, {(5, 0, 0): 1, (0, 4, 0): 1,
                                              (0, 0, 7): 1})])
def test_shifts_are_the_shift_rule_of_every_element(build, f):
    # `assign_weights` reads a shift as the even generator's weight
    # times the power plus the odd set's: each must be `shift` itself
    ws = detect_weights(f)
    cx = build(f, 9)
    cx.assign_weights(ws)
    for m in cx.modules:
        assert m.shifts == tuple(shift(cx.direction, ws, e)
                                 for e in m.elements)
