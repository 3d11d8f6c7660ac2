from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hochschild.linalg import nullspace, rank_dense, rank_sparse
from reference import gauss_jordan_nullspace, read_as_given


def test_rank_of_identity():
    m = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert rank_dense(m) == 4


def test_rank_with_zero_column():
    m = [[0, 1, 0, 0], [-1, 0, 0, Fraction(1, 3)],
         [0, 0, Fraction(-1, 3), Fraction(-2, 3)],
         [0, 2, 0, 0], [0, 0, -3, -1]]
    assert rank_dense(m) == 4


def test_rank_empty():
    assert rank_dense([]) == 0
    assert rank_sparse([]) == 0


def test_sparse_rank_duplicate_rows():
    rows = [{0: Fraction(1), 2: Fraction(2)},
            {0: Fraction(2), 2: Fraction(4)},
            {1: Fraction(1)}]
    assert rank_sparse(rows) == 2


def test_sparse_rank_of_mixed_rows_leaves_them_unchanged():
    # all-int rows are read as given, the others are copied as ints;
    # both kinds become pivots and both are reduced against either kind.
    # The rows are reduced shortest first, but the caller's list keeps
    # its order
    rows = [{0: 2, 3: -4},
            {1: 3, 2: 1},
            {0: 1, 1: 0, 3: -2},                        # half of row 0
            {0: Fraction(1, 2), 2: Fraction(2, 3)},
            {1: Fraction(3, 2), 2: Fraction(1, 2)},     # half of row 1
            {0: 3, 1: 3, 2: 1, 3: -6},                  # 3/2 row 0 + row 1
            {0: 3, 2: 4},                               # 6 times row 3
            {0: 0, 3: Fraction(5, 7)}]
    before = [dict(row) for row in rows]
    ids = list(map(id, rows))
    dense = [[row.get(j, 0) for j in range(4)] for row in rows]
    assert rank_sparse(rows) == rank_dense(dense) == 4
    assert list(map(id, rows)) == ids
    assert rows == before
    assert [[type(v) for v in row.values()] for row in rows] == \
        [[type(v) for v in row.values()] for row in before]


def test_nullspace_of_rank_deficient_matrix():
    m = [[Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(2), Fraction(4), Fraction(6)]]
    basis = nullspace(m)
    assert len(basis) == 2
    for vec in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, vec)) == 0


entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)
matrices = st.integers(1, 7).flatmap(
    lambda r: st.integers(1, 7).flatmap(
        lambda c: st.lists(st.lists(entries, min_size=c, max_size=c),
                           min_size=r, max_size=r)))


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_dense_and_sparse_ranks_agree(m):
    sparse = [{j: v for j, v in enumerate(row) if v} for row in m]
    assert rank_dense(m) == rank_sparse(sparse)


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_rank_plus_nullity(m):
    # rank_dense and nullspace share one echelon, so the rank is the
    # sparse one: the two counts come from independent eliminations
    sparse = [{j: v for j, v in enumerate(row) if v} for row in m]
    assert rank_sparse(sparse) + len(nullspace(m)) == len(m[0])


mixed_entries = st.one_of(st.just(0), st.integers(-4, 4), entries)
mixed_matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(st.lists(mixed_entries, min_size=c, max_size=c),
                           min_size=r, max_size=r)))


def _typed(basis):
    return [[(type(x), x) for x in vec] for vec in basis]


@settings(max_examples=150, deadline=None)
@given(mixed_matrices)
@example([[2, 4, 6], [1, 2, 3]])
@example([[0, 0], [0, 0]])
@example([[Fraction(1, 2), 3, 0, -1], [0, 0, 2, Fraction(-2, 3)]])
def test_nullspace_matches_gauss_jordan_reference(m):
    # the same basis, entry for entry and int or Fraction alike: the
    # weights' Fourier-Motzkin fallback reads it as it is
    assert _typed(nullspace(m)) == _typed(gauss_jordan_nullspace(m))


sparse_entries = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.integers(-4, 4).map(Fraction),
    st.integers(2 ** 64, 2 ** 70).flatmap(lambda x: st.sampled_from((x, -x))),
)
sparse_matrices = st.integers(1, 8).flatmap(
    lambda c: st.tuples(st.just(c), st.lists(
        st.dictionaries(st.integers(0, c - 1), sparse_entries, max_size=c),
        max_size=8)))
combinations = st.lists(st.lists(st.sampled_from(
    (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), 2 ** 65))), max_size=4)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices, combinations)
def test_sparse_rank_matches_dense_reference(shape, combos):
    ncols, rows = shape
    # dependent rows: combinations of the drawn ones, zeros kept
    for coefficients in combos:
        combo = {}
        for x, row in zip(coefficients, rows):
            for j, v in row.items():
                combo[j] = combo.get(j, 0) + x * v
        rows.append(combo)
    before = [dict(row) for row in rows]
    dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    assert rank_sparse(rows) == rank_dense(dense)
    assert rows == before


class CountedRow(dict):
    """A sparse row that counts the reads of its values."""

    reads = 0

    def values(self):
        self.reads += 1
        return super().values()


def test_sparse_rank_stops_at_the_bound_with_rows_unread():
    # two keys: the two 1-entry rows are pivots for both, and the longer
    # rows, each in their span, are never read
    rows = [CountedRow({0: 2, 1: 3}), CountedRow({1: 5}),
            CountedRow({0: 1, 1: -1}), CountedRow({0: 7})]
    assert rank_sparse(rows) == 2
    assert [row.reads for row in rows] == [0, 1, 0, 1]


class ItemsCountedRow(dict):
    """A sparse row that counts the reads of its items, which
    `rank_sparse` makes only to copy a row it does not read as given."""

    reads = 0

    def items(self):
        self.reads += 1
        return super().items()


predicate_entries = st.one_of(
    st.integers(-4, 4),
    st.booleans(),
    st.integers(2 ** 65, 2 ** 66).flatmap(lambda x: st.sampled_from((x, -x))),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.integers(-4, 4).map(Fraction),
    st.sampled_from((0, Fraction(0), False)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(predicate_entries, max_size=6))
@example([])
@example([2 ** 65, -(2 ** 65)])
@example([Fraction(1, 2), Fraction(1, 2)])
@example([True, 3, Fraction(0)])
def test_sparse_rank_reads_a_row_as_given_by_the_reference_test(values):
    # a row rank_sparse reads as given is never copied; any other row
    # is copied as ints, through one read of its items
    row = ItemsCountedRow(enumerate(values))
    assert rank_sparse([row]) == int(any(values))
    assert row.reads == (not read_as_given(row.values()))


def test_sparse_rank_of_wide_rows_reaches_the_row_count():
    # fewer rows than keys: the rank never reaches the key count, so
    # every row is reduced, and the last (longest) one is a pivot
    rows = [{0: 1, 1: 2, 2: 3, 3: 4}, {0: 1, 1: 1}, {1: 1, 2: -1}]
    assert rank_sparse(rows) == 3
    assert rank_sparse(rows[1:]) == 2


def test_sparse_rank_with_a_zero_valued_key():
    # key 2 holds only 0s: it counts towards the bound (3 rows, 3 keys)
    # but the rank is 2, so the elimination has to run to the end
    rows = [{0: 1, 2: 0}, {1: 1, 2: Fraction(0)}, {0: 1, 1: 1}]
    assert rank_sparse(rows) == 2
    assert rank_sparse([{0: 0}]) == 0
    assert rank_sparse([{0: 1, 1: 0}, {0: -3}]) == 1


def test_sparse_rank_of_a_generator():
    rows = [{0: 1, 1: 2}, {1: 1}, {0: 2, 1: 5}, {2: Fraction(1, 3)}]
    assert rank_sparse(dict(row) for row in rows) == 3
    assert rank_sparse(row for row in ()) == 0


tall_matrices = st.integers(1, 6).flatmap(
    lambda c: st.tuples(
        st.just(c),
        st.lists(st.dictionaries(st.integers(0, c - 1), sparse_entries,
                                 max_size=c), min_size=1, max_size=c),
        st.lists(st.lists(st.sampled_from(
            (0, 1, -1, 3, Fraction(1, 2), 2 ** 65))),
            min_size=c + 1, max_size=c + 4)))


@settings(max_examples=150, deadline=None)
@given(tall_matrices, st.data())
def test_sparse_rank_of_tall_matrices_under_row_permutations(shape, data):
    # more rows than keys, the dependent rows (combinations of the
    # drawn ones, zeros kept) first: the rank reaches its bound at
    # different points, or never when the drawn rows are dependent
    ncols, drawn, combos = shape
    rows = []
    for coefficients in combos:
        combo = {}
        for x, row in zip(coefficients, drawn):
            for j, v in row.items():
                combo[j] = combo.get(j, 0) + x * v
        rows.append(combo)
    rows += drawn
    assert len(rows) > ncols
    dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    rank = rank_dense(dense)
    assert rank_sparse(rows) == rank
    assert rank_sparse(data.draw(st.permutations(rows))) == rank
