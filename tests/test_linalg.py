from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhopf import PrimeField, QQ, RowSpan, solve_linear
from qhopf.linalg import invert_matrix_map

import reference_builders as ref

F = Fraction


def vec(*entries):
    return {i: F(v) for i, v in enumerate(entries) if v}


def test_rowspan_rank_and_membership():
    span = RowSpan(QQ)
    assert span.add(vec(1, 0, 1))
    assert span.add(vec(0, 1, 1))
    assert not span.add(vec(1, 1, 2))  # dependent
    assert span.rank == 2
    assert span.coordinates(vec(2, 3, 5)) is not None
    assert span.coordinates(vec(0, 0, 1)) is None


def test_rowspan_coordinates_reconstruct():
    span = RowSpan(QQ)
    rows = [vec(1, 2), vec(3, 1)]
    for r in rows:
        span.add(r)
    target = vec(5, 4)
    coords = span.coordinates(target)
    assert coords == {0: F(5), 1: F(4)}
    rebuilt = {}
    for j, c in coords.items():
        for k, v in span.rows[j].items():
            rebuilt[k] = rebuilt.get(k, F(0)) + c * v
    assert {k: v for k, v in rebuilt.items() if v} == target


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
def test_rowspan_coordinates_missing_pivots_are_absent(field):
    span = RowSpan(field)
    for r in ((1, 0, 2, 0), (0, 1, 0, 0), (0, 0, 1, 3)):
        span.add({i: field.from_int(v) for i, v in enumerate(r) if v})
    # 2 e_0 - 12 e_3 is twice the reduced first row e_0 - 6 e_3 and has
    # no entry at pivots 1 and 2
    coords = span.coordinates({0: field.from_int(2), 3: field.from_int(-12)})
    assert coords == {0: field.from_int(2)}
    assert [type(c) for c in coords.values()] == [type(field.zero())]
    assert span.coordinates({3: field.one()}) is None


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
def test_zero_entries_are_not_pivots(field):
    """An explicit zero entry is dropped where a vector enters: it is
    neither read as a pivot nor returned as a coefficient."""
    zero, one, two = field.zero(), field.one(), field.from_int(2)
    span = RowSpan(field)
    assert span.add({1: one})
    assert span.coordinates({1: two, 0: zero}) == {0: two}
    assert span.reduce({1: two, 0: zero}) == {}
    assert span.coordinates({0: zero}) == {}
    assert not span.add({1: one, 3: zero})
    assert span.add({0: zero, 2: one})
    assert span.position == {1: 0, 2: 1}
    assert span.rows == [{1: one}, {2: one}]
    assert solve_linear([{0: zero, 1: one}], [one], field) == {1: one}
    assert solve_linear([{0: zero}], [one], field) is None
    assert solve_linear([{0: zero, 1: two}, {0: one, 1: zero}],
                        [one, two], field) == {0: two, 1: one / two}


def test_rowspan_reduce_is_zero_iff_spanned():
    span = RowSpan(QQ)
    span.add(vec(1, 1, 0))
    span.add(vec(0, 0, 1))
    assert not span.reduce(vec(2, 2, 7))
    assert span.reduce(vec(1, 0, 0))


def test_solve_linear():
    rows = [vec(2, 1), vec(1, 3)]
    rhs = [F(5), F(10)]
    sol = solve_linear(rows, rhs, QQ)
    assert sol is not None
    for row, b in zip(rows, rhs):
        assert sum(c * sol.get(k, F(0)) for k, c in row.items()) == b
    # inconsistent system
    assert solve_linear([vec(1, 1), vec(2, 2)], [F(1), F(3)], QQ) is None
    # underdetermined but consistent system still has a solution
    sol = solve_linear([vec(1, 1)], [F(4)], QQ)
    assert sol is not None
    assert sum(sol.values()) == F(4)


def test_invert_matrix_map():
    mat = [[F(1), F(2)], [F(1), F(3)]]

    def apply_fn(j):
        return {i: mat[i][j] for i in range(2) if mat[i][j]}

    cols = invert_matrix_map(apply_fn, 2, QQ)
    assert cols is not None
    # mat composed with its inverse columns is the identity
    for j in range(2):
        out = {}
        for k, c in cols[j].items():
            for i, d in apply_fn(k).items():
                out[i] = out.get(i, F(0)) + d * c
        assert {i: c for i, c in out.items() if c} == {j: F(1)}
    # singular map has no inverse
    assert invert_matrix_map(lambda j: {0: F(1)}, 2, QQ) is None


@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_rowspan_rank_bounds(rows):
    span = RowSpan(QQ)
    added = 0
    for r in rows:
        if span.add(vec(*r)):
            added += 1
    assert span.rank == added <= 3
    for r in rows:
        v = vec(*r)
        spanned = span.coordinates(v) is not None
        assert spanned == (not span.reduce(v))
        if v:
            assert spanned


def _random_vectors(field, data, count):
    entries = st.dictionaries(st.integers(0, 5), st.integers(-3, 3),
                              max_size=4)
    return [{i: field.from_int(c) for i, c in data.draw(entries).items()}
            for _ in range(count)]


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
@given(data=st.data())
def test_rowspan_reads_coordinates_at_pivots(field, data):
    """After random adds (zero entries included), every row is one at its
    own pivot and zero at every other, which is what lets coordinates
    read a vector's entries at the pivots; coordinates and reduce agree
    with the reference span that eliminates against every row."""
    span, old = RowSpan(field), ref.RowSpan(field)
    for v in _random_vectors(field, data, data.draw(st.integers(1, 6))):
        assert span.add(v) == old.add({k: c for k, c in v.items() if c})
    assert list(span.position) == old.pivots
    assert span.rows == old.rows
    for piv, j in span.position.items():
        for k, row in enumerate(span.rows):
            assert row.get(piv) == (field.one() if k == j else None)
    for v in _random_vectors(field, data, 4):
        nonzero = {k: c for k, c in v.items() if c}
        want = old.coordinates(nonzero)
        got = span.coordinates(v)
        assert got == (None if want is None else
                       {j: c for j, c in enumerate(want) if c})
        assert span.reduce(v) == old.reduce(nonzero)
