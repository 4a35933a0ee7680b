from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhopf import PrimeField, QQ, RowSpan, solve_linear
from qhopf.linalg import invert_matrix_map

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
    assert coords is not None
    rebuilt = {}
    for c, row in zip(coords, span.rows):
        for k, v in row.items():
            rebuilt[k] = rebuilt.get(k, F(0)) + c * v
    assert {k: v for k, v in rebuilt.items() if v} == target


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
def test_rowspan_coordinates_missing_pivots_are_field_zeros(field):
    span = RowSpan(field)
    for r in ((1, 0, 2, 0), (0, 1, 0, 0), (0, 0, 1, 3)):
        span.add({i: field.from_int(v) for i, v in enumerate(r) if v})
    # 2 e_0 - 12 e_3 is twice the reduced first row e_0 - 6 e_3 and has
    # no entry at pivots 1 and 2
    coords = span.coordinates({0: field.from_int(2), 3: field.from_int(-12)})
    assert coords is not None
    assert coords == [field.from_int(2), field.zero(), field.zero()]
    assert [type(c) for c in coords] == [type(field.zero())] * 3
    assert span.coordinates({3: field.one()}) is None


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
