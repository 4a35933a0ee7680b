from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhopf import (Basis, LinearMap, PrimeField, QQ, RowSpan, algebra,
                   canonical_bicomodule, corpus, crossed_comodule_algebra,
                   invert_in_tensor_algebra, invert_linear_map, linalg,
                   quasi_smash, smash_product, solve_linear)

import reference_builders as ref
from test_cli import fixed_twist

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


def test_invert_linear_map_of_matrix():
    mat = [[F(1), F(2)], [F(1), F(3)]]
    V = Basis(("v0", "v1"))
    f = LinearMap(V, (V,), {j: {(i,): mat[i][j] for i in range(2)}
                            for j in range(2)}, QQ)
    g = invert_linear_map(f)
    assert g is not None
    # mat composed with its inverse columns is the identity
    for j in range(2):
        out = {}
        for (k,), c in g.cols[j].items():
            for (i,), d in f.cols[k].items():
                out[i] = out.get(i, F(0)) + d * c
        assert {i: c for i, c in out.items() if c} == {j: F(1)}
    # singular map has no inverse
    p = LinearMap(V, (V,), {j: {(0,): F(1)} for j in range(2)}, QQ)
    assert invert_linear_map(p) is None


FIELDS = pytest.mark.parametrize("field", (QQ, PrimeField(7)),
                                 ids=("Q", "GF7"))


def _draw_rows(field, data, count, width):
    """count sparse rows over columns 0..width-1 with entries in -2..2,
    explicit zero entries among them."""
    entry = st.one_of(st.none(), st.integers(-2, 2))
    return [{col: field.from_int(v)
             for col, v in enumerate(data.draw(st.lists(
                 entry, min_size=width, max_size=width))) if v is not None}
            for _ in range(count)]


def _same_solution(got, want):
    """Equal dicts in the same order, or both None."""
    return got == want and (got is None or list(got) == list(want))


@FIELDS
@given(data=st.data())
def test_solve_linear_matches_reference(field, data):
    """The solve read off one RowSpan gives the per-row elimination's
    solution dict, in its order, or None with it: on random systems
    with zero entries, singular and underdetermined ones among them,
    and with a row added that contradicts the first two."""
    width = data.draw(st.integers(1, 5))
    rows = _draw_rows(field, data, data.draw(st.integers(1, 5)), width)
    rhs = [field.from_int(data.draw(st.integers(-2, 2))) for _ in rows]
    if len(rows) > 1 and data.draw(st.booleans()):
        clash = dict(rows[0])
        for col, c in rows[1].items():
            clash[col] = clash.get(col, field.zero()) + c
        rows.append(clash)
        rhs.append(rhs[0] + rhs[1] + field.one())
        assert solve_linear(rows, rhs, field) is None
    assert _same_solution(solve_linear(rows, rhs, field),
                          ref.solve_linear(rows, rhs, field))


@FIELDS
@given(data=st.data())
def test_invert_linear_map_matches_reference(field, data):
    """One elimination of [M | I] gives the per-column inverse, with
    its columns' entries in the same order, or None with it; a copied
    column makes M singular."""
    dim = data.draw(st.integers(1, 4))
    cols = _draw_rows(field, data, dim, dim)
    if dim > 1 and data.draw(st.booleans()):
        cols[-1] = dict(cols[0])
    V = Basis(tuple("v%d" % i for i in range(dim)))
    f = LinearMap(V, (V,), {j: {(i,): c for i, c in col.items()}
                            for j, col in enumerate(cols)}, field)
    got, want = invert_linear_map(f), ref.invert_linear_map(f)
    assert got == want
    if got is not None:
        assert [list(col) for col in got.cols.values()] == \
            [list(col) for col in want.cols.values()]


@FIELDS
def test_exact_inverses_match_reference(field):
    """F^{-1} of the fixed gauge twist of k[Z/4] and Phi^{-1} of
    z2z2_twisted, solved through the package's solve_linear and through
    the reference copy: the same tensors, entries in the same order."""
    H, F4 = fixed_twist(4, field)
    Hq = corpus(field)["z2z2_twisted"]
    for algebras, x in (((H.algebra,) * 2, F4),
                        ((Hq.algebra,) * 3, Hq.phi)):
        got = invert_in_tensor_algebra(algebras, x)
        want = ref.invert_in_tensor_algebra(algebras, x)
        assert got is not None
        assert list(got.data.items()) == list(want.data.items())


def test_crossed_left_reassociator_solve_matches_reference(monkeypatch):
    """The system that inverts the left reassociator of
    crossed_comodule_algebra on z3 over GF(7) (2,187 unknowns): the
    package's solve and the reference copy give the same dict."""
    field = PrimeField(7)
    H = corpus(field)["z3"]
    systems = []

    def captured(rows, rhs, field):
        systems.append((rows, rhs))
        return solve_linear(rows, rhs, field)

    ba = canonical_bicomodule(H)
    HHop = H.tensor_with(H.opposite())
    qs = quasi_smash(ba.right)
    sm = smash_product(qs)
    monkeypatch.setattr(algebra, "solve_linear", captured)
    crossed_comodule_algebra(ba, HHop, qs, sm)
    ((rows, rhs),) = systems
    assert len({col for row in rows for col in row}) == 2187
    got = solve_linear(rows, rhs, field)
    assert got is not None
    assert _same_solution(got, ref.solve_linear(rows, rhs, field))


def _count_adds(monkeypatch):
    calls = []
    add = linalg.RowSpan.add

    def counted(self, vec):
        calls.append(vec)
        return add(self, vec)

    monkeypatch.setattr(linalg.RowSpan, "add", counted)
    return calls


@pytest.mark.parametrize("dim", (1, 3, 6))
def test_inverse_is_one_elimination(dim, monkeypatch):
    """Inverting a d-dimensional map adds exactly its d rows of
    [M | I] to one span (not one elimination per column)."""
    V = Basis(tuple("v%d" % i for i in range(dim)))
    f = LinearMap(V, (V,), {j: {(j,): F(1), ((j + 1) % dim,): F(j + 2)}
                            for j in range(dim)}, QQ)
    calls = _count_adds(monkeypatch)
    assert invert_linear_map(f) is not None
    assert len(calls) == dim


def test_inconsistent_solve_stops_at_first_clash(monkeypatch):
    """y0 = 1 and then y0 = 2: the solve stops at the second row and
    never adds the rows after it."""
    rows = [vec(1), vec(1), vec(0, 1), vec(0, 0, 1)]
    calls = _count_adds(monkeypatch)
    assert solve_linear(rows, [F(1), F(2), F(1), F(1)], QQ) is None
    assert len(calls) == 2


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
