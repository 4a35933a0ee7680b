from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhopf import Basis, LinearMap, QQ, Tensor, product_basis

from reference_builders import pair_legs

B2 = Basis(("e", "g"), "B2")
B3 = Basis(("a", "b", "c"), "B3")


def rand_tensor(draw_entries, spaces):
    data = {}
    for idx, num in draw_entries:
        data[idx] = Fraction(num)
    return Tensor(spaces, {k: v for k, v in data.items() if v}, QQ)


def test_basis_basics():
    assert B2.dim == 2
    assert B2.index("g") == 1
    assert B2.dual().labels == ("e*", "g*")
    assert B2 == Basis(("e", "g"), "B2")
    assert B2 != Basis(("e", "g"), "other")
    assert hash(B2) == hash(Basis(("e", "g"), "B2"))


def test_product_basis_row_major():
    p = product_basis(B2, B3)
    assert p.dim == 6
    # flat index i * dim(B3) + j
    assert p.labels[1 * 3 + 2] == "g|c"
    assert p.labels[0] == "e|a"


def test_tensor_arithmetic():
    x = Tensor((B2,), {(0,): Fraction(2)}, QQ)
    y = Tensor((B2,), {(0,): Fraction(1), (1,): Fraction(-1)}, QQ)
    assert (x + y).data == {(0,): Fraction(3), (1,): Fraction(-1)}
    assert (x - x).data == {}
    assert (-y).coeff((1,)) == Fraction(1)
    assert x.scale(Fraction(1, 2)).coeff((0,)) == Fraction(1)
    with pytest.raises(ValueError):
        x + Tensor((B3,), {}, QQ)


def test_tensor_product_and_permute():
    x = Tensor((B2,), {(0,): Fraction(2), (1,): Fraction(3)}, QQ)
    y = Tensor((B3,), {(2,): Fraction(5)}, QQ)
    t = x.tensor(y)
    assert t.spaces == (B2, B3)
    assert t.coeff((1, 2)) == Fraction(15)
    assert t.permute((1, 0)).coeff((2, 1)) == Fraction(15)
    assert t.permute((1, 0)).permute((1, 0)) == t


def test_pair_legs():
    # contract e^i (x) e_j legs, by the reference the product tests keep
    t = Tensor((B2.dual(), B2, B3),
               {(0, 0, 1): Fraction(4), (1, 0, 2): Fraction(7)}, QQ)
    c = pair_legs(t, 0, 1)
    assert c.spaces == (B3,)
    assert c.coeff((1,)) == Fraction(4)
    assert c.coeff((2,)) == Fraction(0)


def test_linear_map_basics():
    f = LinearMap(B2, (B3,), {0: {(1,): Fraction(2)},
                              1: {(0,): Fraction(1), (2,): Fraction(3)}}, QQ)
    x = Tensor((B2,), {(0,): Fraction(1), (1,): Fraction(1)}, QQ)
    y = f(x)
    assert y.coeff((1,)) == Fraction(2)
    assert y.coeff((2,)) == Fraction(3)
    ident = LinearMap.identity(B2, QQ)
    assert ident(x) == x
    g = LinearMap(B3, (B2,), {0: {(0,): Fraction(1)},
                              1: {(1,): Fraction(1)}}, QQ)
    gf = g.compose(f)
    assert gf(Tensor.basis_vector(B2, 0, QQ)).coeff((1,)) == Fraction(2)


def test_compose_maps_one_codomain_leg_of_every_column():
    f = LinearMap(B3, (B2, B3), {0: {(1, 2): Fraction(2)},
                                 2: {(0, 0): Fraction(-1),
                                     (1, 1): Fraction(1, 3)}}, QQ)
    g = LinearMap(B2, (B3, B2), {0: {(1, 1): Fraction(5)},
                                 1: {(0, 0): Fraction(1),
                                     (2, 1): Fraction(-2)}}, QQ)
    h = LinearMap(B3, (), {1: {(): Fraction(4)}, 2: {(): Fraction(3)}}, QQ)
    for leg, k in ((0, g), (1, h)):
        fk = k.compose(f, leg)
        assert fk.codomain == f.codomain[:leg] + k.codomain + \
            f.codomain[leg + 1:]
        for m in range(B3.dim):
            assert fk.column(m) == f.column(m).map_leg(leg, k)
    with pytest.raises(ValueError):
        g.compose(f, 1)


def test_map_leg_on_middle_leg():
    f = LinearMap(B2, (B2, B2),
                  {i: {(i, i): Fraction(1)} for i in range(2)}, QQ)
    t = Tensor((B3, B2), {(1, 1): Fraction(2)}, QQ)
    out = t.map_leg(1, f)
    assert out.spaces == (B3, B2, B2)
    assert out.coeff((1, 1, 1)) == Fraction(2)


entries = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 2)),
    st.integers(-5, 5), max_size=5)


@given(entries, entries, st.integers(-4, 4))
def test_tensor_linearity(d1, d2, s):
    mk = lambda d: Tensor((B2, B3), {k: Fraction(v) for k, v in d.items()
                                     if v}, QQ)
    x, y = mk(d1), mk(d2)
    c = Fraction(s)
    assert (x + y).scale(c) == x.scale(c) + y.scale(c)
    assert x + y == y + x
    f = LinearMap.identity(B2, QQ)
    assert (x + y).map_leg(0, f) == x.map_leg(0, f) + y.map_leg(0, f)


@given(entries)
def test_scalar_tensor_identity(d):
    x = Tensor((B2, B3), {k: Fraction(v) for k, v in d.items() if v}, QQ)
    one = Tensor.scalar(Fraction(1), QQ)
    assert one.tensor(x) == x
    assert x.tensor(one) == x
