import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhopf import (Basis, FinAlgebra, LegMul, LinearMap, PrimeField, QQ,
                   Tensor, corpus, invert_in_tensor_algebra,
                   invert_linear_map, mul_legs)

F = Fraction


def cyclic_mult(n):
    return {(i, j): {(i + j) % n: F(1)} for i in range(n) for j in range(n)}


def cyclic_algebra(n):
    basis = Basis(tuple("g%d" % i for i in range(n)), "C%d" % n)
    unit = Tensor((basis,), {(0,): F(1)}, QQ)
    return FinAlgebra(basis, cyclic_mult(n), unit, QQ)


def test_finalgebra_basics():
    A = cyclic_algebra(3)
    assert A.dim == 3
    assert A.is_associative() is None
    assert A.unit_laws_hold() is None
    assert A.mul(A.e(1), A.e(2)) == A.e(0)
    assert A.mulc(A.e(1), A.e(1), A.e(1)) == A.e(0)
    assert A.mul_indices(1, 1) == A.e(2)


def test_nonassociative_detected():
    basis = Basis(("u", "x", "y"), "NA")
    unit = Tensor((basis,), {(0,): F(1)}, QQ)
    # (x x) x = y x = 0 while x (x x) = x y = u
    mult = {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (0, 2): {2: F(1)},
            (1, 0): {1: F(1)}, (2, 0): {2: F(1)},
            (1, 1): {2: F(1)}, (1, 2): {0: F(1)},
            (2, 1): {}, (2, 2): {}}
    A = FinAlgebra(basis, mult, unit, QQ)
    assert A.unit_laws_hold() is None
    bad = A.is_associative()
    assert bad is not None
    i, j, k = bad
    x, y, z = A.e(i), A.e(j), A.e(k)
    assert A.mul(A.mul(x, y), z) != A.mul(x, A.mul(y, z))


def test_broken_unit_detected():
    basis = Basis(("u", "x"), "BU")
    unit = Tensor((basis,), {(1,): F(1)}, QQ)
    mult = cyclic_mult(2)
    A = FinAlgebra(basis, mult, unit, QQ)
    assert A.unit_laws_hold() is not None


def test_opposite():
    A = cyclic_algebra(3)
    op = A.opposite()
    assert op.basis.name.endswith("^op")
    for i in range(3):
        for j in range(3):
            assert op.mult.get((i, j), {}) == A.mult.get((j, i), {})
    assert op.is_associative() is None


def test_legmul_and_mul_legs():
    A = cyclic_algebra(2)
    leg = A.as_leg()
    assert leg.pair(1, 1) == {0: F(1)}
    x = A.e(0) + A.e(1)
    y = A.e(1)
    prod = mul_legs((leg, leg), x.tensor(x), y.tensor(y))
    # (e0+e1)(x)(e0+e1) times e1(x)e1 componentwise
    expect = A.mul(x, y).tensor(A.mul(x, y))
    assert prod == expect


def _mul_legs_by_terms(legs, x, y):
    """Leg-wise product with every structure constant multiplied in: the
    reference for mul_legs, which skips constants equal to one."""
    field = x.field
    out = Tensor.zero(tuple(leg.out for leg in legs), field)
    for xi, cx in x.data.items():
        for yi, cy in y.data.items():
            vecs = [leg.pair(i, j) for leg, i, j in zip(legs, xi, yi)]
            for combo in itertools.product(*(v.items() for v in vecs)):
                c = cx * cy
                for _, s in combo:
                    c = c * s
                idx = tuple(k for k, _ in combo)
                out = out + Tensor(out.spaces, {idx: c}, field)
    return out


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
@pytest.mark.parametrize("nlegs", (1, 2, 3))
def test_mul_legs_matches_term_sum(field, nlegs):
    rng = random.Random(nlegs)
    basis = Basis(("b0", "b1", "b2"), "B")
    # constants drawn mostly from {1, -1}, so that the products mix
    # skipped and multiplied-in constants, with zeros and cancellations
    coeffs = (1, 1, 1, -1, 2, 0)

    def rand_leg():
        table = {(i, j): {k: field.from_int(rng.choice(coeffs))
                          for k in range(3) if rng.random() < 0.5}
                 for i in range(3) for j in range(3)}
        return LegMul(basis, basis, basis, table, field)

    def rand_tensor():
        idx = list(itertools.product(range(3), repeat=nlegs))
        return Tensor((basis,) * nlegs,
                      {i: field.from_int(rng.choice(coeffs + (3,)))
                       for i in rng.sample(idx, min(len(idx), 5))}, field)

    for _ in range(20):
        legs = tuple(rand_leg() for _ in range(nlegs))
        x, y = rand_tensor(), rand_tensor()
        got = mul_legs(legs, x, y)
        assert got == _mul_legs_by_terms(legs, x, y)
        assert all(got.data.values())


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
def test_cached_leg_matches_fresh_legmul(field):
    rng = random.Random(0)
    for key, H in corpus(field).items():
        A = H.algebra
        leg = A.as_leg()
        assert A.as_leg() is leg, key
        fresh = (LegMul(A.basis, A.basis, A.basis, A.mult, field),)

        def rand_elt():
            return Tensor((A.basis,), {(i,): field.from_int(rng.randint(-3, 3))
                                       for i in range(A.dim)}, field)

        for _ in range(5):
            x, y, z = rand_elt(), rand_elt(), rand_elt()
            assert A.mul(x, y) == mul_legs(fresh, x, y), key
            assert A.mulc(x, y, z) == mul_legs(
                fresh, mul_legs(fresh, x, y), z), key
        assert A.as_leg() is leg, key
        assert leg.table == fresh[0].table, key
        assert leg.table is A.mult, key


def test_invert_in_tensor_algebra():
    A = cyclic_algebra(2)
    unit2 = A.unit_tensor().tensor(A.unit_tensor())
    x = A.e(0).tensor(A.e(0)).scale(F(1, 2)) + A.e(1).tensor(A.e(1))
    legs = (A.as_leg(), A.as_leg())
    y = invert_in_tensor_algebra((A, A), x)
    assert y is not None
    assert mul_legs(legs, x, y) == unit2
    assert mul_legs(legs, y, x) == unit2
    # a zero divisor has no inverse
    z = A.e(0) + A.e(1)
    assert invert_in_tensor_algebra((A,), z) is None


def test_invert_linear_map():
    A = cyclic_algebra(3)
    # the permutation g -> g^2 is invertible
    f = LinearMap(A.basis, (A.basis,),
                  {i: {((2 * i) % 3,): F(1)} for i in range(3)}, QQ)
    g = invert_linear_map(f)
    assert g is not None
    for i in range(3):
        assert g(f(A.e(i))) == A.e(i)
        assert f(g(A.e(i))) == A.e(i)
    # projection is singular
    p = LinearMap(A.basis, (A.basis,), {i: {(0,): F(1)} for i in range(3)},
                  QQ)
    assert invert_linear_map(p) is None


@settings(max_examples=25)
@given(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_group_algebra_inverses(coeffs):
    A = cyclic_algebra(3)
    x = Tensor((A.basis,), {(i,): F(c) for i, c in enumerate(coeffs) if c},
               QQ)
    y = invert_in_tensor_algebra((A,), x)
    if y is not None:
        assert A.mul(x, y) == A.unit_tensor()
        assert A.mul(y, x) == A.unit_tensor()
