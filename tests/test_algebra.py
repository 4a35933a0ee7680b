import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhopf import (Basis, FinAlgebra, Fp, LegMul, LinearMap, PrimeField, QQ,
                   Tensor, corpus, invert_in_tensor_algebra,
                   invert_linear_map, mul_legs, specfile as sf)
from qhopf.algebra import _clean_table

import reference_builders as ref

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
    assert A.mul(A.e(1), A.e(1)) == A.e(2)


def test_tables_are_cleaned_where_zeros_can_arrive():
    """LegMul and FinAlgebra take their tables as given. What can meet a
    zero coefficient or an empty row cleans it first: _clean_table and
    the spec reader. LegMul.from_graph reads a tensor, which holds no
    zero coefficient, so its table is clean as well."""
    basis = Basis(("u", "x"), "B")
    dirty = {(0, 0): {0: F(1), 1: F(0)}, (0, 1): {1: F(1)},
             (1, 0): {1: F(1)}, (1, 1): {}}
    clean = {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 0): {1: F(1)}}
    assert _clean_table(dirty) == clean
    assert _clean_table(clean) is clean

    # x x = 0 gives an empty row, u u a zero coefficient
    graph = Tensor((basis,) * 3, {(i, j, k): c for (i, j), vec in
                                  dirty.items() for k, c in vec.items()}, QQ)
    assert LegMul.from_graph(graph).table == clean

    rows = [[0, 0, 0, 1, 1], [0, 0, 1, 0, 1], [0, 1, 1, 1, 1],
            [1, 0, 1, 1, 1], [1, 1, 0, 0, 3]]
    assert LegMul.from_graph(sf.tensor_from_rows(
        (basis,) * 3, rows, QQ)).table == clean
    # the algebra reader goes through the same rows
    doc = {"data": {"mult": rows, "unit": [[0, 1, 1]]}}
    A = sf._algebra(doc, basis, QQ)
    assert A.mult == clean and A.as_leg().table is A.mult


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
@pytest.mark.parametrize("key", ("z2_quasi", "s3"))
def test_legmul_graph_round_trip(key, field):
    # the graph holds the structure constants on legs (input, input,
    # output); from_graph inverts it, and the graph of a mixed pairing
    # keeps its three spaces
    H = corpus(field)[key]
    m = H.leg()
    g = m.graph()
    assert g.spaces == (H.basis,) * 3
    assert g.data == {(i, j, k): c for (i, j), vec in m.table.items()
                      for k, c in vec.items()}
    back = LegMul.from_graph(g)
    assert (back.left, back.right, back.out, back.table, back.field) == \
        (m.left, m.right, m.out, m.table, m.field)
    assert back.graph() == g
    other = Basis(("p", "q"), "P")
    mixed = LegMul(H.basis, other, other, {(1, 0): {1: field.one()}}, field)
    assert LegMul.from_graph(mixed.graph()).table == mixed.table
    assert mixed.graph().spaces == (H.basis, other, other)


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
    assert leg.table.get((1, 1), {}) == {0: F(1)}
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
            vecs = [leg.table.get((i, j), {})
                    for leg, i, j in zip(legs, xi, yi)]
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


def _mul_legs_scalar_loop(legs, x, y):
    """mul_legs as it was before it accumulated in integers: every
    product and sum is a Fraction or Fp operation. Kept verbatim as the
    reference for the integer kernel."""
    if len(x.spaces) != len(legs) or len(y.spaces) != len(legs):
        raise ValueError("leg count mismatch")
    for i, leg in enumerate(legs):
        if x.spaces[i] != leg.left or y.spaces[i] != leg.right:
            raise ValueError("leg %d basis mismatch" % i)
    out = Tensor.zero(tuple(leg.out for leg in legs), x.field)
    data = out.data
    ys = list(y.data.items())
    gets = [leg.table.get for leg in legs]
    for xi, cx in x.data.items():
        for yi, cy in ys:
            vecs = []
            for get, i, j in zip(gets, xi, yi):
                v = get((i, j))
                if not v:
                    break
                vecs.append(v.items())
            else:
                c0 = cx * cy
                for combo in itertools.product(*vecs):
                    idx = tuple([k for k, _ in combo])
                    c = c0
                    for _, s in combo:
                        if s != 1:
                            c = c * s
                    acc = data.get(idx)
                    acc = c if acc is None else acc + c
                    if acc:
                        data[idx] = acc
                    elif idx in data:
                        del data[idx]
    return out


BIG = 10 ** 9


def _scalars(kind, field):
    """Scalars of one kind: "Q" fractions with numerators and
    denominators up to 10^9, "Qint" small integers as Fractions, or
    residues of GF(p)."""
    if kind == "Q":
        return st.builds(Fraction, st.integers(-BIG, BIG),
                         st.integers(1, BIG))
    if kind == "Qint":
        return st.integers(-5, 5).map(Fraction)
    return st.integers(0, field.p - 1).map(field.from_int)


@st.composite
def leg_products(draw):
    kind = draw(st.sampled_from(("Q", "Qint", "GF3", "GF7")))
    field = QQ if kind.startswith("Q") else PrimeField(int(kind[2:]))
    nlegs = draw(st.integers(1, 4))
    top = 3 if nlegs <= 2 else 2
    scalars = _scalars(kind, field)
    # structure constants: one (skipped by the kernel), minus one, zero
    # (which mul_legs sums in as a zero term; the package's builders
    # never store one) and non-unit values of the same kind
    constants = st.one_of(
        st.sampled_from((1, -1, 0)).map(field.from_int),
        scalars,
        st.builds(Fraction, st.integers(-7, 7), st.integers(2, 9))
        if kind.startswith("Q") else scalars)
    legs, xs, ys = [], [], []
    for n in range(nlegs):
        dl, dr, do = (draw(st.integers(1, top)) for _ in range(3))
        left, right, out = (Basis(tuple("%s%d" % (tag, i) for i in range(d)),
                                  "%s%d" % (tag, n))
                            for tag, d in (("l", dl), ("r", dr), ("o", do)))
        table = draw(st.dictionaries(
            st.tuples(st.integers(0, dl - 1), st.integers(0, dr - 1)),
            st.dictionaries(st.integers(0, do - 1), constants, max_size=do)))
        legs.append(LegMul(left, right, out, table, field))
        xs.append(left)
        ys.append(right)

    def operand(spaces):
        keys = st.tuples(*(st.integers(0, b.dim - 1) for b in spaces))
        return Tensor(spaces, draw(st.dictionaries(keys, scalars,
                                                   max_size=6)), field)

    return tuple(legs), operand(tuple(xs)), operand(tuple(ys))


def _cancelling_case(field):
    """(e0 + e1) * e0 with e0 e0 = e0 and e1 e0 = -e0 (p - 1 in GF(p)):
    the two terms cancel, as integers over Q and only modulo p over
    GF(p)."""
    basis = Basis(("b0", "b1"), "B")
    minus = field.from_int(-1) if field == QQ else field.from_int(field.p - 1)
    leg = LegMul(basis, basis, basis,
                 {(0, 0): {0: field.one()}, (1, 0): {0: minus, 1: minus}},
                 field)
    x = Tensor((basis,), {(0,): field.one(), (1,): field.one()}, field)
    return (leg,), x, Tensor.basis_vector(basis, 0, field)


@settings(max_examples=300, deadline=None)
@given(leg_products())
@example(_cancelling_case(QQ))
@example(_cancelling_case(PrimeField(3)))
def test_mul_legs_matches_scalar_loop(case):
    legs, x, y = case
    got = mul_legs(legs, x, y)
    want = _mul_legs_scalar_loop(legs, x, y)
    assert got.spaces == want.spaces
    assert got.data == want.data
    assert all(got.data.values())
    kind = Fraction if x.field == QQ else Fp
    assert all(type(c) is kind for c in got.data.values())


def test_mul_legs_refuses_mixed_fields():
    gf3, gf7 = PrimeField(3), PrimeField(7)
    basis = Basis(("b0", "b1"), "B")

    def leg(field):
        return LegMul(basis, basis, basis,
                      {(0, 1): {1: field.one()}}, field)

    def vec(field):
        return Tensor.basis_vector(basis, 0, field) + \
            Tensor.basis_vector(basis, 1, field)

    for legf, xf, yf in ((QQ, QQ, gf7), (gf7, gf7, gf3), (QQ, gf7, gf7),
                         (gf3, gf3, QQ), (gf7, QQ, QQ)):
        with pytest.raises(ValueError, match="field mismatch"):
            mul_legs((leg(legf),), vec(xf), vec(yf))


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


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
def test_invert_in_tensor_algebra_matches_reference(field, nongroup):
    """invert_in_tensor_algebra, its flat indices read from _flat_keys,
    against the copy that indexed through FlatSpace's split and join:
    Phi of z2_quasi and of z2z2_twisted, the paired Phi (x) Phi^{-1} of
    the non-group basis of k[Z/3] (the reassociator of H (x) H^op), and
    a zero divisor, which neither inverts."""
    entries = corpus(field)
    K = nongroup(field)
    KK = K.tensor_with(K.opposite())
    z2 = entries["z2"]
    singular = (z2.e(0) + z2.e(1)).tensor(z2.unit()).tensor(z2.unit())
    cases = [((H.algebra,) * 3, H.phi, H.phi_inv) for H in (
        entries["z2_quasi"], entries["z2z2_twisted"], KK)]
    cases.append(((z2.algebra,) * 3, singular, None))
    for algebras, x, inverse in cases:
        got = invert_in_tensor_algebra(algebras, x)
        want = ref.invert_in_tensor_algebra(algebras, x)
        assert got == want == inverse


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
def test_invert_in_tensor_algebra_raises_internal_failures(field,
                                                           monkeypatch):
    """solve_linear raises ArithmeticError only when its own substitution
    check fails, an internal invariant: invert_in_tensor_algebra lets it
    out, so a bug is never reported as "no inverse", while a zero
    divisor still has none."""
    import qhopf.algebra as algebra
    z2 = corpus(field)["z2"]
    singular = (z2.e(0) + z2.e(1)).tensor(z2.unit())
    assert invert_in_tensor_algebra((z2.algebra,) * 2, singular) is None

    def failing(*args):
        raise ArithmeticError("substitution check failed after elimination")

    monkeypatch.setattr(algebra, "solve_linear", failing)
    with pytest.raises(ArithmeticError, match="substitution check"):
        invert_in_tensor_algebra((z2.algebra,) * 3, z2.phi)


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
