"""The staged leg-by-leg _leg_sum (under mul_legs and multiplicative) and
the Sweedler sums of algebra.sweedler against the per-pair kernels and
per-term sums they replace (reference_builders.py), over Q with
non-integral coefficients and over GF(7): on random sparse and dense
tensors of 0 to 4 legs that mix algebra legs of several dimensions with
actions, on random terms, on the corpus, on gauge twists and on k[Z/3]
in a non-group basis, whose structure constants are not all one and
whose antipode matrix is not symmetric."""

import itertools
import random
from fractions import Fraction

import pytest

import reference_builders as ref
from reference_builders import FlatSpace
from qhopf import (Basis, LegMul, LinearMap, PrimeField, QQ,
                   Tensor, canonical_right_comodule, corpus,
                   invert_in_tensor_algebra, is_gauge, mul_legs, sandwich,
                   sweedler, twist)
from qhopf import algebra
from qhopf.algebra import flat_pairing, multiplicative

FIELDS = pytest.mark.parametrize("field", (QQ, PrimeField(7)),
                                 ids=("Q", "GF7"))


def _per_pair(acc, gets, xs, ys):
    """The reference _leg_sum in the calling form of the staged one."""
    ref._leg_sum(acc, gets, xs.items(), list(ys.items()))


def _scalar(field, rng):
    """A nonzero scalar: a fraction with a denominator up to 6 over Q,
    a residue over GF(p)."""
    while True:
        c = (Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if field == QQ
             else field.from_int(rng.randrange(field.p)))
        if c:
            return c


def _pairing(field, rng, left, right, out):
    """A pairing of the bases left and right into out with a random
    table: several entries per row, scalars other than one."""
    table = {}
    for i in range(left.dim):
        for j in range(right.dim):
            row = {k: _scalar(field, rng) for k in range(out.dim)
                   if rng.random() < 0.6}
            if row:
                table[(i, j)] = row
    return LegMul(left, right, out, table, field)


def _random_leg(field, rng, dims, tag):
    """A random pairing (_pairing) of new bases of dims (left, right,
    out)."""
    return _pairing(field, rng, *(
        Basis(tuple("%s%s%d" % (tag, side, i) for i in range(d)), tag + side)
        for side, d in zip("lro", dims)))


def _leg_pool(field, nongroup):
    """Legs to mix: small ones (dense operands stay small on them) and
    large ones, the algebras of z2, z3, s3 and k[Z/3] in a non-group
    basis, the action of s3 on its dual and random pairings."""
    rng = random.Random(5)
    H = corpus(field)
    small = [H["z2"].leg(), H["z3"].leg(), nongroup(field).leg(),
             _random_leg(field, rng, (2, 3, 2), "p"),
             _random_leg(field, rng, (3, 2, 3), "q")]
    large = [H["s3"].leg(), H["s3"].dual.hit_l_leg]
    return small, large


def _random_tensor(field, rng, spaces, dense):
    idx = list(itertools.product(*(range(b.dim) for b in spaces)))
    keys = idx if dense else rng.sample(idx, min(len(idx),
                                                 rng.randint(1, 6)))
    return Tensor(spaces, {k: _scalar(field, rng) for k in keys}, field)


@FIELDS
@pytest.mark.parametrize("dense", (False, True), ids=("sparse", "dense"))
@pytest.mark.parametrize("nlegs", (0, 1, 2, 3, 4))
def test_staged_mul_legs_matches_per_pair(field, nlegs, dense, nongroup,
                                          monkeypatch):
    small, large = _leg_pool(field, nongroup)
    rng = random.Random(100 * nlegs + dense)
    cases = []
    for _ in range(12):
        pool = small if dense else small + large
        legs = tuple(rng.choice(pool) for _ in range(nlegs))
        cases.append((legs, _random_tensor(
            field, rng, tuple(leg.left for leg in legs), dense),
            _random_tensor(field, rng, tuple(leg.right for leg in legs),
                           dense)))
    staged = [mul_legs(*case) for case in cases]
    monkeypatch.setattr(algebra, "_leg_sum", _per_pair)
    for case, got in zip(cases, staged):
        want = mul_legs(*case)
        assert got.spaces == want.spaces
        assert got.data == want.data


@FIELDS
@pytest.mark.parametrize("nlegs", (0, 1, 2, 3))
def test_sandwich_matches_mul_legs_per_column(field, nlegs, nongroup):
    """sandwich(f, x, xlegs, y, ylegs) against x f(e_m) y formed by
    mul_legs column by column, with both sides, with one of them left
    out, and on maps with empty columns; the legs are algebras of
    several dimensions (k[Z/3] in a non-group basis among them) and
    random pairings between them."""
    rng = random.Random(20 + nlegs)
    H = nongroup(field)
    bases = [H.basis, corpus(field)["z2"].basis,
             Basis(("u0", "u1", "u2", "u3"), "U4")]
    domain = Basis(("d0", "d1", "d2", "d3"), "D")
    for trial in range(6):
        if trial == 0:
            mid = left = out = (H.basis,) * nlegs
        else:
            mid, left, out = (tuple(rng.choice(bases) for _ in range(nlegs))
                              for _ in range(3))
        right, end = (tuple(rng.choice(bases) for _ in range(nlegs))
                      for _ in range(2))
        xlegs = tuple(H.leg() if a == b == c == H.basis
                      else _pairing(field, rng, a, b, c)
                      for a, b, c in zip(left, mid, out))
        ylegs, ymid = (tuple(_pairing(field, rng, a, b, c)
                             for a, b, c in zip(lhs, right, end))
                       for lhs in (out, mid))
        f = LinearMap(domain, mid, {
            m: _random_tensor(field, rng, mid, trial % 2).data
            for m in range(domain.dim) if m % 3 or trial % 3}, field)
        x = _random_tensor(field, rng, left, trial % 2)
        y = _random_tensor(field, rng, right, 1 - trial % 2)
        for xs, ys in (((x, xlegs), (y, ylegs)), ((x, xlegs), None),
                       (None, (y, ymid))):
            got = sandwich(f, *(xs or (None, ())), *(ys or (None, ())))
            for m in range(domain.dim):
                want = f.column(m)
                if xs:
                    want = mul_legs(xs[1], xs[0], want)
                if ys:
                    want = mul_legs(ys[1], want, ys[0])
                assert got.codomain == want.spaces
                assert got.column(m).data == want.data


@FIELDS
def test_sandwich_rejects_mismatched_pairings(field, nongroup):
    H = nongroup(field)
    z2 = corpus(field)["z2"]
    leg, one2 = H.leg(), H.unit().tensor(H.unit())
    for kwargs in ({"x": one2, "xlegs": (leg,)},
                   {"x": one2, "xlegs": (leg, z2.leg())},
                   {"x": z2.unit().tensor(z2.unit()), "xlegs": (leg, leg)},
                   {"y": one2, "ylegs": ()},
                   {"x": one2, "xlegs": (leg, leg), "y": one2,
                    "ylegs": (leg, H.dual.hit_r_leg)}):
        with pytest.raises(ValueError):
            sandwich(H.comul, **kwargs)


def _sides(pair):
    """Every slice of both tables of a side-builder."""
    return [[table.part(i) for i in range(table.dims[0])] for table in pair]


@FIELDS
def test_multiplicative_matches_per_pair(field, nongroup, subgroup_comodule,
                                         monkeypatch):
    """counit-hom (no legs), comul-hom, antipode-antihom (into H^op) and a
    coaction that is an algebra map, whose legs are a two-dimensional
    comodule algebra beside H."""
    cases = []
    for H in list(corpus(field).values()) + [nongroup(field)]:
        ca = canonical_right_comodule(H)
        cases += [(H.counit, H.leg(), ()),
                  (H.comul, H.leg(), (H.leg(), H.leg())),
                  (H.antipode, H.leg(), (H.algebra.opposite(),)),
                  (ca.coaction, ca.algebra,
                   (ca.algebra, H.leg()))]
    ka = subgroup_comodule(field)
    cases.append((ka.coaction, ka.algebra,
                  (ka.algebra, ka.H.leg())))
    staged = [_sides(multiplicative(*case)) for case in cases]
    monkeypatch.setattr(algebra, "_leg_sum", _per_pair)
    for case, got in zip(cases, staged):
        assert got == _sides(multiplicative(*case))


def _gauge_twist(H, rng):
    """A counital gauge twist F = 1 (x) 1 + x (x) y with eps(x) =
    eps(y) = 0 and random (over Q non-integral) coefficients."""
    field = H.field
    eps = [H.eps(H.e(i)) for i in range(H.dim)]
    k = next(i for i in range(H.dim) if eps[i])
    one = H.unit()
    while True:
        vecs = []
        for _ in range(2):
            c = {i: _scalar(field, rng) for i in range(H.dim) if i != k}
            c[k] = -sum((c[i] * eps[i] for i in c), field.zero()) / eps[k]
            vecs.append(Tensor((H.basis,), {(i,): v for i, v in c.items()
                                            if v}, field))
        F = one.tensor(one) + vecs[0].tensor(vecs[1])
        if is_gauge(H, F):
            return F


def _chain_subjects(field, nongroup):
    """The corpus, k[Z/3] in a non-group basis and two gauge twists of
    each of z3, s3 and the non-group k[Z/3]."""
    rng = random.Random(11)
    H = corpus(field)
    subjects = list(H.values()) + [nongroup(field)]
    for base in (H["z3"], H["s3"], nongroup(field)):
        subjects += [twist(base, _gauge_twist(base, rng)) for _ in range(2)]
    return subjects


@FIELDS
def test_sweedler_chain_matches_assemble(field, nongroup):
    """q5's two sums on every Delta(e_i), q6's two sums and the alpha_F,
    beta_F of twists, as chains of one product term of sweedler, against
    the H.assemble chains they replace."""
    rng = random.Random(13)
    for H in _chain_subjects(field, nongroup):
        m, S = H.leg(), H.antipode
        sums = []
        for i in range(H.dim):
            d = H.delta(H.e(i))
            sums += [((m, (S, 0), H.alpha, 1), d, "S-alpha"),
                     ((m, 0, H.beta, (S, 1)), d, "beta-S")]
        sums += [((m, 0, H.beta, (S, 1), H.alpha, 2), H.phi, "q6-phi"),
                 ((m, (S, 0), H.alpha, 1, H.beta, (S, 2)), H.phi_inv,
                  "q6-phi-inv")]
        for term, source, which in sums:
            assert sweedler(source, (term,)) == \
                ref.antipode_chains(H, source, which), (H.name, which)
        F = _gauge_twist(H, rng)
        HF = twist(H, F)
        F_inv = invert_in_tensor_algebra((H.algebra,) * 2, F)
        assert HF.alpha == ref.antipode_chains(H, F_inv, "S-alpha")
        assert HF.beta == ref.antipode_chains(H, F, "beta-S")


@FIELDS
def test_sweedler_chain_of_empty_source_is_zero(field):
    """An empty source sums to zero on the terms' spaces, and so does a
    zero tensor among the terms; a term that does not fit its space is
    refused, source empty or not."""
    H = corpus(field)["s3"]
    m, S = H.leg(), H.antipode
    zero = Tensor.zero((H.basis,) * 2, field)
    assert sweedler(zero, ((m, (S, 0), H.alpha, 1),)) == \
        Tensor.zero((H.basis,), field)
    assert sweedler(zero, (1, (H.dual.hit_l_leg, 0, H.dual.e(0)))) \
        == Tensor.zero((H.basis, H.dual.basis), field)
    bad = (2, -1, (S, 0, 1), (m, 0), (H.comul, 0), (m, 0, H.phi),
           (H.dual.hit_r_leg, 0, 1), (S, H.dual.e(0)), "x",
           (m, 0, corpus(QQ if field != QQ else PrimeField(7))["s3"].alpha))
    for source in (zero, H.delta(H.e(1))):
        for term in bad:
            with pytest.raises(ValueError):
                sweedler(source, (term,))
    # a zero one-leg tensor as a factor, a map's input or a leg of its
    # own makes a zero sum, over a nonzero source too
    z = Tensor.zero((H.basis,), field)
    for legs in (((m, 0, z),), ((m, z, 1),), ((m, 0, z, (S, 1)),),
                 ((S, z),), ((S, (m, z, 0)),), (0, z), (z, (m, 0, 1))):
        assert sweedler(H.delta(H.e(1)), legs) == \
            Tensor.zero((H.basis,) * len(legs), field)


def _random_map(field, rng, domain, codomain):
    """A map of domain into one codomain leg with random columns, some of
    them empty."""
    return LinearMap(domain, (codomain,), {
        i: {(k,): _scalar(field, rng) for k in range(codomain.dim)
            if rng.random() < 0.6}
        for i in range(domain.dim) if rng.random() < 0.85}, field)


def _random_term(field, rng, source, space, bases, depth):
    """A random Sweedler term whose value lies in space: a carried leg
    of source on that space, a tensor (zero at times), a map applied to
    a term, or a product of two or three terms by a random pairing."""
    carried = [r for r, b in enumerate(source.spaces) if b == space]
    pick = rng.random() if depth else 0
    if pick < 0.3:
        if carried and rng.random() < 0.8:
            return rng.choice(carried)
        kind = rng.random()
        if kind < 0.2:
            return Tensor.zero((space,), field)
        return _random_tensor(field, rng, (space,), kind < 0.6)
    if pick < 0.5:
        mid = rng.choice(bases)
        return (_random_map(field, rng, mid, space),
                _random_term(field, rng, source, mid, bases, depth - 1))
    if pick < 0.8:
        left, right = rng.choice(bases), rng.choice(bases)
        return (_pairing(field, rng, left, right, space),
                _random_term(field, rng, source, left, bases, depth - 1),
                _random_term(field, rng, source, right, bases, depth - 1))
    right = rng.choice(bases)
    return (_pairing(field, rng, space, right, space),) + tuple(
        _random_term(field, rng, source, b, bases, depth - 1)
        for b in (space, right, right))


def _term_value(term, idx, source):
    """The one-leg tensor of a Sweedler term at the source term idx,
    by basis vectors, map_leg and mul_legs."""
    if isinstance(term, int):
        return Tensor.basis_vector(source.spaces[term], idx[term],
                                   source.field)
    if isinstance(term, Tensor):
        return term
    op, *args = term
    if isinstance(op, LinearMap):
        return _term_value(args[0], idx, source).map_leg(0, op)
    value = _term_value(args[0], idx, source)
    for arg in args[1:]:
        value = mul_legs((op,), value, _term_value(arg, idx, source))
    return value


def _per_term_sum(source, legs):
    """The sum over the source's terms of the terms' values tensored
    (_term_value), or None for an empty source."""
    want = None
    for idx, c in source.data.items():
        term = Tensor.scalar(c, source.field)
        for t in legs:
            term = term.tensor(_term_value(t, idx, source))
        want = term if want is None else want + term
    return want


@FIELDS
def test_sweedler_matches_per_term_sum(field):
    """sweedler on random terms (carried legs, tensors, zero ones among
    them, maps and nested products of two or three factors by random
    pairings) over random
    sources of one to four legs, sparse, dense and empty, against the
    sum over the source's terms of the terms' values tensored."""
    rng = random.Random(31)
    bases = [Basis(tuple("%s%d" % (tag, i) for i in range(d)), tag)
             for tag, d in (("A", 2), ("B", 3), ("C", 2))]
    nonzero = 0
    for trial in range(40):
        spaces = tuple(rng.choice(bases) for _ in range(rng.randint(1, 4)))
        source = _random_tensor(field, rng, spaces, trial % 3 == 1)
        if trial % 10 == 9:
            source = Tensor.zero(spaces, field)
        legs = tuple(_random_term(field, rng, source, rng.choice(bases),
                                  bases, rng.randint(0, 3))
                     for _ in range(rng.randint(1, 3)))
        got = sweedler(source, legs)
        want = _per_term_sum(source, legs)
        if want is None:
            assert not got.data
        else:
            assert (got.spaces, got.data) == (want.spaces, want.data)
        nonzero += bool(got.data)
    assert nonzero >= 20


@FIELDS
def test_pairing_terms_match_packed_sum(field):
    """sweedler with pairing terms (flat_pairing) against FlatSpace.pack
    of the per-term sum with the paired terms as legs of their own: one
    level, A (x) B into one leg, and two, (A (x) B) (x) C as
    sm.flatten(qs.element(a, phi) (x) h) nests them, on random terms
    over random sources, empty ones among them. The factors of
    different dimensions (2 and 3) make the row-major order matter. A
    pairing whose factors do not fit its terms is refused."""
    rng = random.Random(37)
    bases = [Basis(tuple("%s%d" % (tag, i) for i in range(d)), tag)
             for tag, d in (("A", 2), ("B", 3), ("C", 2))]
    A, B, C = bases
    inner = FlatSpace((A, B), field)
    outer = FlatSpace((inner.basis, C), field)
    p_in = flat_pairing(A, B, inner.basis, field)
    p_out = flat_pairing(inner.basis, C, outer.basis, field)
    nonzero = 0
    for trial in range(30):
        spaces = tuple(rng.choice(bases) for _ in range(rng.randint(1, 3)))
        source = _random_tensor(field, rng, spaces, trial % 3 == 1)
        if trial % 10 == 9:
            source = Tensor.zero(spaces, field)
        t1, t2, t3 = (_random_term(field, rng, source, b, bases,
                                   rng.randint(0, 2)) for b in bases)
        want = _per_term_sum(source, (t1, t2, t3))
        for got, pack in (
                (sweedler(source, ((p_in, t1, t2), t3)), inner.pack),
                (sweedler(source, ((p_out, (p_in, t1, t2), t3),)),
                 lambda t: outer.pack(inner.pack(t)))):
            if want is None:
                assert not got.data
            else:
                packed = pack(want)
                assert (got.spaces, got.data) == (packed.spaces, packed.data)
            nonzero += bool(got.data)
        for bad in ((p_in, t2, t1), (p_in, t1), (p_out, t1, t3),
                    (p_out, (p_in, t1, t2), t1)):
            with pytest.raises(ValueError):
                sweedler(source, (bad,))
    assert nonzero >= 20
    with pytest.raises(ValueError):
        flat_pairing(A, B, outer.basis, field)
