"""The Sweedler sums that write two terms into one flattened leg
(algebra.flat_pairing as a sweedler term) against the per-column
assemble builders they replaced (reference_builders.py), over Q and
GF(7): the coactions of the canonical two-sided Hopf modules, theta and
theta^{-1}, HomSmash.star_table, the elements K, U1 . u # U2, X and E_t of
the module functors, the coaction and reassociator of
crossed_comodule_algebra, nested_smash_direct, the stage one of
crossed_smash_direct and tensor_with.

Subjects: the corpus, k[Z/3] in a non-group basis, k^S3 (Delta not
cocommutative, eps with zero entries), the fixed twist of k[Z/3], and
k<a> in k[Z/2 x Z/2] (Phi_rho is not Phi, A is not H), with seeded
mutants of rho and Phi_rho. On a group algebra Delta(h) = h (x) h, so two
legs of a coproduct carry the same index and a sum that reads the wrong
one passes; the mutants add terms off the diagonal, so it does not."""

import random

import pytest

import reference_builders as ref
from qhopf import (LinearMap, PrimeField, QQ, RightComoduleAlgebra,
                   canonical_bicomodule, canonical_first_module,
                   canonical_right_comodule, canonical_second_module, corpus,
                   crossed_comodule_algebra, crossed_smash_direct,
                   cyclic_right_submodule, doihopf, dual_module_algebra,
                   module_isomorphism, nested_smash_direct, quasi_smash,
                   relative_from_smash_module, relative_from_two_sided,
                   smash_product, twist, two_sided_from_relative,
                   two_sided_from_smash_module)
from qhopf.products import HomSmash

from test_cli import fixed_twist
from test_lifted_builders import _copy, _crossed_chain
from test_tables import _function_algebra

FIELDS = pytest.mark.parametrize("field", (QQ, PrimeField(7)),
                                 ids=("Q", "GF7"))


def _skewed(f: LinearMap, rng, count: int) -> LinearMap:
    """f with count seeded terms added, each in a random column at a
    random multi-index whose indices are not all equal (when the
    codomain has two legs or more), by 1, 2 or -1."""
    field = f.field
    cols = {k: dict(v) for k, v in f.cols.items()}
    for _ in range(count):
        while True:
            idx = tuple(rng.randrange(b.dim) for b in f.codomain)
            if len(idx) < 2 or len(set(idx)) > 1:
                break
        col = cols.setdefault(rng.randrange(f.domain.dim), {})
        col[idx] = col.get(idx, field.zero()) + field.from_int(
            rng.choice((1, 2, -1)))
    return LinearMap(f.domain, f.codomain, cols, field)


def _skewed_tensor(t, rng, count: int):
    """t with count seeded terms added (_skewed on t read as the graph
    of a map from its leg 0)."""
    return _skewed(LinearMap.from_graph(t), rng, count).graph()


def _algebras(field):
    """The corpus, k[Z/3] in a non-group basis, k^S3 and the fixed
    twist of k[Z/3]."""
    from conftest import nongroup_z3
    C = corpus(field)
    return list(C.values()) + [nongroup_z3(field), _function_algebra(C["s3"]),
                               twist(*fixed_twist(3, field))]


def _klein_mutants(ka, rng):
    """k<a> with seeded skew terms added to rho, to Phi_rho (Phi_rho^{-1}
    kept) and to Phi_rho^{-1} (Phi_rho kept)."""
    out = []
    for count in (1, 2):
        out.append(RightComoduleAlgebra(ka.H, ka.algebra,
                                        _skewed(ka.coaction, rng, count),
                                        ka.phi_rho, ka.phi_rho_inv,
                                        name=ka.name))
        for name in ("phi_rho", "phi_rho_inv"):
            out.append(_copy(ka, **{name: _skewed_tensor(
                getattr(ka, name), rng, count)}))
    return out


def _cols(f: LinearMap):
    return f.domain, f.codomain, f.cols


def _star_by_table(table, v: LinearMap, w: LinearMap) -> LinearMap:
    """v * w read from HomSmash.star_table by bilinearity: the products
    of the basis maps nu(e_a # e^p) and nu(e_b # e^q), weighted by the
    coefficients of v on the first and of w on the second."""
    field, zero = v.field, v.field.zero()
    cols = {}
    for (a, p, b, q, i, k), c in table.data.items():
        s = v.cols.get(p, {}).get((a,), zero) * w.cols.get(q, {}).get(
            (b,), zero)
        if s:
            col = cols.setdefault(k, {})
            col[(i,)] = col.get((i,), zero) + c * s
    return LinearMap(v.domain, v.codomain, cols, field)


def _random_map(H, ca, rng) -> LinearMap:
    """A map H -> A with seeded columns, some empty."""
    field = H.field
    return LinearMap(H.basis, (ca.basis,), {
        k: {(a,): field.from_int(rng.randint(-2, 3)) for a in range(ca.dim)
            if rng.random() < 0.6}
        for k in range(H.dim)}, field)


@FIELDS
def test_hopf_module_sums_match_assemble(field, subgroup_comodule):
    """The coactions of both canonical modules, theta and theta^{-1}
    and HomSmash.star_table, through _star_by_table on seeded maps, on
    H over itself for every
    subject, and on k<a> and its mutants."""
    rng = random.Random(41)
    ka = subgroup_comodule(field)
    cas = [canonical_right_comodule(H) for H in _algebras(field)]
    cas += [ka] + _klein_mutants(ka, rng)
    nonzero = 0
    for ca in cas:
        new, old = canonical_first_module(ca), ref.canonical_first_module(ca)
        assert _cols(new.coaction) == _cols(old.coaction), ca.name
        new, old = canonical_second_module(ca), ref.canonical_second_module(ca)
        assert new.left_action.table == old.left_action.table
        assert new.right_action.table == old.right_action.table
        assert _cols(new.coaction) == _cols(old.coaction), ca.name
        for got, want in zip(module_isomorphism(ca),
                             ref.module_isomorphism(ca)):
            assert _cols(got) == _cols(want), ca.name
        table, old_hs = HomSmash(ca).star_table(), ref.HomSmash(ca)
        for _ in range(2):
            v, w = _random_map(ca.H, ca, rng), _random_map(ca.H, ca, rng)
            got = _star_by_table(table, v, w)
            assert _cols(got) == _cols(old_hs.star(v, w)), ca.name
            nonzero += bool(got.cols)
    assert nonzero >= len(cas)


@FIELDS
def test_smash_transport_sums_match_assemble(field, subgroup_comodule):
    """K of relative_from_two_sided, U1 . u # U2 of
    relative_from_smash_module, X of two_sided_from_smash_module and E_t
    of two_sided_from_relative, on
    H over itself for z2_quasi, the non-group k[Z/3] and the twist of
    k[Z/3], and on k<a> and its mutants: the maps of the functors
    against those of the per-pair references, on the first canonical
    module and on a seeded cyclic module of (A # H*) # H."""
    from conftest import nongroup_z3
    rng = random.Random(43)
    ka = subgroup_comodule(field)
    cas = [canonical_right_comodule(H) for H in (
        corpus(field)["z2_quasi"], nongroup_z3(field),
        twist(*fixed_twist(3, field)))]
    cas += [ka] + _klein_mutants(ka, rng)
    for ca in cas:
        qs = quasi_smash(ca)
        sm = smash_product(qs)
        M = canonical_first_module(ca)
        got, want = relative_from_two_sided(M, qs), \
            ref.relative_from_two_sided(M, qs)
        assert got.r_action.table == want.r_action.table, ca.name
        act = cyclic_right_submodule(sm, 0)
        got, want = relative_from_smash_module(qs, sm, act), \
            ref.relative_from_smash_module(qs, sm, act)
        assert got.r_action.table == want.r_action.table, ca.name
        got, want = two_sided_from_smash_module(qs, sm, act, ca), \
            ref.two_sided_from_smash_module(qs, sm, act, ca)
        assert _cols(got.coaction) == _cols(want.coaction), ca.name
        N = relative_from_smash_module(qs, sm, act)
        got, want = two_sided_from_relative(N, ca), \
            ref.two_sided_from_relative(N, ca)
        assert _cols(got.coaction) == _cols(want.coaction), ca.name


class _Parts:
    """What crossed_comodule_algebra hands to LeftComoduleAlgebra: the
    coaction and the reassociator, kept without the constructor's
    inverse check (on k^S3 a product on 36 * 36 * 216 basis vectors;
    without the inverse, a system of as many unknowns)."""

    def __init__(self, H, algebra, coaction, phi_lam, phi_lam_inv=None,
                 name=""):
        self.coaction, self.phi_lam = coaction, phi_lam


def _bicomodule_mutants(ba, rng):
    """ba with seeded skew terms added to one of lambda, rho, Phi_lam,
    Phi_mid^{-1} and Phi_rho^{-1}."""
    left, right = ba.left, ba.right
    return [
        _copy(ba, left=_copy(left, coaction=_skewed(left.coaction, rng, 2))),
        _copy(ba, right=_copy(right, coaction=_skewed(right.coaction, rng,
                                                      2))),
        _copy(ba, left=_copy(left, phi_lam=_skewed_tensor(left.phi_lam,
                                                          rng, 2))),
        _copy(ba, phi_mid_inv=_skewed_tensor(ba.phi_mid_inv, rng, 2)),
        _copy(ba, right=_copy(right, phi_rho_inv=_skewed_tensor(
            right.phi_rho_inv, rng, 2)))]


@FIELDS
@pytest.mark.parametrize("key", ("z2", "z2_quasi", "z3", "nongroup", "kS3"))
def test_crossed_comodule_sums_match_assemble(key, field, monkeypatch):
    """The coaction and reassociator of crossed_comodule_algebra and
    the table of nested_smash_direct on H over itself as a bicomodule
    algebra, and on seeded mutants of its structure (on z2_quasi and
    the non-group k[Z/3]). On k^S3 only crossed_comodule_algebra: its
    nested smash product has 216 basis vectors, and the per-pair
    reference would form 46,656 products."""
    from conftest import nongroup_z3
    if key == "nongroup":
        H = nongroup_z3(field)
    elif key == "kS3":
        H = _function_algebra(corpus(field)["s3"])
    else:
        H = corpus(field)[key]
    monkeypatch.setattr(doihopf, "LeftComoduleAlgebra", _Parts)
    monkeypatch.setattr(ref, "LeftComoduleAlgebra", _Parts)
    HHop = H.tensor_with(H.opposite())
    ba = canonical_bicomodule(H)
    bas = [ba]
    if key in ("z2_quasi", "nongroup"):
        bas += _bicomodule_mutants(ba, random.Random(47))
    for b in bas:
        qs = quasi_smash(b.right)
        sm = smash_product(qs)
        got = crossed_comodule_algebra(b, HHop, qs, sm)
        want = ref.crossed_comodule_algebra(b, HHop, qs, sm)
        assert _cols(got.coaction) == _cols(want.coaction)
        assert got.phi_lam == want.phi_lam
        if key != "kS3":
            assert nested_smash_direct(qs, sm, b).table == \
                ref.nested_smash_direct(qs, sm, b).table


@FIELDS
def test_tensor_with_matches_reference(field):
    """H (x) H^op for every subject and H (x) K for pairs of subjects of
    different dimensions: the basis, the six structure tensors and the
    name. On k^S3 eps has zero entries; on the twist of k[Z/3] Phi is
    dense."""
    subjects = _algebras(field)
    pairs = [(H, H.opposite()) for H in subjects]
    pairs += [(subjects[0], subjects[1]), (subjects[7], subjects[1]),
              (subjects[6], subjects[3])]
    for H, K in pairs:
        got, want = H.tensor_with(K), ref.tensor_with(H, K)
        assert got.basis == want.basis and got.name == want.name
        assert got.algebra == want.algebra
        assert _cols(got.comul) == _cols(want.comul)
        assert _cols(got.counit) == _cols(want.counit)
        assert (got.phi, got.phi_inv) == (want.phi, want.phi_inv)


@FIELDS
def test_stage_one_on_skewed_coproduct(field):
    """crossed_smash_direct, whose stage one is one sum over the graph of
    (Delta (x) id) Delta, against its reference on k[Z/2] with two seeded
    terms added off the diagonal of Delta, so that h_(1,1), h_(1,2) and
    h_2 are not one index as on a group algebra. The seed is one for
    which the crossed comodule algebra's reassociator stays invertible;
    for most such mutants its constructor refuses it."""
    H = corpus(field)["z2"]
    ba, C, qs, sm, mc, _, final = _crossed_chain(
        _copy(H, comul=_skewed(H.comul, random.Random(0), 2)))
    assert crossed_smash_direct(ba, dual_module_algebra(mc), qs, sm,
                                final).table == \
        ref.crossed_smash_direct(ba, C, qs, sm, final).table
