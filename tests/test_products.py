import pytest

from qhopf import (FinAlgebra, HeisenbergDouble, LinearMap, Tensor,
                   canonical_left_comodule, canonical_right_comodule,
                   check_left_module_algebra, generalized_smash,
                   quasi_smash, smash_index, smash_product,
                   two_sided_crossed, verify_crossed_decomposition,
                   verify_heisenberg_double, verify_hom_smash)


def _materialized(prod) -> FinAlgebra:
    alg = prod.alg
    assert isinstance(alg, FinAlgebra)
    return alg


@pytest.mark.parametrize("key", ("z2", "z3", "z2_quasi"))
def test_quasi_smash_is_module_algebra(all_corpus, key):
    H = all_corpus[key]
    qs = quasi_smash(canonical_right_comodule(H))
    rep = check_left_module_algebra(qs)
    assert rep.passed, [r.tag for r in rep.records if not r.passed]
    # the carrier is associative up to the reassociator acting through
    # the module structure, so strict associativity holds exactly when
    # the reassociator is trivial
    strict = qs.algebra.is_associative() is None
    assert strict == (H.phi == H.unit_pow(3))
    assert qs.algebra.unit_laws_hold() is None
    assert qs.dim == H.dim * H.dim


@pytest.mark.parametrize("key", ("z2", "z3", "z2_quasi"))
def test_smash_product_is_algebra(all_corpus, key):
    H = all_corpus[key]
    qs = quasi_smash(canonical_right_comodule(H))
    prod = smash_product(qs)
    alg = _materialized(prod)
    assert alg.is_associative() is None
    assert alg.unit_laws_hold() is None
    assert alg.dim == H.dim ** 3


@pytest.mark.parametrize("key", ("z2", "z2_quasi"))
def test_generalized_smash_is_algebra(all_corpus, key):
    H = all_corpus[key]
    qs = quasi_smash(canonical_right_comodule(H))
    cb = canonical_left_comodule(H)
    prod = generalized_smash(qs, cb)
    alg = _materialized(prod)
    assert alg.is_associative() is None
    assert alg.unit_laws_hold() is None


@pytest.mark.parametrize("key", ("z2", "z2_quasi"))
def test_two_sided_crossed_is_algebra(all_corpus, key):
    H = all_corpus[key]
    rca = canonical_right_comodule(H)
    lcb = canonical_left_comodule(H)
    prod = two_sided_crossed(rca, lcb)
    alg = _materialized(prod)
    assert alg.is_associative() is None
    assert alg.unit_laws_hold() is None
    assert alg.dim == H.dim ** 3


def test_product_algebra_flatten_round_trip(all_corpus):
    H = all_corpus["z2_quasi"]
    prod = two_sided_crossed(canonical_right_comodule(H),
                             canonical_left_comodule(H))
    for flat in range(prod.dim):
        idx = prod.split(flat)
        assert prod.join(idx) == flat
    t = prod.e(1, 0, 1)
    assert prod.flatten(prod.unflatten(t)) == t
    # pack/unpack carry a trailing leg through unchanged
    trailing = prod.e(1, 1, 0).tensor(H.e(1)) + prod.e(0, 1, 1).tensor(
        H.e(0)).scale(H.field.from_int(3))
    parts = prod.unpack(trailing)
    assert parts.spaces == prod.factors + (H.basis,)
    assert prod.pack(parts) == trailing
    with pytest.raises(ValueError):
        prod.flatten(parts)
    # the (a, p, h) split of (A # H*) # H inverts the nested join
    qs = quasi_smash(canonical_right_comodule(H))
    sm = smash_product(qs)
    idx = smash_index(qs, sm)
    assert idx.basis.labels == sm.basis.labels
    for g in range(sm.dim):
        a, p, h = idx.split(g)
        assert sm.join((qs.prod.join((a, p)), h)) == g
        assert idx.join((a, p, h)) == g


@pytest.mark.parametrize("key", ("z2", "z2_quasi", "z2z2_twisted"))
def test_heisenberg_double(all_corpus, key):
    rep = verify_heisenberg_double(all_corpus[key])
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


def _compose_by_terms(hd, u, v):
    """The product on End(H) summed one term of the composition element
    at a time: the reference for the grouped HeisenbergDouble.compose."""
    H = hd.H
    cols = {}
    for k in range(H.dim):
        acc = Tensor.zero((H.basis,), H.field)
        for (e1, e2, e3), c in hd._compose_elt.data.items():
            inner = H.mul(H.mul(H.e(k), H.e(e1)).map_leg(0, v), H.e(e2))
            acc = acc + H.mul(inner.map_leg(0, u), H.e(e3)).scale(c)
        cols[k] = dict(acc.data)
    return LinearMap(H.basis, (H.basis,), cols, H.field)


@pytest.mark.parametrize("key", ("z2_quasi", "z2z2_twisted"))
def test_grouped_compose_matches_term_sum(all_corpus, key):
    H = all_corpus[key]
    hd = HeisenbergDouble(H)
    n = H.dim
    endos = [LinearMap(H.basis, (H.basis,), {l: {(k,): H.field.one()}},
                       H.field) for k in range(n) for l in range(n)]
    for u in endos:
        for v in endos:
            got = hd.compose(u, v)
            want = _compose_by_terms(hd, u, v)
            assert got.cols == want.cols, (u.cols, v.cols)


@pytest.mark.parametrize("key", ("z2", "z2_quasi", "z2z2_twisted"))
def test_hom_smash(all_corpus, key):
    rep = verify_hom_smash(canonical_right_comodule(all_corpus[key]))
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


def test_crossed_decomposition(all_corpus):
    rep = verify_crossed_decomposition(all_corpus["z2_quasi"])
    assert rep.passed, [r.tag for r in rep.records if not r.passed]
