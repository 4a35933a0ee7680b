import hashlib

import pytest

from qhopf import (PrimeField, QQ, canonical_bicomodule,
                   canonical_bimodule_coalgebra, check_bimodule_coalgebra,
                   check_left_module_algebra, check_right_module_coalgebra,
                   corpus, crossed_comodule_algebra, crossed_smash_direct,
                   cyclic_right_submodule, dual_module_algebra,
                   generalized_smash, hhop_module_coalgebra,
                   invert_in_tensor_algebra, quasi_smash, smash_product,
                   verify_crossed_module_description)


@pytest.mark.parametrize("key", ("z2", "z3", "z2_quasi", "z2z2_twisted"))
def test_canonical_bimodule_coalgebra(all_corpus, key):
    rep = check_bimodule_coalgebra(
        canonical_bimodule_coalgebra(all_corpus[key]))
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


@pytest.mark.parametrize("key", ("z2", "z2_quasi"))
def test_module_coalgebra_over_enveloping_algebra(all_corpus, key):
    H = all_corpus[key]
    HHop = H.tensor_with(H.opposite())
    C = canonical_bimodule_coalgebra(H)
    mc = hhop_module_coalgebra(C, HHop)
    rep = check_right_module_coalgebra(mc)
    assert rep.passed, [r.tag for r in rep.records if not r.passed]
    ma = dual_module_algebra(mc)
    rep = check_left_module_algebra(ma)
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


def test_crossed_module_description_on_hopf_seed(all_corpus):
    rep = verify_crossed_module_description(all_corpus["z3"], seeds=(0, 1))
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


def test_cyclic_submodule_deterministic(all_corpus):
    from qhopf import canonical_right_comodule, quasi_smash, smash_product
    H = all_corpus["z2_quasi"]
    ca = canonical_right_comodule(H)
    qs = quasi_smash(ca)
    sm = smash_product(qs)
    act1 = cyclic_right_submodule(sm, 5)
    act2 = cyclic_right_submodule(sm, 5)
    assert act1.left.labels == act2.left.labels
    assert act1.table == act2.table
    assert cyclic_right_submodule(sm, 6).left.dim >= 1


# sha256 of the sorted crossed_smash_direct table on z2_quasi, recorded
# before its index-tuple products were memoized
CROSSED_DIRECT_SHA256 = {
    "Q": "025a118aa677c756d77e2a40bcc877dcad6ce83d86adf4c94814a11a926f9fd1",
    "GF(7)": "e10a722d6537d9a9044209c9d5e78206c42ab7776d743380d274b77644a7192d",
}


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
def test_crossed_smash_direct_table_unchanged(field):
    H = corpus(field)["z2_quasi"]
    ba = canonical_bicomodule(H)
    C = canonical_bimodule_coalgebra(H)
    HHop = H.tensor_with(H.opposite())
    qs = quasi_smash(ba.right)
    sm = smash_product(qs)
    cstar = dual_module_algebra(hhop_module_coalgebra(C, HHop))
    final = generalized_smash(cstar,
                              crossed_comodule_algebra(ba, HHop, qs, sm))
    table = crossed_smash_direct(ba, cstar, qs, sm, final).table
    text = repr(sorted((k, sorted(v.items())) for k, v in table.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        CROSSED_DIRECT_SHA256[field.name]


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
@pytest.mark.parametrize("key", ("z2", "z2_quasi", "z3"))
def test_crossed_reassociator_inverse_matches_solve(key, field):
    # crossed_comodule_algebra forms the inverse of its left reassociator
    # in closed form; the solve of invert_in_tensor_algebra, which ran
    # when no inverse was passed, must give the same tensor
    H = corpus(field)[key]
    ba = canonical_bicomodule(H)
    HHop = H.tensor_with(H.opposite())
    qs = quasi_smash(ba.right)
    sm = smash_product(qs)
    lcb = crossed_comodule_algebra(ba, HHop, qs, sm)
    solved = invert_in_tensor_algebra(
        (HHop.algebra, HHop.algebra, sm), lcb.phi_lam)
    assert solved is not None and solved == lcb.phi_lam_inv
