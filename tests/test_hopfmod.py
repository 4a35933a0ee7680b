import pytest

from qhopf import (canonical_right_comodule, check_relative_hopf_module,
                   quasi_smash, seeded_cyclic_module, smash_product,
                   verify_canonical_modules, verify_module_correspondence)


@pytest.mark.parametrize("key", ("z2", "z3", "z2_quasi"))
def test_canonical_modules(all_corpus, key):
    rep = verify_canonical_modules(canonical_right_comodule(all_corpus[key]))
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


@pytest.mark.parametrize("key", ("z2_quasi", "z3"))
def test_module_correspondence(all_corpus, key):
    rep = verify_module_correspondence(all_corpus[key], seeds=(0, 1, 2))
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


def test_seeded_cyclic_module_deterministic(hq):
    ca = canonical_right_comodule(hq)
    qs = quasi_smash(ca)
    sm = smash_product(qs)
    n1 = seeded_cyclic_module(qs, sm, 7)
    n2 = seeded_cyclic_module(qs, sm, 7)
    assert n1.basis.labels == n2.basis.labels
    for m in range(n1.dim):
        for u in range(qs.dim):
            assert n1.ract(n1.e(m), qs.e(u)) == n2.ract(n2.e(m), qs.e(u))
        for i in range(hq.dim):
            assert n1.lact(hq.e(i), n1.e(m)) == n2.lact(hq.e(i), n2.e(m))
    n3 = seeded_cyclic_module(qs, sm, 8)
    assert check_relative_hopf_module(n1).passed
    assert check_relative_hopf_module(n3).passed
