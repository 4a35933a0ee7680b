import random

import pytest

from qhopf import (RowSpan, canonical_right_comodule,
                   check_relative_hopf_module, cyclic_right_submodule,
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


def _cyclic_action_by_calls(prod, seed):
    """The cyclic submodule as a closure that solves for coordinates on
    every call: the reference for the table cyclic_right_submodule
    builds. Returns the basis labels and act(m, g)."""
    field = prod.field
    rng = random.Random(seed)
    vec = {}
    while not vec:
        vec = {i: field.from_int(c) for i in range(prod.dim)
               for c in [rng.randint(-2, 2)] if c}
    span = RowSpan(field)
    span.add(vec)

    def right_mul(w, g):
        acc = {}
        for i, c in w.items():
            for (t,), ct in prod.alg.mul_indices(i, g).data.items():
                s = acc.get(t, field.zero()) + c * ct
                if s:
                    acc[t] = s
                elif t in acc:
                    del acc[t]
        return acc

    changed = True
    while changed:
        changed = False
        for row in [dict(r) for r in span.rows]:
            for g in range(prod.dim):
                prod_vec = right_mul(row, g)
                if prod_vec and span.add(prod_vec):
                    changed = True
    rows = [dict(r) for r in span.rows]

    def act(m, g):
        coords = span.coordinates(right_mul(rows[m], g))
        assert coords is not None
        return {j: c for j, c in enumerate(coords) if c}

    return tuple("m%d" % i for i in range(span.rank)), act


@pytest.mark.parametrize("key", ("z2_quasi", "z3"))
def test_cyclic_table_matches_per_call_coordinates(all_corpus, key):
    sm = smash_product(quasi_smash(canonical_right_comodule(all_corpus[key])))
    for seed in (0, 1, 2):
        action = cyclic_right_submodule(sm, seed)
        labels, act = _cyclic_action_by_calls(sm, seed)
        assert action.left.labels == labels
        assert (action.right, action.out) == (sm.basis, action.left)
        assert action.table == {(m, g): act(m, g)
                                for m in range(len(labels))
                                for g in range(sm.dim) if act(m, g)}
