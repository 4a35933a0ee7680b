"""The table builders of hopfmod.py and doihopf.py that sum lifted
integers against their field-scalar references (reference_builders.py),
entry for entry, over Q and GF(7)."""

import pytest

import reference_builders as ref
from qhopf import (BimoduleCoalgebra, DoiHopfModule, LinearMap, PrimeField,
                   QQ, TwoSidedHopfModule, algebra_action_from_doi,
                   canonical_bicomodule, canonical_bimodule_coalgebra,
                   canonical_first_module, canonical_right_comodule,
                   canonical_second_module, corpus, crossed_comodule_algebra,
                   crossed_smash_direct, cyclic_right_submodule,
                   doi_from_algebra_module, dual_module_algebra,
                   generalized_smash, hhop_module_coalgebra, hopfmod,
                   module_isomorphism, quasi_smash, relative_from_two_sided,
                   smash_action_from_two_sided, smash_product,
                   transport_module)

FIELDS = pytest.mark.parametrize("field", (QQ, PrimeField(7)),
                                 ids=("Q", "GF7"))


def _bumped(f: LinearMap, key, idx) -> LinearMap:
    """f with the coefficient at column key, index idx raised by one."""
    field = f.field
    cols = {k: dict(v) for k, v in f.cols.items()}
    col = cols.setdefault(key, {})
    col[idx] = col.get(idx, field.zero()) + field.one()
    if not col[idx]:
        del col[idx]
    return LinearMap(f.domain, f.codomain, cols, field)


def _is_clean(table) -> bool:
    return all(vec and all(vec.values()) for vec in table.values())


@FIELDS
@pytest.mark.parametrize("key", ("z2_quasi", "z3", "s3", "klein"))
def test_canonical_first_module_matches_reference(key, field,
                                                  subgroup_comodule):
    ca = subgroup_comodule(field) if key == "klein" else \
        canonical_right_comodule(corpus(field)[key])
    new, old = canonical_first_module(ca), ref.canonical_first_module(ca)
    assert new.right_action.table == old.right_action.table
    assert _is_clean(new.right_action.table)
    assert new.left_action.table == old.left_action.table
    assert new.coaction.cols == old.coaction.cols


def _two_sided_modules(ca):
    """The two canonical modules, the theta-transported one, and the
    first with one coefficient of its coaction raised (not a module)."""
    V = canonical_first_module(ca)
    modules = [V, canonical_second_module(ca)]
    if ca.algebra.basis == ca.H.basis:
        theta, theta_inv = module_isomorphism(ca)
        modules.append(transport_module(V, theta, theta_inv))
    modules.append(TwoSidedHopfModule(
        ca, V.basis, V.left_action, V.right_action,
        _bumped(V.coaction, 1, (0, 1))))
    return modules


@FIELDS
@pytest.mark.parametrize("key", ("z2_quasi", "z3", "s3", "klein"))
def test_forward_action_matches_reference(key, field, subgroup_comodule,
                                          monkeypatch):
    """Both functors that build their table with _forward_action, once
    as they are and once with the reference in its place."""
    ca = subgroup_comodule(field) if key == "klein" else \
        canonical_right_comodule(corpus(field)[key])
    qs = quasi_smash(ca)
    sm = smash_product(qs)
    modules = _two_sided_modules(ca)

    def tables():
        return [(relative_from_two_sided(M, qs).r_action.table,
                 smash_action_from_two_sided(M, qs, sm).table)
                for M in modules]

    new = tables()
    monkeypatch.setattr(hopfmod, "_forward_action", ref._forward_action)
    assert new == tables()
    assert all(_is_clean(t) for pair in new for t in pair)


def _crossed_chain(H):
    ba = canonical_bicomodule(H)
    C = canonical_bimodule_coalgebra(H)
    HHop = H.tensor_with(H.opposite())
    qs = quasi_smash(ba.right)
    sm = smash_product(qs)
    mc = hhop_module_coalgebra(C, HHop)
    lcb = crossed_comodule_algebra(ba, HHop, qs, sm)
    final = generalized_smash(dual_module_algebra(mc), lcb)
    return ba, C, qs, sm, mc, lcb, final


@FIELDS
@pytest.mark.parametrize("key", ("z2", "z2_quasi"))
def test_crossed_smash_direct_matches_reference(key, field):
    """Also on a coalgebra whose comultiplication has one coefficient
    raised, Delta(c_0) at (c_0, c_1). On z2_quasi, with that change,
    sums of nonzero terms cancel to zero at some entries and at every
    entry of 32 pairs, so a stored zero or an empty row would show."""
    ba, C, qs, sm, _, _, final = _crossed_chain(corpus(field)[key])
    bumped = BimoduleCoalgebra(C.H, C.basis, _bumped(C.comul, 0, (0, 1)),
                               C.counit, C.left_action, C.right_action)
    for coalg in (C, bumped):
        new = crossed_smash_direct(ba, coalg, qs, sm, final)
        assert new.table == ref.crossed_smash_direct(
            ba, coalg, qs, sm, final).table
        assert _is_clean(new.table)


@FIELDS
@pytest.mark.parametrize("key", ("z2_quasi", "z3"))
def test_algebra_action_from_doi_matches_reference(key, field):
    """On the Doi-Hopf modules of the regular and a seeded cyclic module,
    and on the first with one coefficient of its coaction raised."""
    _, _, _, _, mc, lcb, final = _crossed_chain(corpus(field)[key])
    modules = [doi_from_algebra_module(final, lcb, mc, act)
               for act in (final.alg.as_leg(),
                           cyclic_right_submodule(final, 0))]
    N = modules[0]
    modules.append(DoiHopfModule(lcb, mc, N.basis, N.r_action,
                                 _bumped(N.coaction, 0, (1, 2))))
    for N in modules:
        new = algebra_action_from_doi(N, final)
        assert new.table == ref.algebra_action_from_doi(N, final).table
        assert _is_clean(new.table)
