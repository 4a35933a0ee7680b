"""The table builders of hopfmod.py and doihopf.py that sum lifted
integers, the module functors that restrict whole action tables, and
H*'s derived tables against their references (reference_builders.py),
entry for entry, over Q and GF(7)."""

import pytest

import reference_builders as ref
from qhopf import (BimoduleCoalgebra, DoiHopfModule, LegMul, LinearMap,
                   PrimeField, QQ, RelativeHopfModule, TwoSidedHopfModule,
                   algebra_action_from_doi, canonical_bicomodule,
                   canonical_bimodule_coalgebra, canonical_first_module,
                   canonical_right_comodule, canonical_second_module, corpus,
                   crossed_comodule_algebra, crossed_from_doi,
                   crossed_smash_direct, cyclic_right_submodule,
                   doi_from_algebra_module, doi_from_crossed,
                   dual_module_algebra, generalized_smash,
                   hhop_module_coalgebra, hopfmod, module_isomorphism,
                   quasi_smash, relative_from_smash_module,
                   relative_from_two_sided, smash_action_from_two_sided,
                   smash_product, transport_module,
                   two_sided_from_relative, two_sided_from_smash_module)

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


def _bumped_leg(f: LegMul, key, idx) -> LegMul:
    """f with the coefficient at pair key, output index idx raised by
    one."""
    field = f.field
    table = {k: dict(v) for k, v in f.table.items()}
    row = table.setdefault(key, {})
    row[idx] = row.get(idx, field.zero()) + field.one()
    if not row[idx]:
        del row[idx]
    return LegMul(f.left, f.right, f.out,
                  {k: v for k, v in table.items() if v}, field)


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


# ----------------------------------------------------------------------
# the module functors restrict whole action tables


def _same_maps(new, old, names):
    """new and old agree on the named structure maps (LegMul or
    LinearMap), and each of new's holds no zero and no empty row."""
    for name in names:
        a, b = getattr(new, name), getattr(old, name)
        if isinstance(a, LegMul):
            a, b = a.table, b.table
        else:
            a, b = a.cols, b.cols
        assert a == b, name
        assert _is_clean(a), name


TWO_SIDED = ("left_action", "right_action", "coaction")
RELATIVE = ("h_action", "r_action")


@FIELDS
@pytest.mark.parametrize("key", ("z2_quasi", "z3", "klein", "nongroup"))
def test_hopf_module_functors_match_reference(key, field, subgroup_comodule,
                                              nongroup):
    """The four functors of hopfmod.py that restrict an action, on a
    canonical module, a regular and a seeded cyclic smash module, and
    modules with one action coefficient raised (not modules). On k[Z/3]
    in a non-group basis (nongroup) the antipode matrix is not
    symmetric, so reading e^i o S as a column of it shows."""
    if key == "klein":
        ca = subgroup_comodule(field)
    else:
        ca = canonical_right_comodule(
            nongroup(field) if key == "nongroup" else corpus(field)[key])
    qs = quasi_smash(ca)
    sm = smash_product(qs)
    V = canonical_first_module(ca)
    for M in (V, TwoSidedHopfModule(ca, V.basis, _bumped_leg(
            V.left_action, (1, 0), 1), V.right_action, V.coaction)):
        _same_maps(relative_from_two_sided(M, qs),
                   ref.relative_from_two_sided(M, qs), RELATIVE)

    actions = [cyclic_right_submodule(sm, 0),
               _bumped_leg(sm.alg.as_leg(), (0, 1), 2)]
    if key != "z3":
        actions.append(sm.alg.as_leg())
    relatives = []
    for act in actions:
        _same_maps(two_sided_from_smash_module(qs, sm, act, ca),
                   ref.two_sided_from_smash_module(qs, sm, act, ca),
                   TWO_SIDED)
        N = relative_from_smash_module(qs, sm, act)
        _same_maps(N, ref.relative_from_smash_module(qs, sm, act), RELATIVE)
        relatives.append(N)
    N = relatives[0]
    relatives.append(RelativeHopfModule(
        qs, N.basis, _bumped_leg(N.h_action, (1, 0), 1),
        _bumped_leg(N.r_action, (0, 1), 0)))
    for N in relatives:
        _same_maps(two_sided_from_relative(N, ca),
                   ref.two_sided_from_relative(N, ca), TWO_SIDED)


@FIELDS
@pytest.mark.parametrize("key", ("z2_quasi", "z3"))
def test_doi_hopf_functors_match_reference(key, field):
    """doi_from_algebra_module and the two functors between crossed and
    Doi-Hopf modules, on a seeded cyclic module of the final smash
    product (and the regular one on z2_quasi) and on an action with one
    coefficient raised."""
    ba, C, qs, sm, mc, lcb, final = _crossed_chain(corpus(field)[key])
    actions = [cyclic_right_submodule(final, 0),
               _bumped_leg(final.alg.as_leg(), (0, 1), 2)]
    if key != "z3":
        actions.append(final.alg.as_leg())
    for act in actions:
        N = doi_from_algebra_module(final, lcb, mc, act)
        _same_maps(N, ref.doi_from_algebra_module(final, lcb, mc, act),
                   ("r_action", "coaction"))
        M = crossed_from_doi(N, ba, C, qs, sm)
        old = ref.crossed_from_doi(N, ba, C, qs, sm)
        _same_maps(M.ts, old.ts, TWO_SIDED)
        _same_maps(M, old, ("c_coaction",))
        _same_maps(doi_from_crossed(M, lcb, mc, qs, sm),
                   ref.doi_from_crossed(M, lcb, mc, qs, sm),
                   ("r_action", "coaction"))


# ----------------------------------------------------------------------
# H*'s derived tables regroup existing ones


@FIELDS
@pytest.mark.parametrize("key", ("z2_quasi", "z3", "s3", "klein"))
def test_dual_tables_match_reference(key, field, subgroup_comodule):
    """DualView's convolution and comultiplication, QuasiSmash's
    H-action, and hhop_module_coalgebra and dual_module_algebra on the
    canonical bimodule coalgebra and on one whose left action has a
    coefficient raised (not a bimodule coalgebra)."""
    ca = subgroup_comodule(field) if key == "klein" else \
        canonical_right_comodule(corpus(field)[key])
    H = ca.H
    mult, comul = ref.dual_tables(H.dual)
    assert H.dual.conv.mult == mult and _is_clean(mult)
    assert H.dual.comul == comul
    qs = quasi_smash(ca)
    assert qs.action.table == ref.quasi_smash_action(qs)
    assert _is_clean(qs.action.table)

    C = canonical_bimodule_coalgebra(H)
    HHop = H.tensor_with(H.opposite())
    for coalg in (C, BimoduleCoalgebra(
            H, C.basis, C.comul, C.counit,
            _bumped_leg(C.left_action, (1, 0), 0), C.right_action)):
        mc = hhop_module_coalgebra(coalg, HHop)
        old = ref.hhop_module_coalgebra(coalg, HHop)
        _same_maps(mc, old, ("action", "comul", "counit"))
        new_star, old_star = dual_module_algebra(mc), ref.dual_module_algebra(mc)
        assert new_star.algebra == old_star.algebra
        _same_maps(new_star, old_star, ("action",))
