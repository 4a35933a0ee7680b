"""The Sweedler sums of quasihopf.py and coact.py, each one
algebra.sweedler call, against the H.assemble builders and per-input
scans they replaced (reference_builders.py): the ten derived elements,
p~ and q~, and the records of verify_core_identities,
verify_tilde_identities and mbia2, compared as JSON, counterexamples
included. Over Q and GF(7), on the corpus, k[Z/3] in a non-group basis,
k^S3, the gauge twists of k[Z/3] and k[Z/4], a gauge twist of k^S3 and
seeded mutants of Delta and S, and on k<a> in k[Z/2 x Z/2] and seeded
mutants of its coaction and of its reassociator; and on seeded mutants
of the unit of H and of A, where a factor 1 that a sum multiplies in is
not the identity. Where a reference meets
an empty Sweedler sum, its assemble raises: the records it wrote before
are compared, and the package's suite still finishes."""

import random

import pytest

import reference_builders as ref
from qhopf import (DualView, FinAlgebra, LinearMap, PrimeField, QQ,
                   QuasiHopfAlgebra,
                   RightComoduleAlgebra, Tensor, canonical_right_comodule,
                   check_dual_bimodule_algebra, twist, verify_core_identities,
                   verify_tilde_identities)
from qhopf.report import VerificationReport

from test_cli import fixed_twist
from test_report import _mutant
from test_tables import _field_corpus, _function_algebra

FIELDS = pytest.mark.parametrize("field", (QQ, PrimeField(7)),
                                 ids=("Q", "GF7"))

DERIVED = ("f", "f_inv", "gamma", "delta", "p_R", "q_R", "p_L", "q_L", "U",
           "V")


def _zero_source(exc: ValueError) -> bool:
    return str(exc) == "assembling from a zero source"


def _matches(rep, reference, obj):
    """The records of rep whose tags reference(obj, want) writes, against
    those records, as JSON; a reference stopped by an empty Sweedler
    sum is compared on the records it wrote. (failing records compared,
    1 if the reference stopped else 0)."""
    want = VerificationReport(rep.subject, rep.header)
    stopped = 0
    try:
        reference(obj, want)
    except ValueError as exc:
        assert _zero_source(exc)
        stopped = 1
    tags = {r.tag for r in want.records}
    got = VerificationReport(rep.subject, rep.header)
    for r in rep.records:
        if r.tag in tags:
            got.add(r)
    assert got.to_json() == want.to_json()
    return sum(not r.passed for r in want.records), stopped


def _derived_match(H):
    """How many of the ten derived elements the reference builds (the
    others meet an empty sum), each equal to the package's."""
    old, new = ref.DerivedElements(H), H.derived
    built = 0
    for name in DERIVED:
        try:
            want = getattr(old, name)
        except ValueError as exc:
            assert _zero_source(exc)
            continue
        got = getattr(new, name)
        assert (got.spaces, got.data) == (want.spaces, want.data), name
        built += 1
    return built


def _with(H, **maps):
    """H with some of its comultiplication and antipode replaced."""
    parts = {"comul": H.comul, "antipode": H.antipode}
    parts.update(maps)
    return QuasiHopfAlgebra(H.algebra, parts["comul"], H.counit, H.phi,
                            parts["antipode"], H.alpha, H.beta, H.phi_inv,
                            name=H.name)


def _twisted_function_algebra(K):
    """k^S3 (K) twisted by F = 1 (x) 1 + d_a (x) d_b for two delta
    functions: F is invertible (d_a (x) d_b is idempotent), Delta_F =
    Delta is not cocommutative, and Phi_F is not trivial, so unlike
    on the corpus and the twists of k[Z/m], (S (x) S)(Delta^op(x1)) and
    (S (x) S)(Delta(x1)) differ in f."""
    one, field = K.unit(), K.field
    d = [Tensor.basis_vector(K.basis, i, field) for i in (1, 2)]
    return twist(K, one.tensor(one) + d[0].tensor(d[1]))


def _subjects(field):
    """The corpus, k[Z/3] in a non-group basis, k^S3, the two fixed
    twists and a twist of k^S3; then seeded mutants of Delta and of S of
    z2_quasi, z3, the non-group k[Z/3], the twist of k[Z/3] and the
    twist of k^S3."""
    from conftest import nongroup_z3
    C = _field_corpus(field)
    base = list(C.values()) + [nongroup_z3(field), _function_algebra(C["s3"])]
    base += [twist(*fixed_twist(m, field)) for m in (3, 4)]
    base.append(_twisted_function_algebra(base[7]))
    mutants = []
    for H in (C["z2_quasi"], C["z3"], base[6], base[8], base[10]):
        rng = random.Random(sum(map(ord, H.name)))
        mutants += [_with(H, comul=_mutant(H.comul, rng,
                                           min(1 + t, H.dim)))
                    for t in range(3)]
        mutants += [_with(H, antipode=_mutant(H.antipode, rng, 1 + t))
                    for t in range(2)]
    return base, mutants


def _bijective(H) -> bool:
    try:
        H.antipode_inv
    except ValueError:
        return False
    return True


@FIELDS
def test_derived_elements_and_core_identities_match_assemble(field):
    """The derived elements and every record of the core identities;
    on a mutant whose S is not bijective, the report holds only the
    failed antipode-bijective record."""
    base, mutants = _subjects(field)
    failures = stopped = built = singular = 0
    for H in base + mutants:
        if not _bijective(H):
            checks = verify_core_identities(H).as_dict()["checks"]
            assert checks == [{"tag": "antipode-bijective", "passed": False,
                               "counterexample": {}}]
            singular += 1
            continue
        built += _derived_match(H)
        bad, stop = _matches(verify_core_identities(H),
                             ref._ref_core_identities, H)
        failures, stopped = failures + bad, stopped + stop
    # every unmutated subject passes
    for H in base:
        assert verify_core_identities(H).passed, H.name
    assert built >= 300
    assert stopped >= 3
    assert failures >= 380
    assert singular >= 1


@FIELDS
def test_tilde_identities_match_assemble(field, subgroup_comodule):
    """On H over itself for every subject, and on k<a> with seeded
    mutants of its coaction and of Phi_rho (Phi_rho^{-1} kept)."""
    base, mutants = _subjects(field)
    cas = [canonical_right_comodule(H) for H in base + mutants
           if _bijective(H)]
    ka = subgroup_comodule(field)
    rng = random.Random(7)
    cas.append(ka)
    for t in range(4):
        cas.append(RightComoduleAlgebra(
            ka.H, ka.algebra, _mutant(ka.coaction, rng, 1 + t % 2),
            ka.phi_rho, ka.phi_rho_inv, name=ka.name))
    for t in range(3):
        cm = object.__new__(RightComoduleAlgebra)
        cm.__dict__ = dict(ka.__dict__)
        cm.phi_rho = _mutant(LinearMap.from_graph(ka.phi_rho), rng,
                             1 + t % 2).graph()
        cas.append(cm)
    failures = stopped = 0
    for ca in cas:
        assert ca.p_tilde() == ref.p_right(ca.H, ca.phi_rho_inv)
        assert ca.q_tilde() == ref.q_right(ca.H, ca.phi_rho)
        bad, stop = _matches(verify_tilde_identities(ca),
                             ref._ref_tilde_identities, ca)
        failures, stopped = failures + bad, stopped + stop
    assert stopped >= 4
    assert failures >= 110


@FIELDS
def test_mbia2_matches_assemble(field):
    """mbia2's right sides, formed for every input in one Sweedler sum,
    against one H.assemble per input and sum."""
    base, mutants = _subjects(field)
    failures = 0
    for H in base + mutants:
        dual = DualView(H)
        bad, stopped = _matches(check_dual_bimodule_algebra(dual),
                                ref._ref_mbia2, dual)
        assert not stopped
        failures += bad
    assert failures >= 12


def test_sums_on_a_twist_of_s3():
    """On k[S3] twisted by F = 1 (x) 1 + (t12 - e) (x) (t01 - e), over
    GF(7): the only subject here that is not commutative and has a
    nontrivial Phi, so the only one on which a product taken in the
    wrong order shows, in the derived elements and in every record of
    the core identities, the tilde identities and mbia2."""
    field = PrimeField(7)
    H = _field_corpus(field)["s3"]
    one, e = H.unit(), H.e
    HF = twist(H, one.tensor(one) + (e(1) - e(0)).tensor(e(2) - e(0)))
    assert len(HF.phi.data) > 1
    assert _derived_match(HF) == len(DERIVED)
    ca, dual = canonical_right_comodule(HF), DualView(HF)
    for rep, reference, obj in (
            (verify_core_identities(HF), ref._ref_core_identities, HF),
            (verify_tilde_identities(ca), ref._ref_tilde_identities, ca),
            (check_dual_bimodule_algebra(dual), ref._ref_mbia2, dual)):
        assert rep.passed
        assert _matches(rep, reference, obj) == (0, 0)


def _with_unit(obj, unit):
    """obj with the unit of its algebra replaced; a copy made without
    the constructor, whose inverse checks read the unit."""
    alg = obj.algebra
    cp = object.__new__(type(obj))
    cp.__dict__ = dict(obj.__dict__)
    cp.algebra = FinAlgebra(alg.basis, alg.table, unit, alg.field)
    return cp


def _unit_mutants(obj, rng, count):
    """count copies of obj, each with c e_j added to its unit for a
    seeded j and c != 0 such that the unit stays nonzero and is not
    two-sided."""
    one, field = obj.unit(), obj.field
    out = []
    while len(out) < count:
        j = rng.randrange(obj.dim)
        c = field.from_int(rng.choice((-2, -1, 1, 2, 3)))
        unit = one + Tensor.basis_vector(obj.basis, j, field).scale(c)
        if unit.data:
            out.append(_with_unit(obj, unit))
            assert out[-1].algebra.unit_laws_hold() is not None
    return out


@FIELDS
def test_sums_on_unit_mutants(field, subgroup_comodule):
    """The derived elements and the records of the core and tilde
    identities on seeded mutants of the unit of H (z2_quasi, z3, the
    non-group k[Z/3], k^S3 and the twist of k[Z/3]), H over itself, and
    of the unit of A or of H for k<a>: every factor 1 the references
    multiply in is multiplied in here too, so no record leans on the
    unit law."""
    from conftest import nongroup_z3
    C = _field_corpus(field)
    rng = random.Random(11)
    Hs, cas = [], []
    for H in (C["z2_quasi"], C["z3"], nongroup_z3(field),
              _function_algebra(C["s3"]), twist(*fixed_twist(3, field))):
        Hs += _unit_mutants(H, rng, 2)
        for Hm in Hs[-2:]:
            cas.append(_with_unit(canonical_right_comodule(H), Hm.unit()))
            cas[-1].H = Hm
    ka = subgroup_comodule(field)
    cas += _unit_mutants(ka, rng, 2)
    for H in _unit_mutants(ka.H, rng, 2):
        cas.append(_with_unit(ka, ka.unit()))
        cas[-1].H = H
    core = tilde = 0
    for H in Hs:
        assert _derived_match(H) == len(DERIVED)
        bad, stopped = _matches(verify_core_identities(H),
                                ref._ref_core_identities, H)
        assert not stopped
        core += bad
    for ca in cas:
        assert ca.p_tilde() == ref.p_right(ca.H, ca.phi_rho_inv)
        assert ca.q_tilde() == ref.q_right(ca.H, ca.phi_rho)
        bad, stopped = _matches(verify_tilde_identities(ca),
                                ref._ref_tilde_identities, ca)
        assert not stopped
        tilde += bad
    assert core >= 220
    assert tilde >= 65

