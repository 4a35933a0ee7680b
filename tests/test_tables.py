"""The axiom side-builders of algebra.py against the per-input scans they
replaced. The _ref_* functions below hold those scans: the old
check_quantified calls, kept verbatim. On seeded mutants over Q and
GF(7), every converted check must give the same records as its scan:
the same tags, verdicts and counterexample bytes."""

import functools
import random

import pytest

from qhopf import (CrossedHopfModule, DoiHopfModule, FinAlgebra, LegMul,
                   LeftComoduleAlgebra, LeftModuleAlgebra, LinearMap,
                   PrimeField, QQ, QuasiHopfAlgebra, RelativeHopfModule,
                   RightComoduleAlgebra, RightModuleCoalgebra, Tensor,
                   TwoSidedHopfModule,
                   BimoduleCoalgebra, canonical_bicomodule,
                   canonical_bimodule_coalgebra, canonical_first_module,
                   canonical_left_comodule, canonical_module_coalgebra,
                   canonical_right_comodule, canonical_second_module,
                   check_bimodule_coalgebra, check_crossed_hopf_module,
                   check_doi_hopf_module, check_left_comodule_algebra,
                   check_left_module_algebra, check_quasihopf,
                   check_relative_hopf_module, check_right_comodule_algebra,
                   check_right_module_coalgebra,
                   check_two_sided_hopf_module, corpus,
                   crossed_comodule_algebra, crossed_from_doi,
                   cyclic_right_submodule, doi_from_algebra_module,
                   dual_module_algebra, generalized_smash,
                   hhop_module_coalgebra, module_isomorphism, mul_legs,
                   quasi_smash, seeded_cyclic_module, smash_product,
                   verify_canonical_modules)
from qhopf.report import VerificationReport

from test_report import _mutant

FIELDS = pytest.mark.parametrize("field", (QQ, PrimeField(7)),
                                 ids=("Q", "GF7"))


# ----------------------------------------------------------------------
# the per-input scans, verbatim


def _ref_quasihopf(H, rep):
    n = H.dim
    alg = H.algebra

    def _all_pairs(n):
        for i in range(n):
            for j in range(n):
                yield (i, j)

    rep.check_quantified(
        "counit-hom", _all_pairs(n),
        lambda i, j: (Tensor.scalar(H.eps(alg.mul_indices(i, j)), H.field),
                      Tensor.scalar(H.eps(H.e(i)) * H.eps(H.e(j)), H.field)))
    rep.check_quantified(
        "comul-hom", _all_pairs(n),
        lambda i, j: (H.delta(alg.mul_indices(i, j)),
                      H.tmul(H.delta(H.e(i)), H.delta(H.e(j)))))
    rep.check_quantified(
        "antipode-antihom", _all_pairs(n),
        lambda i, j: (H.S(H.algebra.mul_indices(i, j)),
                      H.mul(H.S(H.e(j)), H.S(H.e(i)))))


def _ref_right_comodule(ca, rep):
    H = ca.H
    n = ca.dim
    rep.check_quantified(
        "coact-hom", ((i, j) for i in range(n) for j in range(n)),
        lambda i, j: (ca.coact(ca.algebra.mul_indices(i, j)),
                      ca.mmul(ca.coact(ca.e(i)), ca.coact(ca.e(j)))))
    rep.check_quantified(
        "rca3", ((i,) for i in range(n)),
        lambda i: (ca.coact(ca.e(i)).map_leg(1, H.counit), ca.e(i)))


def _ref_left_comodule(ca, rep):
    H = ca.H
    n = ca.dim
    rep.check_quantified(
        "coact-hom", ((i, j) for i in range(n) for j in range(n)),
        lambda i, j: (ca.coact(ca.algebra.mul_indices(i, j)),
                      ca.mmul(ca.coact(ca.e(i)), ca.coact(ca.e(j)))))
    rep.check_quantified(
        "lca3", ((i,) for i in range(n)),
        lambda i: (ca.coact(ca.e(i)).map_leg(0, H.counit), ca.e(i)))


def _ref_left_module_algebra(ma, rep):
    H = ma.H
    n = ma.dim
    m = H.dim
    rep.check_quantified(
        "module-assoc", ((i, j, a) for i in range(m) for j in range(m)
                         for a in range(n)),
        lambda i, j, a: (ma.act(H.algebra.mul_indices(i, j), ma.e(a)),
                         ma.act(H.e(i), ma.act(H.e(j), ma.e(a)))))
    rep.check_quantified(
        "module-unit", ((a,) for a in range(n)),
        lambda a: (ma.act(H.unit(), ma.e(a)), ma.e(a)))
    rep.check_quantified(
        "ma1", ((a, b, c) for a in range(n) for b in range(n)
                for c in range(n)),
        lambda a, b, c: (
            ma.mul(ma.mul(ma.e(a), ma.e(b)), ma.e(c)),
            H.assemble(H.phi, lambda X1, X2, X3: ma.mul(
                ma.act(H.e(X1), ma.e(a)),
                ma.mul(ma.act(H.e(X2), ma.e(b)), ma.act(H.e(X3), ma.e(c)))))))
    rep.check_quantified(
        "ma2", ((i, a, b) for i in range(m) for a in range(n)
                for b in range(n)),
        lambda i, a, b: (
            ma.act(H.e(i), ma.mul(ma.e(a), ma.e(b))),
            H.assemble(H.delta(H.e(i)), lambda h1, h2: ma.mul(
                ma.act(H.e(h1), ma.e(a)), ma.act(H.e(h2), ma.e(b))))))


def _ref_right_module_coalgebra(mc, rep):
    H = mc.H
    n = mc.dim
    m = H.dim
    rep.check_quantified(
        "module-assoc", ((c, i, j) for c in range(n) for i in range(m)
                         for j in range(m)),
        lambda c, i, j: (mc.act(mc.e(c), H.algebra.mul_indices(i, j)),
                         mc.act(mc.act(mc.e(c), H.e(i)), H.e(j))))
    rep.check_quantified(
        "module-unit", ((c,) for c in range(n)),
        lambda c: (mc.act(mc.e(c), H.unit()), mc.e(c)))
    rep.check_quantified(
        "rmc2", ((c, i) for c in range(n) for i in range(m)),
        lambda c, i: (mc.delta(mc.act(mc.e(c), H.e(i))),
                      mc.act_many(mc.delta(mc.e(c)), H.delta(H.e(i)))))
    rep.check_quantified(
        "rmc3", ((c, i) for c in range(n) for i in range(m)),
        lambda c, i: (
            Tensor.scalar(mc.eps(mc.act(mc.e(c), H.e(i))), H.field),
            Tensor.scalar(mc.eps(mc.e(c)) * H.eps(H.e(i)), H.field)))


def _ref_two_sided(M, rep):
    ca, H = M.ca, M.H
    n, nH, nA = M.dim, H.dim, ca.dim
    rep.check_quantified(
        "lmod-assoc", ((i, j, m) for i in range(nH) for j in range(nH)
                       for m in range(n)),
        lambda i, j, m: (M.lact(H.algebra.mul_indices(i, j), M.e(m)),
                         M.lact(H.e(i), M.lact(H.e(j), M.e(m)))))
    rep.check_quantified(
        "lmod-unit", ((m,) for m in range(n)),
        lambda m: (M.lact(H.unit(), M.e(m)), M.e(m)))
    rep.check_quantified(
        "rmod-assoc", ((m, a, b) for m in range(n) for a in range(nA)
                       for b in range(nA)),
        lambda m, a, b: (M.ract(M.e(m), ca.algebra.mul_indices(a, b)),
                         M.ract(M.ract(M.e(m), ca.e(a)), ca.e(b))))
    rep.check_quantified(
        "rmod-unit", ((m,) for m in range(n)),
        lambda m: (M.ract(M.e(m), ca.unit()), M.e(m)))
    rep.check_quantified(
        "bimodule", ((i, m, a) for i in range(nH) for m in range(n)
                     for a in range(nA)),
        lambda i, m, a: (M.ract(M.lact(H.e(i), M.e(m)), ca.e(a)),
                         M.lact(H.e(i), M.ract(M.e(m), ca.e(a)))))
    rep.check_quantified(
        "counit", ((m,) for m in range(n)),
        lambda m: (M.coact(M.e(m)).map_leg(1, H.counit), M.e(m)))
    rep.check_quantified(
        "left-colinear", ((i, m) for i in range(nH) for m in range(n)),
        lambda i, m: (M.coact(M.lact(H.e(i), M.e(m))),
                      mul_legs((M.left_action, H.leg()),
                               H.delta(H.e(i)), M.coact(M.e(m)))))
    rep.check_quantified(
        "right-colinear", ((m, a) for m in range(n) for a in range(nA)),
        lambda m, a: (M.coact(M.ract(M.e(m), ca.e(a))),
                      mul_legs((M.right_action, H.leg()),
                               M.coact(M.e(m)), ca.coact(ca.e(a)))))


def _ref_relative(N, rep):
    qs, H = N.qs, N.H
    n, nH, nQ = N.dim, H.dim, qs.dim
    rep.check_quantified(
        "lmod-assoc", ((i, j, m) for i in range(nH) for j in range(nH)
                       for m in range(n)),
        lambda i, j, m: (N.lact(H.algebra.mul_indices(i, j), N.e(m)),
                         N.lact(H.e(i), N.lact(H.e(j), N.e(m)))))
    rep.check_quantified(
        "lmod-unit", ((m,) for m in range(n)),
        lambda m: (N.lact(H.unit(), N.e(m)), N.e(m)))
    rep.check_quantified(
        "rmod-unit", ((m,) for m in range(n)),
        lambda m: (N.ract(N.e(m), qs.unit()), N.e(m)))

    # (X2 . u)(X3 . v) does not depend on m: formed once per call
    factor = {}

    def phi_factor(X2, X3, u, v):
        key = (X2, X3, u, v)
        if key not in factor:
            factor[key] = qs.algebra.mul(qs.act(H.e(X2), qs.e(u)),
                                         qs.act(H.e(X3), qs.e(v)))
        return factor[key]

    def quasi_assoc(m, u, v):
        lhs = N.ract(N.ract(N.e(m), qs.e(u)), qs.e(v))
        rhs = H.assemble(H.phi, lambda X1, X2, X3: N.ract(
            N.lact(H.e(X1), N.e(m)), phi_factor(X2, X3, u, v)))
        return lhs, rhs

    rep.check_quantified(
        "quasi-assoc", ((m, u, v) for m in range(n) for u in range(nQ)
                        for v in range(nQ)), quasi_assoc)
    rep.check_quantified(
        "compat", ((i, m, u) for i in range(nH) for m in range(n)
                   for u in range(nQ)),
        lambda i, m, u: (
            N.lact(H.e(i), N.ract(N.e(m), qs.e(u))),
            H.assemble(H.delta(H.e(i)), lambda h1, h2: N.ract(
                N.lact(H.e(h1), N.e(m)), qs.act(H.e(h2), qs.e(u))))))


def _ref_bimodule_coalgebra(C, rep):
    H = C.H
    n, m = C.dim, H.dim
    rep.check_quantified(
        "lmod-assoc", ((i, j, c) for i in range(m) for j in range(m)
                       for c in range(n)),
        lambda i, j, c: (C.lact(H.algebra.mul_indices(i, j), C.e(c)),
                         C.lact(H.e(i), C.lact(H.e(j), C.e(c)))))
    rep.check_quantified(
        "rmod-assoc", ((c, i, j) for c in range(n) for i in range(m)
                       for j in range(m)),
        lambda c, i, j: (C.ract(C.e(c), H.algebra.mul_indices(i, j)),
                         C.ract(C.ract(C.e(c), H.e(i)), H.e(j))))
    rep.check_quantified(
        "lmod-unit", ((c,) for c in range(n)),
        lambda c: (C.lact(H.unit(), C.e(c)), C.e(c)))
    rep.check_quantified(
        "rmod-unit", ((c,) for c in range(n)),
        lambda c: (C.ract(C.e(c), H.unit()), C.e(c)))
    rep.check_quantified(
        "commute", ((i, c, j) for i in range(m) for c in range(n)
                    for j in range(m)),
        lambda i, c, j: (C.lact(H.e(i), C.ract(C.e(c), H.e(j))),
                         C.ract(C.lact(H.e(i), C.e(c)), H.e(j))))
    rep.check_quantified(
        "bmc2-left", ((i, c) for i in range(m) for c in range(n)),
        lambda i, c: (C.delta(C.lact(H.e(i), C.e(c))),
                      mul_legs((C.left_action,) * 2, H.delta(H.e(i)),
                               C.delta(C.e(c)))))
    rep.check_quantified(
        "bmc2-right", ((c, i) for c in range(n) for i in range(m)),
        lambda c, i: (C.delta(C.ract(C.e(c), H.e(i))),
                      mul_legs((C.right_action,) * 2, C.delta(C.e(c)),
                               H.delta(H.e(i)))))


def _ref_doi_hopf(N, rep):
    cb, mc = N.cb, N.mc
    n, nB = N.dim, cb.dim
    rep.check_quantified(
        "rmod-assoc", ((m, a, b) for m in range(n) for a in range(nB)
                       for b in range(nB)),
        lambda m, a, b: (N.ract(N.e(m), cb.algebra.mul_indices(a, b)),
                         N.ract(N.ract(N.e(m), cb.e(a)), cb.e(b))))
    rep.check_quantified(
        "rmod-unit", ((m,) for m in range(n)),
        lambda m: (N.ract(N.e(m), cb.unit()), N.e(m)))
    rep.check_quantified(
        "dhm2", ((m,) for m in range(n)),
        lambda m: (N.coact(N.e(m)).map_leg(0, mc.counit), N.e(m)))
    rep.check_quantified(
        "dhm3", ((m, b) for m in range(n) for b in range(nB)),
        lambda m, b: (N.coact(N.ract(N.e(m), cb.e(b))),
                      mul_legs((mc.action, N.r_action),
                               N.coact(N.e(m)), cb.coact(cb.e(b)))))


def _ref_crossed(M, rep):
    ba, C, H, ts = M.ba, M.C, M.H, M.ts
    n, nH, nA = M.dim, H.dim, ba.dim
    rep.check_quantified(
        "c-counit", ((m,) for m in range(n)),
        lambda m: (M.ccoact(M.e(m)).map_leg(0, C.counit), M.e(m)))
    rep.check_quantified(
        "tstc3", ((i, m) for i in range(nH) for m in range(n)),
        lambda i, m: (M.ccoact(ts.lact(H.e(i), M.e(m))),
                      mul_legs((C.left_action, ts.left_action),
                               H.delta(H.e(i)), M.ccoact(M.e(m)))))
    rep.check_quantified(
        "tstc3b", ((m, a) for m in range(n) for a in range(nA)),
        lambda m, a: (M.ccoact(ts.ract(M.e(m), ba.algebra.e(a))),
                      mul_legs((C.right_action, ts.right_action),
                               M.ccoact(M.e(m)),
                               ba.left.coact(ba.algebra.e(a)))))


def _ref_canonical_iso(parts, rep):
    V, U, theta, ca = parts
    H = ca.H
    n, nH, nA = V.dim, H.dim, ca.dim
    rep.check_quantified(
        "iso-h-linear", ((i, m) for i in range(nH) for m in range(n)),
        lambda i, m: (V.lact(H.e(i), V.e(m)).map_leg(0, theta),
                      U.lact(H.e(i), theta.column(m))))
    rep.check_quantified(
        "iso-a-linear", ((m, a) for m in range(n) for a in range(nA)),
        lambda m, a: (V.ract(V.e(m), ca.e(a)).map_leg(0, theta),
                      U.ract(theta.column(m), ca.e(a))))


def _old_is_associative(A):
    n = A.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = A.mul(A.mul_indices(i, j), A.e(k))
                rhs = A.mul(A.e(i), A.mul_indices(j, k))
                if lhs != rhs:
                    return (i, j, k)
    return None


def _old_unit_laws_hold(A):
    for i in range(A.dim):
        x = A.e(i)
        if A.mul(A.unit, x) != x or A.mul(x, A.unit) != x:
            return i
    return None


# ----------------------------------------------------------------------
# comparison


def _assert_matches(rep, reference, obj):
    """The records of rep whose tags reference(obj) writes, against the
    records it writes, as JSON; returns how many of them fail."""
    want = VerificationReport(rep.subject, rep.header)
    reference(obj, want)
    tags = {r.tag for r in want.records}
    got = VerificationReport(rep.subject, rep.header)
    for r in rep.records:
        if r.tag in tags:
            got.add(r)
    assert got.to_json() == want.to_json()
    return sum(not r.passed for r in want.records)


def _mutants(f, seed, trials=6):
    """f itself, then seeded mutants of it with one to three changed
    coefficients (at most one per input)."""
    rng = random.Random(seed)
    inputs = f.left.dim * f.right.dim if isinstance(f, LegMul) \
        else f.domain.dim
    yield f
    for trial in range(trials):
        yield _mutant(f, rng, min(1 + trial % 3, inputs))


@functools.lru_cache(maxsize=None)
def _field_corpus(field):
    return corpus(field)


@FIELDS
def test_quasihopf_structure_maps(field):
    """counit-hom, comul-hom and antipode-antihom on mutants of the
    counit, the comultiplication and the antipode."""
    failures = 0
    for key in ("z2_quasi", "z3"):
        H = _field_corpus(field)[key]
        parts = {"comul": H.comul, "counit": H.counit,
                 "antipode": H.antipode}
        for name, f in parts.items():
            for g in _mutants(f, len(name)):
                maps = dict(parts, **{name: g})
                Hm = QuasiHopfAlgebra(H.algebra, maps["comul"],
                                      maps["counit"], H.phi,
                                      maps["antipode"], H.alpha, H.beta,
                                      H.phi_inv, name=H.name)
                # a comultiplication with a zero column included: q5
                # takes the zero tensor for an empty Delta(h)
                rep = check_quasihopf(Hm)
                failures += _assert_matches(rep, _ref_quasihopf, Hm)
    assert failures >= 30


def _comodules(field, subgroup_comodule):
    H = _field_corpus(field)["z2_quasi"]
    return (canonical_right_comodule(H), subgroup_comodule(field))


@FIELDS
def test_comodule_algebras(field, subgroup_comodule):
    """coact-hom, rca3 and lca3 on mutants of the coactions, and
    coact-hom on mutants of the multiplication of a comodule algebra
    that is not H."""
    failures = 0
    for ca in _comodules(field, subgroup_comodule):
        for rho in _mutants(ca.coaction, 3):
            cm = RightComoduleAlgebra(ca.H, ca.algebra, rho, ca.phi_rho,
                                      ca.phi_rho_inv, name=ca.name)
            failures += _assert_matches(check_right_comodule_algebra(cm),
                                        _ref_right_comodule, cm)
    lca = canonical_left_comodule(_field_corpus(field)["z2_quasi"])
    for lam in _mutants(lca.coaction, 4):
        cm = LeftComoduleAlgebra(lca.H, lca.algebra, lam, lca.phi_lam,
                                 lca.phi_lam_inv, name=lca.name)
        failures += _assert_matches(check_left_comodule_algebra(cm),
                                    _ref_left_comodule, cm)
    ca = subgroup_comodule(field)
    A = ca.algebra
    # mutants of the products a.e, e.a and a.a, keeping e.e = e so that
    # the supplied reassociator inverse still checks
    rng = random.Random(5)
    for key in ((1, 0), (0, 1), (1, 1)):
        mult = {k: dict(v) for k, v in A.mult.items()}
        mult[key][rng.choice((0, 1))] = field.from_int(rng.choice((2, 3)))
        cm = RightComoduleAlgebra(
            ca.H, FinAlgebra(A.basis, mult, A.unit, field), ca.coaction,
            ca.phi_rho, ca.phi_rho_inv, name=ca.name)
        failures += _assert_matches(check_right_comodule_algebra(cm),
                                    _ref_right_comodule, cm)
    assert failures >= 10


@FIELDS
def test_module_algebras_and_coalgebras(field):
    """module-assoc, module-unit, ma1 and ma2 on mutants of the actions
    of two module algebras (the quasi-smash product over H, and H* over
    H (x) H^op, whose reassociator is not trivial either) and on
    mutants of the comultiplication of H, which make it not
    cocommutative; and module-assoc, module-unit, rmc2 and rmc3 on
    mutants of the actions of module coalgebras."""
    failures = 0
    H = _field_corpus(field)["z2_quasi"]
    qs = quasi_smash(canonical_right_comodule(H))
    dual = dual_module_algebra(hhop_module_coalgebra(
        canonical_bimodule_coalgebra(H), H.tensor_with(H.opposite())))
    for base, seed in ((qs, 6), (dual, 2)):
        for act in _mutants(base.action, seed):
            ma = LeftModuleAlgebra(base.H, base.algebra, act, name=base.name)
            failures += _assert_matches(check_left_module_algebra(ma),
                                        _ref_left_module_algebra, ma)
    # and e (x) g - g (x) e added to Delta(g): counital still, so ma2
    # holds on the unit and first fails where h1 and h2 meet a and b
    one = field.one()
    skew = {k: dict(v) for k, v in H.comul.cols.items()}
    skew[1][(0, 1)] = skew[1].get((0, 1), field.zero()) + one
    skew[1][(1, 0)] = skew[1].get((1, 0), field.zero()) - one
    for comul in [*_mutants(H.comul, 11, trials=4),
                  LinearMap(H.basis, H.comul.codomain, skew, field)]:
        Hm = QuasiHopfAlgebra(H.algebra, comul, H.counit, H.phi, H.antipode,
                              H.alpha, H.beta, H.phi_inv, name=H.name)
        ma = LeftModuleAlgebra(Hm, qs.algebra, qs.action, name=qs.name)
        failures += _assert_matches(check_left_module_algebra(ma),
                                    _ref_left_module_algebra, ma)
    for key in ("z3", "z2"):
        mc = canonical_module_coalgebra(_field_corpus(field)[key])
        for act in _mutants(mc.action, 7):
            mm = RightModuleCoalgebra(mc.H, mc.basis, mc.comul, mc.counit,
                                      act, name=mc.name)
            failures += _assert_matches(check_right_module_coalgebra(mm),
                                        _ref_right_module_coalgebra, mm)
    assert failures >= 28


@FIELDS
def test_two_sided_and_relative_modules(field, subgroup_comodule):
    """The eight converted checks of a two-sided Hopf module on mutants
    of both actions and the coaction (over z2_quasi, and over k<a> in
    z2z2, where the comodule algebra is not H), and the five of a
    relative Hopf module on mutants of both actions."""
    failures = 0
    H = _field_corpus(field)["z2_quasi"]
    ca = canonical_right_comodule(H)
    modules = [canonical_first_module(ca), canonical_second_module(ca),
               canonical_first_module(subgroup_comodule(field))]
    for M in modules:
        parts = {"l": M.left_action, "r": M.right_action, "c": M.coaction}
        for name, f in parts.items():
            for g in _mutants(f, ord(name), trials=4):
                maps = dict(parts, **{name: g})
                Mm = TwoSidedHopfModule(M.ca, M.basis, maps["l"], maps["r"],
                                        maps["c"], name=M.name)
                failures += _assert_matches(check_two_sided_hopf_module(Mm),
                                            _ref_two_sided, Mm)
    qs = quasi_smash(ca)
    N = seeded_cyclic_module(qs, smash_product(qs), 1)
    for name in ("h", "r"):
        f = N.h_action if name == "h" else N.r_action
        for g in _mutants(f, ord(name), trials=4):
            Nm = RelativeHopfModule(
                qs, N.basis, g if name == "h" else N.h_action,
                g if name == "r" else N.r_action, name=N.name)
            failures += _assert_matches(check_relative_hopf_module(Nm),
                                        _ref_relative, Nm)
    assert failures >= 40


@FIELDS
def test_canonical_module_isomorphism(field, subgroup_comodule, monkeypatch):
    """iso-h-linear and iso-a-linear on mutants of theta, the map
    between the canonical modules A (x) H and H (x) A, over z2_quasi and
    over k<a> in z2z2."""
    import qhopf.hopfmod as hopfmod
    failures = 0
    H = _field_corpus(field)["z2_quasi"]
    for ca in (canonical_right_comodule(H), subgroup_comodule(field)):
        V, U = canonical_first_module(ca), canonical_second_module(ca)
        theta, theta_inv = module_isomorphism(ca)
        for g in _mutants(theta, 10):
            monkeypatch.setattr(hopfmod, "module_isomorphism",
                                lambda _, g=g: (g, theta_inv))
            failures += _assert_matches(verify_canonical_modules(ca),
                                        _ref_canonical_iso, (V, U, g, ca))
    assert failures >= 16


@FIELDS
def test_bimodule_coalgebra(field):
    """lmod-assoc, rmod-assoc, lmod-unit, rmod-unit, commute, bmc2-left
    and bmc2-right on mutants of both actions of a bimodule
    coalgebra."""
    failures = 0
    C = canonical_bimodule_coalgebra(_field_corpus(field)["z2_quasi"])
    for name in ("l", "r"):
        f = C.left_action if name == "l" else C.right_action
        for g in _mutants(f, ord(name)):
            Cm = BimoduleCoalgebra(
                C.H, C.basis, C.comul, C.counit,
                g if name == "l" else C.left_action,
                g if name == "r" else C.right_action, name=C.name)
            failures += _assert_matches(check_bimodule_coalgebra(Cm),
                                        _ref_bimodule_coalgebra, Cm)
    assert failures >= 12


@FIELDS
def test_doi_hopf_and_crossed_modules(field):
    """rmod-assoc, rmod-unit, dhm2 and dhm3 of a Doi-Hopf module on
    mutants of its action and coaction, and c-counit, tstc3 and tstc3b
    of a crossed Hopf module on mutants of its coalgebra coaction."""
    H = _field_corpus(field)["z2"]
    ba = canonical_bicomodule(H)
    C = canonical_bimodule_coalgebra(H)
    HHop = H.tensor_with(H.opposite())
    mc = hhop_module_coalgebra(C, HHop)
    qs = quasi_smash(ba.right)
    sm = smash_product(qs)
    lcb = crossed_comodule_algebra(ba, HHop, qs, sm)
    final = generalized_smash(dual_module_algebra(mc), lcb)
    N = doi_from_algebra_module(final, lcb, mc,
                                cyclic_right_submodule(final, 1))
    failures = 0
    for name in ("r", "c"):
        f = N.r_action if name == "r" else N.coaction
        for g in _mutants(f, ord(name), trials=4):
            Nm = DoiHopfModule(lcb, mc, N.basis,
                               g if name == "r" else N.r_action,
                               g if name == "c" else N.coaction,
                               name=N.name)
            failures += _assert_matches(check_doi_hopf_module(Nm),
                                        _ref_doi_hopf, Nm)
    M = crossed_from_doi(N, ba, C, qs, sm)
    for g in _mutants(M.c_coaction, 8, trials=4):
        Mm = CrossedHopfModule(ba, C, M.ts, g)
        failures += _assert_matches(check_crossed_hopf_module(Mm),
                                    _ref_crossed, Mm)
    assert failures >= 8


@FIELDS
def test_algebra_laws_match_triple_loops(field):
    """is_associative and unit_laws_hold against the loops they replaced,
    on the corpus, on smash products and on mutants of both."""
    algebras = [H.algebra for H in _field_corpus(field).values()]
    for key in ("z2_quasi", "z3"):
        qs = quasi_smash(canonical_right_comodule(_field_corpus(field)[key]))
        algebras += [qs.algebra, smash_product(qs).alg]
    rng = random.Random(9)
    bad = 0
    for A in algebras:
        variants = [A]
        for trial in range(3):
            leg = _mutant(A.as_leg(), rng, 1 + trial)
            variants.append(FinAlgebra(A.basis, leg.table, A.unit, field))
        unit = dict(A.unit.data)
        unit[(0,)] = unit.get((0,), field.zero()) + field.one()
        variants.append(FinAlgebra(A.basis, A.mult,
                                   Tensor(A.unit.spaces, unit, field), field))
        for B in variants:
            assert B.is_associative() == _old_is_associative(B)
            assert B.unit_laws_hold() == _old_unit_laws_hold(B)
            bad += B.is_associative() is not None
    assert bad >= 2 * len(algebras)


@FIELDS
def test_comodule_algebra_that_is_not_h(field, subgroup_comodule):
    """k<a> in k[Z/2 x Z/2] passes the comodule algebra axioms and both
    canonical modules; a mutant of its own multiplication (H's is kept)
    fails first/rmod-assoc at the input the per-input scan names."""
    ca = subgroup_comodule(field)
    assert (ca.dim, ca.H.dim) == (2, 4)
    assert check_right_comodule_algebra(ca).passed
    assert verify_canonical_modules(ca).passed
    A = ca.algebra
    mult = {k: dict(v) for k, v in A.mult.items()}
    mult[(0, 1)][0] = field.one()  # e.a = a + e
    bad = RightComoduleAlgebra(ca.H, FinAlgebra(A.basis, mult, A.unit, field),
                               ca.coaction, ca.phi_rho, ca.phi_rho_inv,
                               name=ca.name)
    rep = verify_canonical_modules(bad)
    got = {r.tag: r for r in rep.records}["first/rmod-assoc"]
    want = VerificationReport("reference")
    M = canonical_first_module(bad)
    _ref_two_sided(M, want)
    ref = {r.tag: r for r in want.records}["rmod-assoc"]
    assert not got.passed
    assert got.counterexample == ref.counterexample
