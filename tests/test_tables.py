"""The axiom side-builders of algebra.py, the laws whose sides are
sandwiches (algebra.sandwich) or composites (LinearMap.compose) of
structure maps, and q2, q5, q6, ma3 and bmc3, whose sides are tables
read from graphs (algebra.as_table, quasihopf._both), against the
per-input scans they replaced. The _ref_* functions below hold those
scans: the old check_quantified and check_equal calls, now test-side
helpers (reference_builders.py), kept verbatim but for calls of deleted
one-line helpers, written out. On
seeded mutants over Q and GF(7), every converted check must give the
same records as its scan: the same tags, verdicts and counterexample
bytes."""

import functools
import itertools
import random

import pytest

from qhopf import (Basis, BicomoduleAlgebra, CrossedHopfModule,
                   DoiHopfModule,
                   FinAlgebra, LegMul, LeftComoduleAlgebra, LeftModuleAlgebra, LinearMap,
                   PrimeField, QQ, QuasiHopfAlgebra, RelativeHopfModule,
                   RightComoduleAlgebra, RightModuleCoalgebra, Tensor,
                   TwoSidedHopfModule,
                   BimoduleCoalgebra, canonical_bicomodule,
                   canonical_bimodule_coalgebra, canonical_first_module,
                   canonical_left_comodule, canonical_module_coalgebra,
                   canonical_right_comodule, canonical_second_module,
                   check_bicomodule_algebra, check_bimodule_coalgebra,
                   check_crossed_hopf_module,
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
                   twist, verify_canonical_modules, verify_core_identities)
from qhopf.algebra import _per_input, sweedler
from qhopf.report import VerificationReport

from conftest import rebase
from reference_builders import (_both, assemble, check_equal,
                                check_quantified, sw_sop)
from test_cli import fixed_twist
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

    check_quantified(
        rep, "counit-hom", _all_pairs(n),
        lambda i, j: (Tensor.scalar(H.eps(alg.mul(alg.e(i), alg.e(j))),
                                    H.field),
                      Tensor.scalar(H.eps(H.e(i)) * H.eps(H.e(j)), H.field)))
    check_quantified(
        rep, "comul-hom", _all_pairs(n),
        lambda i, j: (H.delta(alg.mul(alg.e(i), alg.e(j))),
                      H.tmul(H.delta(H.e(i)), H.delta(H.e(j)))))

    def q1(i):
        h = H.e(i)
        lhs = H.delta(h).map_leg(1, H.comul)
        rhs = H.tmulc(H.phi, H.delta(h).map_leg(0, H.comul), H.phi_inv)
        return lhs, rhs

    check_quantified(rep, "q1", ((i,) for i in range(n)), q1)
    one = H.unit()

    def q2(i):
        h = H.e(i)
        d = H.delta(h)
        lhs = d.map_leg(1, H.counit).tensor(one) + \
            one.tensor(d.map_leg(0, H.counit))
        rhs = h.tensor(one) + one.tensor(h)
        return lhs, rhs

    check_quantified(rep, "q2", ((i,) for i in range(n)), q2)
    check_quantified(
        rep, "antipode-antihom", _all_pairs(n),
        lambda i, j: (H.S(H.mul(H.e(i), H.e(j))),
                      H.mul(H.S(H.e(j)), H.S(H.e(i)))))

    m, S = H.leg(), H.antipode
    # q5's two sums on every Delta(e_i), leg 0 the input i
    q5_a, q5_b = (_per_input(H.comul.graph(), t) for t in (
        (m, (S, 1), H.alpha, 2), (m, 1, H.beta, (S, 2))))
    check_quantified(rep, "q5", ((i,) for i in range(n)), lambda i: _both(
        q5_a.column(i), q5_b.column(i), H.alpha.scale(H.eps(H.e(i))),
        H.beta.scale(H.eps(H.e(i)))))

    q6_a = sweedler(H.phi, ((m, 0, H.beta, (S, 1), H.alpha, 2),))
    q6_b = sweedler(H.phi_inv, ((m, (S, 0), H.alpha, 1, H.beta, (S, 2)),))
    check_equal(rep, "q6", *_both(q6_a, q6_b, one, one))

    check_quantified(
        rep, "eps-antipode", ((i,) for i in range(n)),
        lambda i: (Tensor.scalar(H.eps(H.S(H.e(i))), H.field),
                   Tensor.scalar(H.eps(H.e(i)), H.field)))


def _ref_core(H, rep):
    der = H.derived
    n = H.dim
    f, f_inv = der.f, der.f_inv
    check_quantified(rep, "ca", ((i,) for i in range(n)), lambda i: (
        H.tmulc(f, H.delta(H.S(H.e(i))), f_inv), sw_sop(H, H.e(i))))


def _ref_right_comodule(ca, rep):
    H = ca.H
    n = ca.dim
    check_quantified(
        rep, "coact-hom", ((i, j) for i in range(n) for j in range(n)),
        lambda i, j: (ca.coact(ca.algebra.mul(ca.algebra.e(i),
                                              ca.algebra.e(j))),
                      ca.mmul(ca.coact(ca.e(i)), ca.coact(ca.e(j)))))
    check_quantified(
        rep, "rca1", ((i,) for i in range(n)),
        lambda i: (ca.mmul(ca.phi_rho, ca.coact(ca.coact(ca.e(i)))),
                   ca.mmul(ca.coact(ca.e(i)).map_leg(1, H.comul), ca.phi_rho)))
    check_quantified(
        rep, "rca3", ((i,) for i in range(n)),
        lambda i: (ca.coact(ca.e(i)).map_leg(1, H.counit), ca.e(i)))


def _ref_left_comodule(ca, rep):
    H = ca.H
    n = ca.dim
    check_quantified(
        rep, "coact-hom", ((i, j) for i in range(n) for j in range(n)),
        lambda i, j: (ca.coact(ca.algebra.mul(ca.algebra.e(i),
                                              ca.algebra.e(j))),
                      ca.mmul(ca.coact(ca.e(i)), ca.coact(ca.e(j)))))
    check_quantified(
        rep, "lca1", ((i,) for i in range(n)),
        lambda i: (ca.mmul(ca.coact(ca.coact(ca.e(i)), leg=1), ca.phi_lam),
                   ca.mmul(ca.phi_lam, ca.coact(ca.e(i)).map_leg(0, H.comul))))
    check_quantified(
        rep, "lca3", ((i,) for i in range(n)),
        lambda i: (ca.coact(ca.e(i)).map_leg(0, H.counit), ca.e(i)))


def _ref_bicomodule(ba, rep):
    left, right = ba.left, ba.right
    n = ba.dim
    check_quantified(
        rep, "bca1", ((i,) for i in range(n)),
        lambda i: (ba.mmul(ba.phi_mid, left.coact(right.coact(ba.algebra.e(i)))),
                   ba.mmul(right.coact(left.coact(ba.algebra.e(i)), leg=1),
                           ba.phi_mid)))


def _ref_left_module_algebra(ma, rep):
    H = ma.H
    n = ma.dim
    m = H.dim
    check_quantified(
        rep, "module-assoc", ((i, j, a) for i in range(m) for j in range(m)
                              for a in range(n)),
        lambda i, j, a: (ma.act(H.mul(H.e(i), H.e(j)), ma.e(a)),
                         ma.act(H.e(i), ma.act(H.e(j), ma.e(a)))))
    check_quantified(
        rep, "module-unit", ((a,) for a in range(n)),
        lambda a: (ma.act(H.unit(), ma.e(a)), ma.e(a)))
    check_quantified(
        rep, "ma1", ((a, b, c) for a in range(n) for b in range(n)
                     for c in range(n)),
        lambda a, b, c: (
            ma.mul(ma.mul(ma.e(a), ma.e(b)), ma.e(c)),
            assemble(H.phi, lambda X1, X2, X3: ma.mul(
                ma.act(H.e(X1), ma.e(a)),
                ma.mul(ma.act(H.e(X2), ma.e(b)), ma.act(H.e(X3), ma.e(c)))))))
    check_quantified(
        rep, "ma2", ((i, a, b) for i in range(m) for a in range(n)
                     for b in range(n)),
        lambda i, a, b: (
            ma.act(H.e(i), ma.mul(ma.e(a), ma.e(b))),
            assemble(H.delta(H.e(i)), lambda h1, h2: ma.mul(
                ma.act(H.e(h1), ma.e(a)), ma.act(H.e(h2), ma.e(b))))))
    check_quantified(
        rep, "ma3", ((i,) for i in range(H.dim)),
        lambda i: (ma.act(H.e(i), ma.unit()),
                   ma.unit().scale(H.eps(H.e(i)))))


def _ref_right_module_coalgebra(mc, rep):
    H = mc.H
    n = mc.dim
    m = H.dim
    check_quantified(
        rep, "module-assoc", ((c, i, j) for c in range(n) for i in range(m)
                              for j in range(m)),
        lambda c, i, j: (mc.act(mc.e(c), H.mul(H.e(i), H.e(j))),
                         mc.act(mc.act(mc.e(c), H.e(i)), H.e(j))))
    check_quantified(
        rep, "module-unit", ((c,) for c in range(n)),
        lambda c: (mc.act(mc.e(c), H.unit()), mc.e(c)))
    check_quantified(
        rep, "rmc1", ((c,) for c in range(mc.dim)),
        lambda c: (mul_legs((mc.action,) * 3,
                            mc.e(c).map_leg(0, mc.comul).map_leg(0, mc.comul),
                            H.phi_inv),
                   mc.e(c).map_leg(0, mc.comul).map_leg(1, mc.comul)))
    check_quantified(
        rep, "rmc2", ((c, i) for c in range(n) for i in range(m)),
        lambda c, i: (mc.act(mc.e(c), H.e(i)).map_leg(0, mc.comul),
                      mul_legs((mc.action,) * 2, mc.e(c).map_leg(0, mc.comul),
                               H.delta(H.e(i)))))
    check_quantified(
        rep, "rmc3", ((c, i) for c in range(n) for i in range(m)),
        lambda c, i: (
            Tensor.scalar(mc.eps(mc.act(mc.e(c), H.e(i))), H.field),
            Tensor.scalar(mc.eps(mc.e(c)) * H.eps(H.e(i)), H.field)))


def _ref_two_sided(M, rep):
    ca, H = M.ca, M.H
    n, nH, nA = M.dim, H.dim, ca.dim
    check_quantified(
        rep, "lmod-assoc", ((i, j, m) for i in range(nH) for j in range(nH)
                            for m in range(n)),
        lambda i, j, m: (M.lact(H.mul(H.e(i), H.e(j)), M.e(m)),
                         M.lact(H.e(i), M.lact(H.e(j), M.e(m)))))
    check_quantified(
        rep, "lmod-unit", ((m,) for m in range(n)),
        lambda m: (M.lact(H.unit(), M.e(m)), M.e(m)))
    check_quantified(
        rep, "rmod-assoc", ((m, a, b) for m in range(n) for a in range(nA)
                            for b in range(nA)),
        lambda m, a, b: (M.ract(M.e(m), ca.algebra.mul(ca.algebra.e(a),
                                                       ca.algebra.e(b))),
                         M.ract(M.ract(M.e(m), ca.e(a)), ca.e(b))))
    check_quantified(
        rep, "rmod-unit", ((m,) for m in range(n)),
        lambda m: (M.ract(M.e(m), ca.unit()), M.e(m)))
    check_quantified(
        rep, "bimodule", ((i, m, a) for i in range(nH) for m in range(n)
                          for a in range(nA)),
        lambda i, m, a: (M.ract(M.lact(H.e(i), M.e(m)), ca.e(a)),
                         M.lact(H.e(i), M.ract(M.e(m), ca.e(a)))))
    check_quantified(
        rep, "counit", ((m,) for m in range(n)),
        lambda m: (M.e(m).map_leg(0, M.coaction).map_leg(1, H.counit), M.e(m)))
    left_legs = (M.left_action, H.leg(), H.leg())
    right_legs = (M.right_action, H.leg(), H.leg())

    def coassoc(m):
        rho2 = M.e(m).map_leg(0, M.coaction).map_leg(0, M.coaction)
        lhs = mul_legs(left_legs, H.phi, rho2)
        rhs = mul_legs(right_legs, M.e(m).map_leg(0, M.coaction)
                       .map_leg(1, H.comul),
                       ca.phi_rho)
        return lhs, rhs

    check_quantified(rep, "coassoc", ((m,) for m in range(M.dim)), coassoc)
    check_quantified(
        rep, "left-colinear", ((i, m) for i in range(nH) for m in range(n)),
        lambda i, m: (M.lact(H.e(i), M.e(m)).map_leg(0, M.coaction),
                      mul_legs((M.left_action, H.leg()),
                               H.delta(H.e(i)),
                               M.e(m).map_leg(0, M.coaction))))
    check_quantified(
        rep, "right-colinear", ((m, a) for m in range(n) for a in range(nA)),
        lambda m, a: (M.ract(M.e(m), ca.e(a)).map_leg(0, M.coaction),
                      mul_legs((M.right_action, H.leg()),
                               M.e(m).map_leg(0, M.coaction),
                               ca.coact(ca.e(a)))))


def _ref_relative(N, rep):
    qs, H = N.qs, N.H
    n, nH, nQ = N.dim, H.dim, qs.dim
    check_quantified(
        rep, "lmod-assoc", ((i, j, m) for i in range(nH) for j in range(nH)
                            for m in range(n)),
        lambda i, j, m: (N.lact(H.mul(H.e(i), H.e(j)), N.e(m)),
                         N.lact(H.e(i), N.lact(H.e(j), N.e(m)))))
    check_quantified(
        rep, "lmod-unit", ((m,) for m in range(n)),
        lambda m: (N.lact(H.unit(), N.e(m)), N.e(m)))
    check_quantified(
        rep, "rmod-unit", ((m,) for m in range(n)),
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
        rhs = assemble(H.phi, lambda X1, X2, X3: N.ract(
            N.lact(H.e(X1), N.e(m)), phi_factor(X2, X3, u, v)))
        return lhs, rhs

    check_quantified(
        rep, "quasi-assoc", ((m, u, v) for m in range(n) for u in range(nQ)
                             for v in range(nQ)), quasi_assoc)
    check_quantified(
        rep, "compat", ((i, m, u) for i in range(nH) for m in range(n)
                        for u in range(nQ)),
        lambda i, m, u: (
            N.lact(H.e(i), N.ract(N.e(m), qs.e(u))),
            assemble(H.delta(H.e(i)), lambda h1, h2: N.ract(
                N.lact(H.e(h1), N.e(m)), qs.act(H.e(h2), qs.e(u))))))


def _ref_bimodule_coalgebra(C, rep):
    H = C.H
    n, m = C.dim, H.dim
    check_quantified(
        rep, "lmod-assoc", ((i, j, c) for i in range(m) for j in range(m)
                            for c in range(n)),
        lambda i, j, c: (C.lact(H.mul(H.e(i), H.e(j)), C.e(c)),
                         C.lact(H.e(i), C.lact(H.e(j), C.e(c)))))
    check_quantified(
        rep, "rmod-assoc", ((c, i, j) for c in range(n) for i in range(m)
                            for j in range(m)),
        lambda c, i, j: (C.ract(C.e(c), H.mul(H.e(i), H.e(j))),
                         C.ract(C.ract(C.e(c), H.e(i)), H.e(j))))
    check_quantified(
        rep, "lmod-unit", ((c,) for c in range(n)),
        lambda c: (C.lact(H.unit(), C.e(c)), C.e(c)))
    check_quantified(
        rep, "rmod-unit", ((c,) for c in range(n)),
        lambda c: (C.ract(C.e(c), H.unit()), C.e(c)))
    check_quantified(
        rep, "commute", ((i, c, j) for i in range(m) for c in range(n)
                         for j in range(m)),
        lambda i, c, j: (C.lact(H.e(i), C.ract(C.e(c), H.e(j))),
                         C.ract(C.lact(H.e(i), C.e(c)), H.e(j))))
    lact3 = (C.left_action,) * 3
    ract3 = (C.right_action,) * 3
    check_quantified(
        rep, "bmc1", ((c,) for c in range(n)),
        lambda c: (mul_legs(ract3,
                            mul_legs(lact3, H.phi,
                                     C.e(c).map_leg(0, C.comul)
                                     .map_leg(0, C.comul)),
                            H.phi_inv),
                   C.e(c).map_leg(0, C.comul).map_leg(1, C.comul)))
    check_quantified(
        rep, "bmc2-left", ((i, c) for i in range(m) for c in range(n)),
        lambda i, c: (C.lact(H.e(i), C.e(c)).map_leg(0, C.comul),
                      mul_legs((C.left_action,) * 2, H.delta(H.e(i)),
                               C.e(c).map_leg(0, C.comul))))
    check_quantified(
        rep, "bmc2-right", ((c, i) for c in range(n) for i in range(m)),
        lambda c, i: (C.ract(C.e(c), H.e(i)).map_leg(0, C.comul),
                      mul_legs((C.right_action,) * 2,
                               C.e(c).map_leg(0, C.comul),
                               H.delta(H.e(i)))))
    check_quantified(
        rep, "bmc3", ((i, c) for i in range(m) for c in range(n)),
        lambda i, c: (
            Tensor.scalar(C.eps(C.lact(H.e(i), C.e(c))) +
                          C.eps(C.ract(C.e(c), H.e(i))), H.field),
            Tensor.scalar(H.eps(H.e(i)) * C.eps(C.e(c)) *
                          H.field.from_int(2), H.field)))


def _ref_doi_hopf(N, rep):
    cb, mc = N.cb, N.mc
    n, nB = N.dim, cb.dim
    check_quantified(
        rep, "rmod-assoc", ((m, a, b) for m in range(n) for a in range(nB)
                            for b in range(nB)),
        lambda m, a, b: (N.ract(N.e(m), cb.algebra.mul(cb.algebra.e(a),
                                                       cb.algebra.e(b))),
                         N.ract(N.ract(N.e(m), cb.e(a)), cb.e(b))))
    check_quantified(
        rep, "rmod-unit", ((m,) for m in range(n)),
        lambda m: (N.ract(N.e(m), cb.unit()), N.e(m)))
    check_quantified(
        rep, "dhm2", ((m,) for m in range(n)),
        lambda m: (N.e(m).map_leg(0, N.coaction).map_leg(0, mc.counit),
                   N.e(m)))
    check_quantified(
        rep, "dhm1", ((m,) for m in range(N.dim)),
        lambda m: (N.e(m).map_leg(0, N.coaction).map_leg(0, mc.comul),
                   mul_legs((mc.action, mc.action, N.r_action),
                            N.e(m).map_leg(0, N.coaction)
                            .map_leg(1, N.coaction),
                            cb.phi_lam)))
    check_quantified(
        rep, "dhm3", ((m, b) for m in range(n) for b in range(nB)),
        lambda m, b: (N.ract(N.e(m), cb.e(b)).map_leg(0, N.coaction),
                      mul_legs((mc.action, N.r_action),
                               N.e(m).map_leg(0, N.coaction),
                               cb.coact(cb.e(b)))))


def _ref_crossed(M, rep):
    ba, C, H, ts = M.ba, M.C, M.H, M.ts
    n, nH, nA = M.dim, H.dim, ba.dim
    check_quantified(
        rep, "c-counit", ((m,) for m in range(n)),
        lambda m: (M.e(m).map_leg(0, M.c_coaction).map_leg(0, C.counit),
                   M.e(m)))
    lactCC = (C.left_action, C.left_action, ts.left_action)
    ractCC = (C.right_action, C.right_action, ts.right_action)
    check_quantified(
        rep, "tstc1", ((m,) for m in range(n)),
        lambda m: (
            mul_legs(lactCC, H.phi, M.e(m).map_leg(0, M.c_coaction)
                     .map_leg(0, C.comul)),
            mul_legs(ractCC, M.e(m).map_leg(0, M.c_coaction)
                     .map_leg(1, M.c_coaction), ba.left.phi_lam)))
    lactCH = (C.left_action, ts.left_action, H.leg())
    ractCH = (C.right_action, ts.right_action, H.leg())
    check_quantified(
        rep, "tstc2", ((m,) for m in range(n)),
        lambda m: (
            mul_legs(lactCH, H.phi,
                     M.e(m).map_leg(0, ts.coaction).map_leg(0, M.c_coaction)),
            mul_legs(ractCH, M.e(m).map_leg(0, M.c_coaction)
                     .map_leg(1, ts.coaction), ba.phi_mid)))
    check_quantified(
        rep, "tstc3", ((i, m) for i in range(nH) for m in range(n)),
        lambda i, m: (ts.lact(H.e(i), M.e(m)).map_leg(0, M.c_coaction),
                      mul_legs((C.left_action, ts.left_action),
                               H.delta(H.e(i)),
                               M.e(m).map_leg(0, M.c_coaction))))
    check_quantified(
        rep, "tstc3b", ((m, a) for m in range(n) for a in range(nA)),
        lambda m, a: (
            ts.ract(M.e(m), ba.algebra.e(a)).map_leg(0, M.c_coaction),
            mul_legs((C.right_action, ts.right_action),
                     M.e(m).map_leg(0, M.c_coaction),
                     ba.left.coact(ba.algebra.e(a)))))


def _ref_canonical_iso(parts, rep):
    V, U, theta, ca = parts
    H = ca.H
    n, nH, nA = V.dim, H.dim, ca.dim
    check_quantified(
        rep, "iso-h-linear", ((i, m) for i in range(nH) for m in range(n)),
        lambda i, m: (V.lact(H.e(i), V.e(m)).map_leg(0, theta),
                      U.lact(H.e(i), theta.column(m))))
    check_quantified(
        rep, "iso-a-linear", ((m, a) for m in range(n) for a in range(nA)),
        lambda m, a: (V.ract(V.e(m), ca.e(a)).map_leg(0, theta),
                      U.ract(theta.column(m), ca.e(a))))
    check_quantified(
        rep, "iso-colinear", ((m,) for m in range(V.dim)),
        lambda m: (V.e(m).map_leg(0, V.coaction).map_leg(0, theta),
                   theta.column(m).map_leg(0, U.coaction)))


def _old_is_associative(A):
    n = A.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = A.mul(A.mul(A.e(i), A.e(j)), A.e(k))
                rhs = A.mul(A.e(i), A.mul(A.e(j), A.e(k)))
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


def _core_matches(H):
    """_assert_matches on ca of the core identities, on every Delta: an
    empty Sweedler sum is zero, so a Delta with an empty column leaves
    the suite to finish."""
    return _assert_matches(verify_core_identities(H), _ref_core, H)


def _function_algebra(G):
    """k^G, the dual of the group algebra G, on the basis of 1 and the
    delta functions d_g, g != e: the d_g multiply pointwise, Delta(d_g)
    = sum over ab = g of d_a (x) d_b and S(d_g) = d_{g^-1}. Its Delta is
    not cocommutative when G is not abelian. (On the basis of all d_g
    the unit is a sum of six terms, and the core identities ran over a
    minute.)"""
    field, n, one = G.field, G.dim, G.field.one()
    d = Basis(tuple("d_" + lab for lab in G.basis.labels), "k^" + G.name)
    prod = {ac: next(iter(row)) for ac, row in G.algebra.mult.items()}
    e = next(iter(G.unit().data))[0]
    unit = Tensor((d,), {(i,): one for i in range(n)}, field)
    cols = {}
    for ac, g in prod.items():
        cols.setdefault(g, {})[ac] = one
    phi = unit.tensor(unit).tensor(unit)
    K = QuasiHopfAlgebra(
        FinAlgebra(d, {(i, i): {i: one} for i in range(n)}, unit, field),
        LinearMap(d, (d, d), cols, field),
        LinearMap(d, (), {e: {(): one}}, field), phi,
        LinearMap(d, (d,), {g: {(c,): one} for (g, c), k in prod.items()
                            if k == e}, field),
        unit, unit, phi)
    # d_e = 1 - sum of the other d_g
    b = Basis(tuple("1" if i == e else lab
                    for i, lab in enumerate(d.labels)), d.name + "u")
    to_old = {i: {j: one for j in range(n)} if i == e else {i: one}
              for i in range(n)}
    to_new = LinearMap(d, (b,), {i: {(j,): one if j == e else -one
                                     for j in range(n)}
                                 if i == e else {(i,): one}
                                 for i in range(n)}, field)
    return rebase(K, b, to_old, to_new, d.name)


@FIELDS
def test_quasihopf_structure_maps(field):
    """counit-hom, comul-hom, q1, antipode-antihom and eps-antipode on
    mutants of the counit, the comultiplication and the antipode, and
    ca of the core identities on those of the comultiplication. The
    corpus Delta and its seeded mutants are all cocommutative (a mutant
    only changes entries g (x) g), so they cannot tell Delta^op from
    Delta in ca; k^S3 and the mutants of its Delta can."""
    failures = 0
    ks3 = _function_algebra(_field_corpus(field)["s3"])
    assert any(col.get((b, a)) != c for col in ks3.comul.cols.values()
               for (a, b), c in col.items())
    for H in (_field_corpus(field)["z2_quasi"], _field_corpus(field)["z3"],
              ks3):
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
                if name == "comul":
                    failures += _core_matches(Hm)
    assert failures >= 90


def _comodules(field, subgroup_comodule):
    H = _field_corpus(field)["z2_quasi"]
    return (canonical_right_comodule(H), subgroup_comodule(field))


@FIELDS
def test_comodule_algebras(field, subgroup_comodule):
    """coact-hom, rca1, rca3, lca1 and lca3 on mutants of the
    coactions, bca1 on mutants of both coactions of a bicomodule
    algebra, and coact-hom, rca1 and rca3 on mutants of the
    multiplication of a comodule algebra that is not H."""
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
    H = lca.H
    ba = canonical_bicomodule(H)
    parts = {"l": ba.left.coaction, "r": ba.right.coaction}
    for name, f in parts.items():
        for g in _mutants(f, ord(name)):
            maps = dict(parts, **{name: g})
            bm = BicomoduleAlgebra(
                LeftComoduleAlgebra(H, H.algebra, maps["l"], H.phi,
                                    H.phi_inv),
                RightComoduleAlgebra(H, H.algebra, maps["r"], H.phi,
                                     H.phi_inv), H.phi, H.phi_inv)
            failures += _assert_matches(check_bicomodule_algebra(bm),
                                        _ref_bicomodule, bm)
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
    assert failures >= 55


@FIELDS
def test_module_algebras_and_coalgebras(field):
    """module-assoc, module-unit, ma1 and ma2 on mutants of the actions
    of two module algebras (the quasi-smash product over H, and H* over
    H (x) H^op, whose reassociator is not trivial either) and on
    mutants of the comultiplication of H, which make it not
    cocommutative; and module-assoc, module-unit, rmc1, rmc2 and rmc3
    on mutants of the actions and comultiplications of module
    coalgebras."""
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
        for comul in _mutants(mc.comul, 8):
            mm = RightModuleCoalgebra(mc.H, mc.basis, comul, mc.counit,
                                      mc.action, name=mc.name)
            failures += _assert_matches(check_right_module_coalgebra(mm),
                                        _ref_right_module_coalgebra, mm)
    assert failures >= 100


@FIELDS
def test_two_sided_and_relative_modules(field, subgroup_comodule):
    """The nine converted checks of a two-sided Hopf module on mutants
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
    assert failures >= 160


@FIELDS
def test_relative_module_over_dense_twist(field):
    """The five checks of a relative Hopf module, on a seeded cyclic
    module over a gauge twist of k[Z/3], whose Phi has eight or nine
    (X2, X3) for each X1, and on mutants of both its actions: quasi-assoc sums
    (X2.u)(X3.v) by X1 before X1 acts on m, and each record and
    counterexample is the term-by-term reference's."""
    qs = quasi_smash(canonical_right_comodule(twist(*fixed_twist(3, field))))
    assert len({x[0] for x in qs.H.phi.data}) < len(qs.H.phi.data)
    N = seeded_cyclic_module(qs, smash_product(qs), 0)
    modules = [N]
    for name in ("h", "r"):
        f = N.h_action if name == "h" else N.r_action
        for g in itertools.islice(_mutants(f, ord(name), trials=1), 1, None):
            modules.append(RelativeHopfModule(
                qs, N.basis, g if name == "h" else N.h_action,
                g if name == "r" else N.r_action, name=N.name))
    failures = sum(_assert_matches(check_relative_hopf_module(Nm),
                                   _ref_relative, Nm) for Nm in modules)
    assert failures >= 2


@FIELDS
def test_canonical_module_isomorphism(field, subgroup_comodule, monkeypatch):
    """iso-h-linear, iso-a-linear and iso-colinear on mutants of theta, the map
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
    assert failures >= 30


@FIELDS
def test_bimodule_coalgebra(field):
    """lmod-assoc, rmod-assoc, lmod-unit, rmod-unit, commute, bmc1,
    bmc2-left and bmc2-right on mutants of both actions and of the
    comultiplication of a bimodule coalgebra."""
    failures = 0
    C = canonical_bimodule_coalgebra(_field_corpus(field)["z2_quasi"])
    parts = {"l": C.left_action, "r": C.right_action, "c": C.comul}
    for name, f in parts.items():
        for g in _mutants(f, ord(name)):
            maps = dict(parts, **{name: g})
            Cm = BimoduleCoalgebra(C.H, C.basis, maps["c"], C.counit,
                                   maps["l"], maps["r"], name=C.name)
            failures += _assert_matches(check_bimodule_coalgebra(Cm),
                                        _ref_bimodule_coalgebra, Cm)
    assert failures >= 65


def _doi_and_crossed(H):
    """The Doi-Hopf module of the cyclic module at seed 1 over the final
    smash product of the canonical datum over H, and the crossed Hopf
    module it gives."""
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
    return N, crossed_from_doi(N, ba, C, qs, sm)


@FIELDS
def test_doi_hopf_and_crossed_modules(field):
    """rmod-assoc, rmod-unit, dhm2, dhm1 and dhm3 of a Doi-Hopf module
    on mutants of its action and coaction, and c-counit, tstc1, tstc2,
    tstc3 and tstc3b of a crossed Hopf module on mutants of its
    coalgebra coaction and of its two-sided coaction."""
    N, M = _doi_and_crossed(_field_corpus(field)["z2"])
    failures = 0
    for name in ("r", "c"):
        f = N.r_action if name == "r" else N.coaction
        for g in _mutants(f, ord(name), trials=4):
            Nm = DoiHopfModule(N.cb, N.mc, N.basis,
                               g if name == "r" else N.r_action,
                               g if name == "c" else N.coaction,
                               name=N.name)
            failures += _assert_matches(check_doi_hopf_module(Nm),
                                        _ref_doi_hopf, Nm)
    ba, C, ts = M.ba, M.C, M.ts
    for g in _mutants(M.c_coaction, 8, trials=4):
        Mm = CrossedHopfModule(ba, C, ts, g)
        failures += _assert_matches(check_crossed_hopf_module(Mm),
                                    _ref_crossed, Mm)
    for g in _mutants(ts.coaction, 9, trials=4):
        Mm = CrossedHopfModule(ba, C, TwoSidedHopfModule(
            ts.ca, ts.basis, ts.left_action, ts.right_action, g,
            name=ts.name), M.c_coaction)
        failures += _assert_matches(check_crossed_hopf_module(Mm),
                                    _ref_crossed, Mm)
    assert failures >= 30


@FIELDS
def test_sandwich_laws_on_nongroup_and_twist(field, nongroup):
    """The thirteen laws whose sides are sandwiches or composites of
    structure maps (q1, ca, eps-antipode, rca1, lca1, bca1, rmc1,
    coassoc, iso-colinear, bmc1, dhm1, tstc1 and tstc2) on k[Z/3] in a
    non-group basis, whose structure constants are not all one, and on
    a gauge twist of k[Z/3], whose reassociator is dense: on each
    structure as it is and on mutants of the comultiplication and of
    the coactions. dhm1, tstc1 and tstc2 run on the non-group basis
    only: the crossed comodule algebra of the twist takes minutes to
    build."""
    failures = 0
    for H in (nongroup(field), twist(*fixed_twist(3, field))):
        for comul in _mutants(H.comul, 12, trials=3):
            Hm = QuasiHopfAlgebra(H.algebra, comul, H.counit, H.phi,
                                  H.antipode, H.alpha, H.beta, H.phi_inv,
                                  name=H.name)
            failures += _assert_matches(check_quasihopf(Hm), _ref_quasihopf,
                                        Hm)
            failures += _core_matches(Hm)
        ba = canonical_bicomodule(H)
        for g in _mutants(ba.left.coaction, 13, trials=3):
            left = LeftComoduleAlgebra(H, H.algebra, g, H.phi, H.phi_inv)
            bm = BicomoduleAlgebra(left, ba.right, H.phi, H.phi_inv)
            failures += _assert_matches(check_bicomodule_algebra(bm),
                                        _ref_bicomodule, bm)
            failures += _assert_matches(check_left_comodule_algebra(left),
                                        _ref_left_comodule, left)
        ca = ba.right
        for g in _mutants(ca.coaction, 14, trials=3):
            cm = RightComoduleAlgebra(H, H.algebra, g, H.phi, H.phi_inv)
            failures += _assert_matches(check_right_comodule_algebra(cm),
                                        _ref_right_comodule, cm)
        mc = canonical_module_coalgebra(H)
        failures += _assert_matches(check_right_module_coalgebra(mc),
                                    _ref_right_module_coalgebra, mc)
        C = canonical_bimodule_coalgebra(H)
        failures += _assert_matches(check_bimodule_coalgebra(C),
                                    _ref_bimodule_coalgebra, C)
        V, U = canonical_first_module(ca), canonical_second_module(ca)
        for g in _mutants(V.coaction, 15, trials=3):
            Vm = TwoSidedHopfModule(ca, V.basis, V.left_action,
                                    V.right_action, g, name=V.name)
            failures += _assert_matches(check_two_sided_hopf_module(Vm),
                                        _ref_two_sided, Vm)
        failures += _assert_matches(verify_canonical_modules(ca),
                                    _ref_canonical_iso,
                                    (V, U, module_isomorphism(ca)[0], ca))
    N, M = _doi_and_crossed(nongroup(field))
    failures += _assert_matches(check_doi_hopf_module(N), _ref_doi_hopf, N)
    for g in _mutants(M.c_coaction, 16, trials=3):
        Mm = CrossedHopfModule(M.ba, M.C, M.ts, g)
        failures += _assert_matches(check_crossed_hopf_module(Mm),
                                    _ref_crossed, Mm)
    assert failures >= 85


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
