"""Reference builders, copied unchanged from before the change they
check.

Field-scalar builders: canonical_first_module, _forward_action
(hopfmod.py), algebra_action_from_doi and crossed_smash_direct
(doihopf.py) as they were before they summed lifted integers
(fields.py). They sum Fraction or Fp scalars from field.zero()
accumulators and drop zeros with _clean_table or by deleting entries.

Per-pair builders: the module functors of hopfmod.py and doihopf.py as
they were before they restricted whole action tables (_restrict of
algebra.py), with one mul_legs product per table entry (_act_on) or one
assemble builder per coaction column, and H*'s derived tables
(hhop_module_coalgebra, dual_module_algebra, the convolution and
comultiplication of DualView and the H-action of QuasiSmash) as they
were before they became regroupings of existing tables.

Tensor detours: DualView.precompose, Tensor.pair_legs and the hits of
RightComoduleAlgebra and LeftComoduleAlgebra (here precompose,
pair_legs, right_hit and left_hit), as they were before e^i o S became
a row of the transposed antipode and the hit tables of
two_sided_crossed became slices of the coactions. The references below
and in the tests that form these tables keep them.

tests/test_lifted_builders.py checks the builders of the package
against them.

Per-pair kernels: _leg_sum as it was before it was staged leg by leg,
one itertools.product combination and one index tuple per pair of
terms, and the H.assemble chains of q5, q6 and twist's alpha_F and
beta_F (antipode_chains) as they were before _sweedler_chain formed
them on lifted tables. tests/test_staged_kernels.py checks the package's
kernels against them.

Per-pair identity scan: mbia1 of check_dual_bimodule_algebra (here
dual_mbia1) as it was before it became the quasi-associativity of H^*
over H (x) H^op (quasi_associative), one convolution chain per pair of
a term of Phi and a term of Phi^{-1}. tests/test_quasihopf.py checks
the package's mbia1 against it.
"""

from __future__ import annotations

import itertools
from typing import Dict, Tuple

from qhopf.algebra import (FinAlgebra, LegMul, _clean_table, _transpose,
                          mul_legs)
from qhopf.coact import (BicomoduleAlgebra, LeftComoduleAlgebra,
                         LeftModuleAlgebra, RightComoduleAlgebra,
                         RightModuleCoalgebra)
from qhopf.doihopf import (BimoduleCoalgebra, CrossedHopfModule,
                           DoiHopfModule)
from qhopf.hopfmod import (RelativeHopfModule, TwoSidedHopfModule,
                           smash_action_from_two_sided, smash_index)
from qhopf.products import ProductAlgebra, QuasiSmash
from qhopf.quasihopf import DualView, QuasiBialgebra, QuasiHopfAlgebra
from qhopf.report import VerificationReport
from qhopf.tensor import Basis, FlatSpace, LinearMap, Tensor


def canonical_first_module(ca: RightComoduleAlgebra) -> TwoSidedHopfModule:
    """The two-sided Hopf module on A (x) H:
    h (a (x) h') = a (x) h h';  (a (x) h) a' = sum a a'_(0) (x) h a'_(1);
    rho(a (x) h) = sum a X1 (x) h_1 X2 (x) h_2 X3 with X = Phi_rho."""
    H, A = ca.H, ca.algebra
    field = H.field
    flat = FlatSpace((A.basis, H.basis), field)
    nA, nH = A.dim, H.dim
    hmult, amult = H.algebra.mult, A.mult

    left = {}
    for h in range(nH):
        for a in range(nA):
            for k in range(nH):
                vec = hmult.get((h, k))
                if vec:
                    left[(h, flat.join((a, k)))] = {
                        flat.join((a, t)): c for t, c in vec.items()}
    left_action = LegMul(H.basis, flat.basis, flat.basis, left, field)

    right = {}
    for a in range(nA):
        for k in range(nH):
            m = flat.join((a, k))
            for a2 in range(nA):
                acc: Dict[int, object] = {}
                for (a0, a1), c0 in ca.coaction.cols.get(a2, {}).items():
                    for ra, cra in amult.get((a, a0), {}).items():
                        for rh, crh in hmult.get((k, a1), {}).items():
                            key = flat.join((ra, rh))
                            acc[key] = acc.get(key, field.zero()) + c0 * cra * crh
                acc = {k2: c for k2, c in acc.items() if c}
                if acc:
                    right[(m, a2)] = acc
    right_action = LegMul(flat.basis, A.basis, flat.basis, right, field)

    cols = {}
    for a in range(nA):
        for k in range(nH):
            src = ca.phi_rho.tensor(H.delta(H.e(k)))
            t = H.assemble(src, lambda X1, X2, X3, k1, k2:
                           A.mul_indices(a, X1).tensor(
                               H.mul(H.e(k1), H.e(X2))).tensor(
                                   H.mul(H.e(k2), H.e(X3))))
            cols[flat.join((a, k))] = dict(flat.pack(t).data)
    coaction = LinearMap(flat.basis, (flat.basis, H.basis), cols, field)
    return TwoSidedHopfModule(ca, flat.basis, left_action, right_action,
                              coaction, name=ca.name + "(x)H")


def _forward_action(M: TwoSidedHopfModule, F: Tensor, leads,
                    right: Basis, join) -> LegMul:
    """The table of the right action shared by both forward functors:

        m (a # e^p) [h] = sum e^p(S^{-1}(F2 m_(1) a_(1) p~2))
                              (lead m_(0))(a_(0) p~1),   lead = leads[h][F1],

    stored at (m, join(a, p, h)). The sum is staged: S^{-1}(F2 m_(1)
    a_(1) p~2) is formed once per (F2, m_(1), a_(1), p~2) and e^p reads
    its p-th coordinate; (lead m_(0))(a_(0) p~1) is formed once per
    (h, F1, m_(0), a_(0), p~1); and one pass over the terms fills the
    entries of every p for a given (m, a, h)."""
    ca, H = M.ca, M.H
    field = M.field
    zero = field.zero()
    A = ca.algebra
    F_terms = list(F.data.items())
    pt_terms = list(ca.p_tilde().data.items())
    scalars: Dict[tuple, Dict[int, object]] = {}
    vectors: Dict[tuple, Dict[int, object]] = {}

    def scalar(f2, m1, a1, p2):
        key = (f2, m1, a1, p2)
        got = scalars.get(key)
        if got is None:
            x = H.Sinv(H.mul(H.e(f2), H.e(m1), H.e(a1), H.e(p2)))
            got = scalars[key] = {p: c for (p,), c in x.data.items()}
        return got

    def vector(h, f1, m0, a0, p1):
        key = (h, f1, m0, a0, p1)
        got = vectors.get(key)
        if got is None:
            v = M.ract(M.lact(leads[h][f1], M.e(m0)), A.mul_indices(a0, p1))
            got = vectors[key] = {o: c for (o,), c in v.data.items()}
        return got

    table = {}
    for m in range(M.dim):
        m_terms = list(M.coaction.cols.get(m, {}).items())
        for a in range(A.dim):
            a_terms = list(ca.coaction.cols.get(a, {}).items())
            for h in range(len(leads)):
                rows: Dict[int, Dict[int, object]] = {}
                for (f1, f2), cf in F_terms:
                    for (m0, m1), cm in m_terms:
                        cfm = cf * cm
                        for (a0, a1), c_a in a_terms:
                            cfma = cfm * c_a
                            for (p1, p2), cp in pt_terms:
                                s = scalar(f2, m1, a1, p2)
                                if not s:
                                    continue
                                v = vector(h, f1, m0, a0, p1)
                                if not v:
                                    continue
                                c = cfma * cp
                                for p, sp in s.items():
                                    row = rows.setdefault(p, {})
                                    csp = c * sp
                                    for o, vo in v.items():
                                        row[o] = row.get(o, zero) + csp * vo
                for p, row in rows.items():
                    table[(m, join(a, p, h))] = row
    return LegMul(M.basis, right, M.basis, _clean_table(table), field)


def algebra_action_from_doi(N: DoiHopfModule, gsm: ProductAlgebra) -> LegMul:
    """Reconstruct the table of the right C* >< B action from the
    Doi-Hopf structure: n (c* >< b) = sum c*(n_(-1)) n_(0) b."""
    field = N.field
    table = {}
    for m in range(N.dim):
        col = N.coaction.cols.get(m, {})
        for g in range(gsm.dim):
            u, b = gsm.split(g)
            acc: Dict[int, object] = {}
            for (cm, m0), c in col.items():
                if cm != u:
                    continue
                for t, ct in N.r_action.table.get((m0, b), {}).items():
                    acc[t] = acc.get(t, field.zero()) + c * ct
            table[(m, g)] = acc
    return LegMul(N.basis, gsm.basis, N.basis, _clean_table(table), field)


def crossed_smash_direct(ba: BicomoduleAlgebra, C: BimoduleCoalgebra,
                         qs: QuasiSmash, sm: ProductAlgebra,
                         final: ProductAlgebra) -> LegMul:
    """The product table of C* >< ((A (x) H*) # H) by a single closed
    formula:

        [c* >< ((a # phi) # h)][d* >< ((a' # psi) # h')]
        = sum (xl1 -> c* <- S(X3) f1)
              (xl2 a_[-1] w1 -> d* <- S(X2 x3 h_2) f2)
          >< { [ xl3 a_[0] w2 a'_<0> xr1
                 # (X1_(1,1) y1 x1 -> phi <- w3 a'_<1> xr2)
                   (X1_(1,2) y2 x2_1 h_(1,1) -> psi <- xr3) ]
               # X1_2 y3 x2_2 h_(1,2) h' }

    where X = Phi, x, y = copies of Phi^{-1}, f = the twist element,
    w = the inverse middle reassociator, xr / xl = the inverse right /
    left reassociators of A, and the arrows on c*, d* are the transposed
    regular actions on the coalgebra. The sums are staged: everything
    coupling only Phi, f and the two Phi^{-1} copies is contracted once
    per h, then merged with the three reassociator sums and the two
    coactions per (h, a, a') before the per-pair loop."""
    H = qs.H
    field = H.field
    zero = field.zero()
    A = ba.algebra
    nH, nC = H.dim, C.dim
    hmult = H.algebra.mult
    amult = A.mult
    nest = smash_index(qs, sm)

    # (u -> e^s <- v) on the coalgebra: coefficient at c_w is the s-th
    # coordinate of v . c_w . u
    chit2: Dict[Tuple[int, int, int], Dict[int, object]] = {}
    for w in range(nC):
        for u in range(nH):
            cu = C.ract(C.e(w), H.e(u))
            if not cu.data:
                continue
            for v in range(nH):
                vec = C.lact(H.e(v), cu)
                for (s,), c in vec.data.items():
                    chit2.setdefault((u, s, v), {})[w] = c
    # same for functionals on H itself
    dhit2: Dict[Tuple[int, int, int], Dict[int, object]] = {}
    for w in range(nH):
        for u in range(nH):
            ku = hmult.get((w, u))
            if not ku:
                continue
            for v in range(nH):
                for k1, c1 in ku.items():
                    for s, c2 in hmult.get((v, k1), {}).items():
                        d = dhit2.setdefault((u, s, v), {})
                        d[w] = d.get(w, zero) + c1 * c2

    def conv_tab(cols):
        out: Dict[Tuple[int, int], Dict[int, object]] = {}
        for w, col in cols.items():
            for (u, v), c in col.items():
                out.setdefault((u, v), {})[w] = c
        return out

    cconv_t = conv_tab(C.comul.cols)
    dconv_t = H.dual.conv.mult

    def convolve(x: Dict[int, object], y: Dict[int, object], tab):
        acc: Dict[int, object] = {}
        for u, cu in x.items():
            for v, cv in y.items():
                col = tab.get((u, v))
                if not col:
                    continue
                c = cu * cv
                for w, cw in col.items():
                    acc[w] = acc.get(w, zero) + c * cw
        return acc

    # the product e_idxs[0] ... e_idxs[-1] in the table mult, formed once
    # per (table, indices)
    chains: Dict[tuple, Dict[int, object]] = {}

    def chain(mult, *idxs):
        key = (id(mult),) + idxs
        vec = chains.get(key)
        if vec is None:
            vec = {idxs[0]: field.one()}
            for i in idxs[1:]:
                nxt: Dict[int, object] = {}
                for k, c in vec.items():
                    for t, ct in mult.get((k, i), {}).items():
                        nxt[t] = nxt.get(t, zero) + c * ct
                vec = nxt
            chains[key] = vec
        return vec

    # stage one, per h: contract Phi, f and the two Phi^{-1} copies
    phiXX = H.phi.map_leg(0, H.comul).map_leg(0, H.comul)
    phix = H.phi_inv.map_leg(1, H.comul)

    def stage_one(h):
        src = phiXX.tensor(H.derived.f).tensor(H.phi_inv).tensor(phix).tensor(
            H.delta(H.e(h)).map_leg(0, H.comul))
        return H.assemble(src, lambda X11, X12, X1b, X2, X3, f1, f2,
                          y1, y2, y3, x1, x21, x22, x3, h11, h12, h2:
                          H.mul(H.S(H.e(X3)), H.e(f1)).tensor(
                              H.mul(H.S(H.mul(H.e(X2), H.e(x3), H.e(h2))),
                                    H.e(f2))).tensor(
                              H.mul(H.e(X11), H.e(y1), H.e(x1))).tensor(
                              H.mul(H.e(X12), H.e(y2), H.e(x21),
                                    H.e(h11))).tensor(
                              H.mul(H.e(X1b), H.e(y3), H.e(x22),
                                    H.e(h12))))

    # stage two, per (h, a, a2): merge in the reassociator sums and the
    # two coactions, pre-chaining every product that does not involve
    # the pair-dependent dual indices
    mid_inv = list(ba.phi_mid_inv.data.items())
    rho_inv = list(ba.right.phi_rho_inv.data.items())
    lam_inv = list(ba.left.phi_lam_inv.data.items())
    lam_cols = ba.left.coaction.cols
    rho_cols = ba.right.coaction.cols
    stage_cache: Dict[Tuple[int, int, int], Dict[tuple, object]] = {}
    sa_cache: Dict[int, list] = {}

    def stage_two(h, a, a2):
        key = (h, a, a2)
        got = stage_cache.get(key)
        if got is not None:
            return got
        if h not in sa_cache:
            sa_cache[h] = list(stage_one(h).data.items())
        merged: Dict[tuple, object] = {}
        for (L1, L2, L3, L4, L5), c0 in sa_cache[h]:
            for (w1, w2, w3), cw in mid_inv:
                for (am, a0), cla in lam_cols.get(a, {}).items():
                    for (l1, l2, l3), cl in lam_inv:
                        dleft = chain(hmult, l2, am, w1)
                        if not dleft:
                            continue
                        for (a20, a21), cra in rho_cols.get(a2, {}).items():
                            for (r1, r2, r3), cr in rho_inv:
                                avec = chain(amult, l3, a0, w2, a20, r1)
                                if not avec:
                                    continue
                                pleft = chain(hmult, w3, a21, r2)
                                if not pleft:
                                    continue
                                base = c0 * cw * cla * cl * cra * cr
                                for dl, cdl in dleft.items():
                                    for av, cav in avec.items():
                                        for pl, cpl in pleft.items():
                                            k = (l1, L1, dl, L2, L3, pl,
                                                 L4, r3, L5, av)
                                            c = base * cdl * cav * cpl
                                            s = merged.get(k, zero) + c
                                            if s:
                                                merged[k] = s
                                            elif k in merged:
                                                del merged[k]
        stage_cache[key] = merged
        return merged

    def evaluate(i: int, j: int) -> Dict[int, object]:
        s, g = final.split(i)
        t, g2 = final.split(j)
        a, p, h = nest.split(g)
        a2, q, h2 = nest.split(g2)
        out: Dict[int, object] = {}
        for key, base in stage_two(h, a, a2).items():
            l1, L1, dl, L2, L3, pl, L4, r3, L5, av = key
            cvec = chit2.get((l1, s, L1))
            if not cvec:
                continue
            dvec = chit2.get((dl, t, L2))
            if not dvec:
                continue
            pvec = dhit2.get((L3, p, pl))
            if not pvec:
                continue
            qvec = dhit2.get((L4, q, r3))
            if not qvec:
                continue
            cd = convolve(cvec, dvec, cconv_t)
            if not cd:
                continue
            fv = convolve(pvec, qvec, dconv_t)
            if not fv:
                continue
            tvec = hmult.get((L5, h2))
            if not tvec:
                continue
            for cw, cc in cd.items():
                c1 = base * cc
                for fw, fc in fv.items():
                    c2 = c1 * fc
                    for tw, tc in tvec.items():
                        k = final.join((cw, nest.join((av, fw, tw))))
                        sacc = out.get(k, zero) + c2 * tc
                        if sacc:
                            out[k] = sacc
                        elif k in out:
                            del out[k]
        return out

    n = final.dim
    return LegMul(final.basis, final.basis, final.basis, _clean_table(
        {(i, j): evaluate(i, j) for i in range(n) for j in range(n)}), field)


# ----------------------------------------------------------------------
# per-pair builders


def _act_on(action: LegMul, m: int, elem: Tensor) -> Tensor:
    """m . elem: the right action of an element of the acting algebra on
    the m-th basis vector of the module."""
    return mul_legs((action,),
                    Tensor.basis_vector(action.left, m, elem.field), elem)


def relative_from_two_sided(M: TwoSidedHopfModule,
                            qs: QuasiSmash) -> RelativeHopfModule:
    """Forward direction: the H-action becomes h . m = S^2(h) m and the
    right quasi-smash action is

        m (a # phi) = sum phi(S^{-1}(S(U1) f2 m_(1) a_(1) p~2))
                          S(U2) f1 (m_(0) a_(0) p~1),

    built by _forward_action with F = K = S(U2) f1 (x) S(U1) f2 and
    lead = K1: S^{-1}(K2 m_(1) a_(1) p~2) is formed once per
    (K2, m_(1), a_(1), p~2) and (K1 m_(0))(a_(0) p~1) once per
    (K1, m_(0), a_(0), p~1)."""
    H = M.H
    der = H.derived
    field = M.field
    # K = sum S(U2) f1 (x) S(U1) f2
    K = H.assemble(der.U.tensor(der.f), lambda u1, u2, f1, f2: H.mul(
        H.S(H.e(u2)), H.e(f1)).tensor(H.mul(H.S(H.e(u1)), H.e(f2))))

    h_action = LegMul.from_function(
        H.basis, M.basis, M.basis,
        lambda i, m: M.lact(H.S(H.S(H.e(i))), M.e(m)), field)
    r_action = _forward_action(
        M, K, [{k1: H.e(k1) for k1 in range(H.dim)}], qs.basis,
        lambda a, p, h: qs.prod.join((a, p)))
    return RelativeHopfModule(qs, M.basis, h_action, r_action, name=M.name)


def two_sided_from_relative(N: RelativeHopfModule,
                            ca: RightComoduleAlgebra) -> TwoSidedHopfModule:
    """Backward direction: h m = S^{-2}(h) . m, m a = m . (a # eps), and

        rho(m) = sum_i [S^{-1}(V2 g2) . m] . (q~1 # S^{-1}(V1 g1) ->
                 (e^i o S) <- q~2) (x) e_i.

    The quasi-smash element q~1 # (S^{-1}(V1 g1) -> (e^i o S) <- q~2) is
    formed once per (i, term of VG and q~) for the whole call, and
    S^{-1}(V2 g2) . m once per (m, V2 g2)."""
    qs, H = N.qs, N.H
    der, dual = H.derived, H.dual
    field = N.field
    qt = ca.q_tilde()
    eps = dual.eps_functional()
    # VG = sum V1 g1 (x) V2 g2
    VG = H.tmul(der.V, der.f_inv)

    left = LegMul.from_function(
        H.basis, N.basis, N.basis,
        lambda i, m: N.lact(H.Sinv(H.Sinv(H.e(i))), N.e(m)), field)
    right = LegMul.from_function(
        N.basis, ca.basis, N.basis,
        lambda m, a: N.ract(N.e(m), qs.element(ca.e(a), eps)), field)

    vg_terms = list(VG.data.items())
    qt_terms = list(qt.data.items())
    sinv = {t: H.Sinv(H.e(t)) for t in range(H.dim)}
    # q~1 # (S^{-1}(V1 g1) -> (e^i o S) <- q~2), or None when the
    # functional is zero, once per (i, term)
    elems = {}
    for i in range(H.dim):
        e_i_s = precompose(dual, dual.dual_e(i), H.antipode)
        for t1 in {t1 for (t1, _), _ in vg_terms}:
            hit = dual.hit_l(sinv[t1], e_i_s)
            for (q1, q2), _ in qt_terms:
                func = dual.hit_r(hit, H.e(q2))
                elems[(i, t1, q1, q2)] = \
                    qs.element(ca.e(q1), func) if func.data else None

    def coact_col(m):
        # S^{-1}(V2 g2) . m, once per (m, t2)
        moved = {t2: N.lact(sinv[t2], N.e(m)) for (_, t2), _ in vg_terms}
        acc = Tensor.zero((N.basis, H.basis), field)
        for i in range(H.dim):
            vec = Tensor.zero((N.basis,), field)
            for (t1, t2), c1 in vg_terms:
                m1 = moved[t2]
                if not m1.data:
                    continue
                for (q1, q2), c2 in qt_terms:
                    u = elems[(i, t1, q1, q2)]
                    if u is None:
                        continue
                    vec = vec + N.ract(m1, u).scale(c1 * c2)
            acc = acc + vec.tensor(H.e(i))
        return acc

    coaction = LinearMap.from_function(N.basis, (N.basis, H.basis),
                                       coact_col, field)
    return TwoSidedHopfModule(ca, N.basis, left, right, coaction,
                              name=N.name)


def relative_from_smash_module(qs: QuasiSmash, sm: ProductAlgebra,
                               action: LegMul) -> RelativeHopfModule:
    """A right module over the smash product (A # H*) # H becomes a
    relative Hopf module through

        h . m = m (1 # S(h)),    m . u = sum m (U1 . u # U2)

    where action is the table of the right action, pairing the module
    basis action.left with the smash basis."""
    H = qs.H
    field = H.field
    basis = action.left
    h_action = LegMul.from_function(
        H.basis, basis, basis,
        lambda i, m: _act_on(action, m, sm.flatten(
            qs.unit().tensor(H.S(H.e(i))))),
        field)

    u_elems = {}
    for u in range(qs.dim):
        u_elems[u] = H.assemble(H.derived.U, lambda u1, u2: sm.flatten(
            qs.act(H.e(u1), qs.e(u)).tensor(H.e(u2))))
    r_action = LegMul.from_function(
        basis, qs.basis, basis,
        lambda m, u: _act_on(action, m, u_elems[u]), field)
    return RelativeHopfModule(qs, basis, h_action, r_action, name=basis.name)


def two_sided_from_smash_module(qs: QuasiSmash, sm: ProductAlgebra,
                                action: LegMul, ca: RightComoduleAlgebra
                                ) -> TwoSidedHopfModule:
    """Direct transport of a right (A # H*) # H module, given by the
    table of its action, to a two-sided Hopf module:

        h m = m ((1 # eps) # S^{-1}(h)),   m a = m ((a # eps) # 1),
        rho(m) = sum_i m ((q~1 # S^{-1}(g2) -> (e^i o S) <- q~2)
                          # S^{-1}(g1)) (x) e_i."""
    H = qs.H
    der, dual = H.derived, H.dual
    field = H.field
    basis = action.left
    qt = ca.q_tilde()
    eps = dual.eps_functional()

    left = LegMul.from_function(
        H.basis, basis, basis,
        lambda i, m: _act_on(action, m, sm.flatten(
            qs.element(ca.unit(), eps).tensor(H.Sinv(H.e(i))))), field)
    right = LegMul.from_function(
        basis, ca.basis, basis,
        lambda m, a: _act_on(action, m, sm.flatten(
            qs.element(ca.e(a), eps).tensor(H.unit()))), field)

    coact_elems = {}
    for i in range(H.dim):
        e_i_s = precompose(dual, dual.dual_e(i), H.antipode)
        src = der.f_inv.tensor(qt)
        coact_elems[i] = H.assemble(src, lambda g1, g2, q1, q2: sm.flatten(
            qs.element(ca.e(q1), dual.hit_r(
                dual.hit_l(H.Sinv(H.e(g2)), e_i_s), H.e(q2))).tensor(
                    H.Sinv(H.e(g1)))))

    def coact_col(m):
        acc = Tensor.zero((basis, H.basis), field)
        for i in range(H.dim):
            acc = acc + _act_on(action, m, coact_elems[i]).tensor(H.e(i))
        return acc

    coaction = LinearMap.from_function(basis, (basis, H.basis), coact_col,
                                       field)
    return TwoSidedHopfModule(ca, basis, left, right, coaction,
                              name=basis.name)


def hhop_module_coalgebra(C: BimoduleCoalgebra,
                          HHop: QuasiBialgebra) -> RightModuleCoalgebra:
    """The bimodule coalgebra as a right H (x) H^op-module coalgebra:
    c . (h (x) h') = h' . c . h."""
    H = C.H
    field = H.field
    nH = H.dim
    if HHop.dim != nH * nH:
        raise ValueError("H (x) H^op basis does not match the flat layout")
    pair = FlatSpace((H.basis, H.basis), field)
    table = {}
    for c in range(C.dim):
        for i in range(nH):
            ci = C.ract(C.e(c), H.e(i))
            if not ci.data:
                continue
            for j in range(nH):
                vec = C.lact(H.e(j), ci)
                if vec.data:
                    table[(c, pair.join((i, j)))] = {
                        w: s for (w,), s in vec.data.items()}
    action = LegMul(C.basis, HHop.basis, C.basis, table, field)
    return RightModuleCoalgebra(HHop, C.basis, C.comul, C.counit, action,
                                name=C.name)


def dual_module_algebra(mc: RightModuleCoalgebra,
                        name: str = "") -> LeftModuleAlgebra:
    """The linear dual of a right module coalgebra as a left module
    algebra: convolution product, counit as unit, and the transposed
    action (h -> c*)(c) = c*(c . h)."""
    H = mc.H
    field = H.field
    n = mc.dim
    dbasis = mc.basis.dual()
    unit_data = {}
    for w in range(n):
        c = mc.counit.cols.get(w, {}).get(())
        if c:
            unit_data[(w,)] = c
    unit = Tensor((dbasis,), unit_data, field)
    alg = FinAlgebra(dbasis, _transpose(mc.comul.cols), unit, field)
    table = {}
    act = mc.action.table
    for w in range(n):
        for hidx in range(H.dim):
            for u, c in act.get((w, hidx), {}).items():
                table.setdefault((hidx, u), {})[w] = c
    action = LegMul(H.basis, dbasis, dbasis, table, field)
    return LeftModuleAlgebra(H, alg, action, name=name or mc.name + "*")


def doi_from_algebra_module(gsm: ProductAlgebra, cb: LeftComoduleAlgebra,
                            mc: RightModuleCoalgebra,
                            action: LegMul) -> DoiHopfModule:
    """Transport a right module over the generalized smash product
    C* >< B, given by the table of its action on the module basis
    action.left, to a Doi-Hopf module: n . b = n (eps >< b) and
    rho(n) = sum_i c_i (x) n (c^i >< 1_B)."""
    field = cb.field
    basis = action.left
    # unit of C* as a sparse vector over the dual basis
    eps_vec = {}
    for w in range(mc.dim):
        c = mc.counit.cols.get(w, {}).get(())
        if c:
            eps_vec[w] = c

    r_action = LegMul.from_function(
        basis, cb.basis, basis,
        lambda m, b: _act_on(action, m, Tensor.from_sparse(
            gsm.basis, {gsm.join((u, b)): c for u, c in eps_vec.items()},
            field)),
        field)

    one_b = {b: c for (b,), c in cb.unit().data.items()}

    def coact_col(m):
        acc = Tensor.zero((mc.basis, basis), field)
        for i in range(mc.dim):
            vec = _act_on(action, m, Tensor.from_sparse(
                gsm.basis, {gsm.join((i, b)): c for b, c in one_b.items()},
                field))
            acc = acc + mc.e(i).tensor(vec)
        return acc

    coaction = LinearMap.from_function(basis, (mc.basis, basis), coact_col,
                                       field)
    return DoiHopfModule(cb, mc, basis, r_action, coaction, name=basis.name)


def doi_from_crossed(M: CrossedHopfModule, lcb: LeftComoduleAlgebra,
                     mc: RightModuleCoalgebra, qs: QuasiSmash,
                     sm: ProductAlgebra) -> DoiHopfModule:
    """Forward functor: the right action of the nested smash product is
    reconstructed from the two-sided structure, and the coalgebra
    coaction is corrected by the twist element:

        rho~(n) = sum f1 . n_[-1] (x) f2 (succ) n_[0]."""
    H, C = M.H, M.C
    r_action = smash_action_from_two_sided(M.ts, qs, sm)

    def coact_col(m):
        src = H.derived.f.tensor(M.e(m).map_leg(0, M.c_coaction))
        return H.assemble(src, lambda f1, f2, cm, m0: C.lact(
            H.e(f1), C.e(cm)).tensor(M.ts.lact(H.e(f2), M.e(m0))))

    coaction = LinearMap.from_function(M.basis, (C.basis, M.basis),
                                       coact_col, M.field)
    return DoiHopfModule(lcb, mc, M.basis, r_action, coaction, name=M.name)


def crossed_from_doi(N: DoiHopfModule, ba: BicomoduleAlgebra,
                     C: BimoduleCoalgebra, qs: QuasiSmash,
                     sm: ProductAlgebra) -> CrossedHopfModule:
    """Backward functor: the two-sided Hopf module structure comes from
    the right action of the nested smash product, and the coalgebra
    coaction is corrected by the inverse twist element:

        rho_C(n) = sum g1 . n_[-1] (x) g2 (succ) n_[0]."""
    H = qs.H
    ts = two_sided_from_smash_module(qs, sm, N.r_action, ba.right)

    def ccoact_col(m):
        src = H.derived.f_inv.tensor(N.e(m).map_leg(0, N.coaction))
        return H.assemble(src, lambda g1, g2, cm, m0: C.lact(
            H.e(g1), C.e(cm)).tensor(ts.lact(H.e(g2), ts.e(m0))))

    c_coaction = LinearMap.from_function(N.basis, (C.basis, N.basis),
                                         ccoact_col, N.field)
    return CrossedHopfModule(ba, C, ts, c_coaction)


def dual_tables(dual: DualView) -> Tuple[Dict, LinearMap]:
    """The convolution table and the comultiplication of DualView, built
    as its constructor built them."""
    H = dual.H
    n = H.dim
    field = H.field

    # convolution: (e^a e^b)(e_k) = sum e^a(k_1) e^b(k_2)
    mult = {}
    for k in range(n):
        for (a, b), c in H.comul.cols.get(k, {}).items():
            mult.setdefault((a, b), {})[k] = c

    # comultiplication of H^*: transpose of the multiplication of H
    comul_cols = {}
    for (i, j), vec in H.algebra.mult.items():
        for k, c in vec.items():
            comul_cols.setdefault(k, {})[(i, j)] = c
    return mult, LinearMap(dual.basis, (dual.basis, dual.basis),
                           comul_cols, field)


def quasi_smash_action(qs: QuasiSmash) -> Dict:
    """The table of the left H-action of QuasiSmash, built as its
    constructor built it, with one hit_l product per (i, p)."""
    H, ca = qs.H, qs.ca
    dual = H.dual
    table = {}
    for i in range(H.dim):
        for p in range(H.dim):
            hit = dual.hit_l(H.e(i), dual.dual_e(p))
            for (pp,), c in hit.data.items():
                for a in range(ca.dim):
                    f = qs.prod.join((a, p))
                    table.setdefault((i, f), {})[qs.prod.join((a, pp))] = c
    return table


def precompose(dual: DualView, phi: Tensor, fmap: LinearMap) -> Tensor:
    """phi after fmap (for instance phi o S)."""
    data = {}
    for a in range(dual.H.dim):
        col = fmap.cols.get(a, {})
        acc = dual.H.field.zero()
        for (b,), c in col.items():
            v = phi.data.get((b,))
            if v:
                acc = acc + c * v
        if acc:
            data[(a,)] = acc
    return Tensor((dual.basis,), data, dual.H.field)


def pair_legs(t: Tensor, dual_leg: int, vec_leg: int) -> Tensor:
    """Contract a dual-basis leg against a primal leg (delta pairing).

    Both legs are removed; each term survives iff the two indices
    agree. The dual leg must be the dual() of the primal leg's basis
    (or vice versa)."""
    a, b = t.spaces[dual_leg], t.spaces[vec_leg]
    if a != b.dual() and b != a.dual():
        raise ValueError("legs %d and %d are not dual to each other" % (dual_leg, vec_leg))
    lo, hi = sorted((dual_leg, vec_leg))
    spaces = t.spaces[:lo] + t.spaces[lo + 1 : hi] + t.spaces[hi + 1 :]
    out = Tensor.zero(spaces, t.field)
    data = out.data
    for idx, c in t.data.items():
        if idx[dual_leg] != idx[vec_leg]:
            continue
        new = idx[:lo] + idx[lo + 1 : hi] + idx[hi + 1 :]
        s = data.get(new)
        s = c if s is None else s + c
        if s:
            data[new] = s
        elif new in data:
            del data[new]
    return out


def right_hit(ca: RightComoduleAlgebra, phi: Tensor, a: Tensor) -> Tensor:
    """The induced left action of a functional: phi |> a, pairing phi
    against the H-leg of rho(a)."""
    return pair_legs(phi.tensor(ca.coact(a)), 0, 2)


def left_hit(ca: LeftComoduleAlgebra, b: Tensor, phi: Tensor) -> Tensor:
    """The induced right action of a functional: b <| phi, pairing phi
    against the H-leg of lam(b)."""
    return pair_legs(phi.tensor(ca.coact(b)), 0, 1)


# ----------------------------------------------------------------------
# per-pair kernels


def _leg_sum(acc, gets, xs, ys) -> None:
    """Add the leg-wise products of xs and ys into acc: xs and ys are
    (multi-index, numerator) pairs, ys a sequence, and leg r of each
    product is read by gets[r] from its lifted rows. A structure constant
    equal to one is not multiplied in: the constants of group-like bases
    are all one."""
    if len(gets) == 1:
        get = gets[0]
        for (i,), cx in xs:
            for (j,), cy in ys:
                v = get((i, j))
                if v is not None:
                    c0 = cx * cy
                    for k, s in v:
                        idx = (k,)
                        acc[idx] = acc.get(idx, 0) + (c0 if s == 1 else c0 * s)
        return
    for xi, cx in xs:
        for yi, cy in ys:
            vecs = []
            for get, i, j in zip(gets, xi, yi):
                v = get((i, j))
                if v is None:
                    break
                vecs.append(v)
            else:
                c0 = cx * cy
                for combo in itertools.product(*vecs):
                    idx = tuple([k for k, _ in combo])
                    c = c0
                    for _, s in combo:
                        if s != 1:
                            c *= s
                    acc[idx] = acc.get(idx, 0) + c


def antipode_chains(H: QuasiHopfAlgebra, source: Tensor, which: str) -> Tensor:
    """One of the sums that _sweedler_chain forms, over the terms of
    source, by H.assemble of one-term H.mul chains: "S-alpha" is
    sum S(a) alpha b (q5, alpha_F), "beta-S" sum a beta S(b) (q5,
    beta_F), "q6-phi" sum a beta S(b) alpha c and "q6-phi-inv"
    sum S(a) alpha b beta S(c)."""
    builders = {
        "S-alpha": lambda a, b: H.mul(H.S(H.e(a)), H.alpha, H.e(b)),
        "beta-S": lambda a, b: H.mul(H.e(a), H.beta, H.S(H.e(b))),
        "q6-phi": lambda a, b, c: H.mul(
            H.e(a), H.beta, H.S(H.e(b)), H.alpha, H.e(c)),
        "q6-phi-inv": lambda a, b, c: H.mul(
            H.S(H.e(a)), H.alpha, H.e(b), H.beta, H.S(H.e(c))),
    }
    return H.assemble(source, builders[which])


def dual_mbia1(dual: DualView) -> VerificationReport:
    """mbia1 of check_dual_bimodule_algebra as it was before it became
    quasi_associative over H (x) H^op: per input, one convolution chain
    of hits for every pair of a term of Phi and a term of Phi^{-1}."""
    H = dual.H
    rep = VerificationReport("dual bimodule algebra %s" % H.name,
                             {"dim": H.dim, "field": H.field.name})
    n = H.dim

    def mbia1(a, b, c):
        phi, psi, xi = dual.dual_e(a), dual.dual_e(b), dual.dual_e(c)
        lhs = dual.convolve(dual.convolve(phi, psi), xi)
        rhs = None
        for (X1, X2, X3), c1 in H.phi.data.items():
            for (x1, x2, x3), c2 in H.phi_inv.data.items():
                t1 = dual.hit_r(dual.hit_l(H.e(X1), phi), H.e(x1))
                t2 = dual.hit_r(dual.hit_l(H.e(X2), psi), H.e(x2))
                t3 = dual.hit_r(dual.hit_l(H.e(X3), xi), H.e(x3))
                term = dual.convolve(t1, dual.convolve(t2, t3)).scale(c1 * c2)
                rhs = term if rhs is None else rhs + term
        return lhs, rhs

    rep.check_quantified(
        "mbia1",
        ((a, b, c) for a in range(n) for b in range(n) for c in range(n)),
        mbia1)
    return rep
