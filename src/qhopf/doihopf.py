"""Doi-Hopf modules and two-sided two-cosided (crossed) Hopf modules.

A Doi-Hopf module mixes a right action of a left comodule algebra with a
left coaction of a right module coalgebra; when the coalgebra is finite
dimensional the category is isomorphic to the category of right modules
over the generalized smash product of the dual algebra with the comodule
algebra.

A crossed Hopf module over a bicomodule algebra and a bimodule coalgebra
carries four structures (two actions, two coactions). Over H (x) H^op
the nested smash product (A (x) H*) # H becomes a left comodule algebra
through the map written here as the crossed coaction, and the category
of crossed Hopf modules is isomorphic to the category of Doi-Hopf
modules over it - hence, dualizing the coalgebra, to a category of
right modules over a single generalized smash product algebra. Both
functors, the direct multiplication formulas and exact round-trip
verifiers are implemented below. The Doi-Hopf structure of a module
over the generalized smash product restricts its action table along
fixed elements such as eps >< b (_restrict in algebra.py). The action
of H (x) H^op on a bimodule coalgebra, the C* >< B action read back
from a Doi-Hopf module, the crossed coaction, its reassociator and the
nested smash product's table are each one Sweedler sum (sweedler in
algebra.py) over graphs of structure maps, the legs of H (x) H^op,
C* >< B and (A (x) H*) # H written by flat_pairing; any other flat
index is read from the keys of the product algebra that owns it.
Every axiom check compares two whole tables (check_same); bmc1,
dhm1, tstc1 and tstc2 state each side of a coassociativity up to
the reassociators as one map (sandwich in algebra.py), and the two
functors twist the coalgebra coaction by f or f^{-1} the same way.
"""

from __future__ import annotations

from functools import cache
from typing import Dict, Tuple

from .algebra import (FinAlgebra, LegMul, _chain, _grid, _hit_products,
                      _lift_rows, _lowered, _pairs, _restrict, _transpose,
                      actions_commute, as_table, counit_identity,
                      flat_pairing, left_action_assoc, left_action_unit,
                      mul_legs, multiplicative, right_action_assoc,
                      right_action_unit, sandwich, sweedler)
from .coact import (BicomoduleAlgebra, LeftComoduleAlgebra,
                    LeftModuleAlgebra, OverH, RightModuleCoalgebra,
                    canonical_bicomodule, check_left_comodule_algebra)
from .hopfmod import (TwoSidedHopfModule, check_two_sided_hopf_module,
                      cyclic_right_submodule,
                      smash_action_from_two_sided,
                      two_sided_from_smash_module)
from .products import (ProductAlgebra, QuasiSmash, generalized_smash,
                       quasi_smash, smash_product)
from .quasihopf import QuasiBialgebra, QuasiHopfAlgebra
from .report import VerificationReport
from .tensor import Basis, LinearMap, Tensor


# ----------------------------------------------------------------------
# bimodule coalgebras


class BimoduleCoalgebra(OverH):
    """An H-bimodule coalgebra: a coalgebra in the category of
    (H,H)-bimodules, coassociative up to conjugation by the
    reassociator acting through the two module structures."""

    def __init__(self, H: QuasiBialgebra, basis: Basis, comul: LinearMap,
                 counit: LinearMap, left_action: LegMul,
                 right_action: LegMul, name: str = ""):
        if left_action.left != H.basis or left_action.right != basis or \
                left_action.out != basis:
            raise ValueError("left action must pair H with the carrier")
        if right_action.left != basis or right_action.right != H.basis or \
                right_action.out != basis:
            raise ValueError("right action must pair the carrier with H")
        if comul.domain != basis or comul.codomain != (basis, basis):
            raise ValueError("comultiplication must map C to C (x) C")
        self.H = H
        self.basis = basis
        self.comul = comul
        self.counit = counit
        self.left_action = left_action
        self.right_action = right_action
        self.name = name or basis.name

    def lact(self, h: Tensor, c: Tensor) -> Tensor:
        return mul_legs((self.left_action,), h, c)

    def ract(self, c: Tensor, h: Tensor) -> Tensor:
        return mul_legs((self.right_action,), c, h)

    def eps(self, c: Tensor):
        return c.map_leg(0, self.counit).coeff(())


def canonical_bimodule_coalgebra(H: QuasiBialgebra) -> BimoduleCoalgebra:
    """H over itself: comultiplication, counit, two-sided multiplication."""
    return BimoduleCoalgebra(H, H.basis, H.comul, H.counit, H.leg(),
                             H.leg(), name=H.name)


def check_bimodule_coalgebra(C: BimoduleCoalgebra) -> VerificationReport:
    H = C.H
    rep = VerificationReport("bimodule coalgebra %s" % C.name,
                             {"dim": C.dim, "field": H.field.name})
    rep.check_same("lmod-assoc", *left_action_assoc(C.left_action, H.leg()))
    rep.check_same("rmod-assoc", *right_action_assoc(C.right_action, H.leg()))
    rep.check_same("lmod-unit", *left_action_unit(C.left_action, H.unit()))
    rep.check_same("rmod-unit", *right_action_unit(C.right_action, H.unit()))
    outer_first, inner_first = actions_commute(C.left_action, C.right_action)
    rep.check_same("commute", inner_first, outer_first)
    rep.check_same("bmc1", sandwich(C.comul.compose(C.comul), H.phi,
                                    (C.left_action,) * 3, H.phi_inv,
                                    (C.right_action,) * 3),
                   C.comul.compose(C.comul, 1))
    rep.check_same("bmc2-left", *multiplicative(
        C.comul, C.left_action, (C.left_action,) * 2, left=H.comul))
    rep.check_same("bmc2-right", *multiplicative(
        C.comul, C.right_action, (C.right_action,) * 2, right=H.comul))
    # eps(h . c) + eps(c . h) and 2 eps(h) eps(c) on every input (h, c),
    # read from the sum of all of them and the graphs of the counits
    pairs = _grid(H.field, H.basis, C.basis)
    left, right = (sweedler(pairs, (0, 1, term)).map_leg(2, C.counit)
                   for term in ((C.left_action, 0, 1), (C.right_action, 1, 0)))
    rep.check_same("bmc3", as_table(left + right, 2), as_table(
        H.counit.graph().tensor(C.counit.graph()).scale(
            H.field.from_int(2)), 2))
    return rep


def hhop_module_coalgebra(C: BimoduleCoalgebra,
                          HHop: QuasiBialgebra) -> RightModuleCoalgebra:
    """The bimodule coalgebra as a right H (x) H^op-module coalgebra:
    c . (h (x) h') = h' . (c . h), one sum over every input (c, h, h'),
    h and h' written into one leg of H (x) H^op by flat_pairing."""
    H = C.H
    field = H.field
    hh = flat_pairing(H.basis, H.basis, HHop.basis, field)
    action = LegMul.from_graph(sweedler(
        _grid(field, C.basis, H.basis, H.basis),
        (0, (hh, 1, 2), (C.left_action, 2, (C.right_action, 0, 1)))))
    return RightModuleCoalgebra(HHop, C.basis, C.comul, C.counit, action,
                                name=C.name)


def dual_module_algebra(mc: RightModuleCoalgebra,
                        name: str = "") -> LeftModuleAlgebra:
    """The linear dual of a right module coalgebra as a left module
    algebra: convolution product, counit as unit, and the transposed
    action (h -> c*)(c) = c*(c . h)."""
    H = mc.H
    field = H.field
    dbasis = mc.basis.dual()
    unit = Tensor((dbasis,), {(w,): col[()] for w, col in
                              mc.counit.cols.items()}, field)
    alg = FinAlgebra(dbasis, _transpose(mc.comul.cols), unit, field)
    table = {}
    for (w, hidx), vec in mc.action.table.items():
        for u, c in vec.items():
            table.setdefault((hidx, u), {})[w] = c
    action = LegMul(H.basis, dbasis, dbasis, table, field)
    return LeftModuleAlgebra(H, alg, action, name=name or mc.name + "*")


# ----------------------------------------------------------------------
# Doi-Hopf modules


class DoiHopfModule(OverH):
    """A right-left Doi-Hopf module: a right module over a left comodule
    algebra together with a compatible left coaction of a right module
    coalgebra (both over the same quasi-bialgebra)."""

    def __init__(self, cb: LeftComoduleAlgebra, mc: RightModuleCoalgebra,
                 basis: Basis, r_action: LegMul, coaction: LinearMap,
                 name: str = ""):
        if cb.H is not mc.H:
            raise ValueError("comodule algebra and coalgebra must share H")
        if r_action.left != basis or r_action.right != cb.basis or \
                r_action.out != basis:
            raise ValueError("right action must pair the carrier with B")
        if coaction.domain != basis or coaction.codomain != (mc.basis, basis):
            raise ValueError("coaction must map N to C (x) N")
        self.cb = cb
        self.mc = mc
        self.H = cb.H
        self.basis = basis
        self.r_action = r_action
        self.coaction = coaction
        self.name = name or basis.name

    def ract(self, n: Tensor, b: Tensor) -> Tensor:
        return mul_legs((self.r_action,), n, b)


def check_doi_hopf_module(N: DoiHopfModule) -> VerificationReport:
    cb, mc = N.cb, N.mc
    rep = VerificationReport("Doi-Hopf module %s" % N.name,
                             {"dim": N.dim, "field": N.field.name})
    rep.check_same("rmod-assoc", *right_action_assoc(N.r_action, cb.algebra))
    rep.check_same("rmod-unit", *right_action_unit(N.r_action, cb.unit()))
    rep.check_same("dhm2", *counit_identity(N.coaction, mc.counit, 0))
    rho = N.coaction
    rep.check_same("dhm1", mc.comul.compose(rho), sandwich(
        rho.compose(rho, 1), y=cb.phi_lam,
        ylegs=(mc.action, mc.action, N.r_action)))
    rep.check_same("dhm3", *multiplicative(
        N.coaction, N.r_action, (mc.action, N.r_action), right=cb.coaction))
    return rep


def doi_from_algebra_module(gsm: ProductAlgebra, cb: LeftComoduleAlgebra,
                            mc: RightModuleCoalgebra,
                            action: LegMul) -> DoiHopfModule:
    """Transport a right module over the generalized smash product
    C* >< B, given by the table of its action on the module basis
    action.left, to a Doi-Hopf module: n . b = n (eps >< b) and
    rho(n) = sum_i c_i (x) n (c^i >< 1_B), the action restricted along
    eps >< b and along the one element sum_i (c^i >< 1_B) (x) c_i
    (_restrict), whose leg c_i is moved in front."""
    field = cb.field
    basis = action.left
    flat = gsm.flat
    # eps, the unit of C*, is the counit read over the dual basis
    r_action = LegMul(basis, cb.basis, basis, _restrict(action, [
        Tensor.from_sparse(gsm.basis, {flat[u, b]: col[()]
                                       for u, col in mc.counit.cols.items()},
                           field) for b in range(cb.dim)]), field)

    units = Tensor((gsm.basis, mc.basis), {
        (flat[i, b], i): c for i in range(mc.dim)
        for (b,), c in cb.unit().data.items()}, field)
    coaction = LinearMap(basis, (mc.basis, basis), {
        m: {(i, k): c for (k, i), c in vec.items()}
        for (m, _), vec in _restrict(action, [units]).items()}, field)
    return DoiHopfModule(cb, mc, basis, r_action, coaction, name=basis.name)


def algebra_action_from_doi(N: DoiHopfModule, gsm: ProductAlgebra) -> LegMul:
    """Reconstruct the table of the right C* >< B action from the
    Doi-Hopf structure: n (c* >< b) = sum c*(n_(-1)) n_(0) b, one sum
    over the graph of the coaction and every b, the index of n_(-1),
    read as c*, and b written into one leg by flat_pairing."""
    field = N.field
    pair = flat_pairing(N.mc.basis, N.cb.basis, gsm.basis, field)
    return LegMul.from_graph(sweedler(
        N.coaction.graph().tensor(_grid(field, N.cb.basis)),
        (0, (pair, 1, 3), (N.r_action, 2, 3))))


# ----------------------------------------------------------------------
# crossed (two-sided two-cosided) Hopf modules


class CrossedHopfModule(OverH):
    """A two-sided two-cosided Hopf module over a bicomodule algebra and
    a bimodule coalgebra: a two-sided Hopf module ts over the right
    comodule algebra of ba together with a left coaction of the
    coalgebra, compatible up to the reassociators."""

    def __init__(self, ba: BicomoduleAlgebra, C: BimoduleCoalgebra,
                 ts: TwoSidedHopfModule, c_coaction: LinearMap):
        if ba.H is not C.H:
            raise ValueError("bicomodule algebra and coalgebra must share H")
        if c_coaction.domain != ts.basis or \
                c_coaction.codomain != (C.basis, ts.basis):
            raise ValueError("coalgebra coaction must map N to C (x) N")
        self.ba = ba
        self.C = C
        self.H = ba.H
        self.ts = ts
        self.basis = ts.basis
        self.c_coaction = c_coaction
        self.name = ts.name


def check_crossed_hopf_module(M: CrossedHopfModule) -> VerificationReport:
    ba, C, H, ts = M.ba, M.C, M.H, M.ts
    rep = VerificationReport("crossed Hopf module %s" % M.name,
                             {"dim": M.dim, "field": H.field.name})
    rep.extend(check_two_sided_hopf_module(ts), prefix="ts/")
    rep.check_same("c-counit", *counit_identity(M.c_coaction, C.counit, 0))
    rho_c = M.c_coaction
    rep.check_same("tstc1", sandwich(
        C.comul.compose(rho_c), H.phi,
        (C.left_action, C.left_action, ts.left_action)), sandwich(
        rho_c.compose(rho_c, 1), y=ba.left.phi_lam,
        ylegs=(C.right_action, C.right_action, ts.right_action)))
    rep.check_same("tstc2", sandwich(
        rho_c.compose(ts.coaction), H.phi,
        (C.left_action, ts.left_action, H.leg())), sandwich(
        ts.coaction.compose(rho_c, 1), y=ba.phi_mid,
        ylegs=(C.right_action, ts.right_action, H.leg())))
    rep.check_same("tstc3", *multiplicative(
        M.c_coaction, ts.left_action, (C.left_action, ts.left_action),
        left=H.comul))
    rep.check_same("tstc3b", *multiplicative(
        M.c_coaction, ts.right_action, (C.right_action, ts.right_action),
        right=ba.left.coaction))
    return rep


# ----------------------------------------------------------------------
# the nested smash product as a comodule algebra over H (x) H^op


def crossed_comodule_algebra(ba: BicomoduleAlgebra, HHop: QuasiBialgebra,
                             qs: QuasiSmash, sm: ProductAlgebra
                             ) -> LeftComoduleAlgebra:
    """The nested smash product (A (x) H*) # H as a left H (x) H^op
    comodule algebra. The coaction is

        (a # phi) # h |-> sum (a_[-1] w1 (x) S(y3 h_2))
                          (x) (a_[0] w2 # y1 -> phi <- w3) # y2 h_1

    with w = the inverse middle reassociator and y = Phi^{-1}, and the
    left reassociator is

        sum (Xl1 (x) g1 S(x3)) (x) (Xl2 (x) g2 S(x2))
            (x) (Xl3 # eps) # x1

    with Xl = the left reassociator of A, g = the inverse twist element
    and x = Phi^{-1}. Its inverse is formed in the same way, as

        sum (xl1 (x) S(X3) f1) (x) (xl2 (x) S(X2) f2)
            (x) (xl3 # eps) # X1

    with xl = the inverse left reassociator of A, f = the twist element
    and X = Phi; it is solved for only where a failed axiom of H or ba
    makes the comodule algebra's check refuse it."""
    H = ba.H
    if not isinstance(H, QuasiHopfAlgebra):
        raise ValueError("the crossed coaction needs antipode data")
    dual = H.dual
    field = H.field
    A = ba.algebra

    m, S = H.leg(), H.antipode
    hl, hr = dual.hit_l_leg, dual.hit_r_leg
    hh = flat_pairing(H.basis, H.basis, HHop.basis, field)
    outer = flat_pairing(qs.basis, H.basis, sm.basis, field)
    inner = flat_pairing(A.basis, dual.basis, qs.basis, field)

    # one sum over the graph of lambda, the graph of the identity of H*,
    # the graph of Delta, w and y: legs 0, 3 and 4 nest into the input
    # (a # e^p) # h
    ident = LinearMap.identity(dual.basis, field).graph()
    src = ba.left.coaction.graph().tensor(ident).tensor(
        H.comul.graph()).tensor(ba.phi_mid_inv).tensor(H.phi_inv)
    coaction = LinearMap.from_graph(sweedler(src, (
        (outer, (inner, 0, 3), 5),
        (hh, (m, 1, 8), (S, (m, 13, 7))),
        (outer, (inner, (A, 2, 9), (hr, (hl, 11, 4), 10)), (m, 12, 6)))))

    eps = dual.eps_functional()
    src = ba.left.phi_lam.tensor(H.derived.f_inv).tensor(H.phi_inv)
    phi_w = sweedler(src, ((hh, 0, (m, 3, (S, 7))), (hh, 1, (m, 4, (S, 6))),
                           (outer, (inner, 2, eps), 5)))
    src = ba.left.phi_lam_inv.tensor(H.derived.f).tensor(H.phi)
    phi_w_inv = sweedler(src, ((hh, 0, (m, (S, 7), 3)),
                               (hh, 1, (m, (S, 6), 4)),
                               (outer, (inner, 2, eps), 5)))
    try:
        return LeftComoduleAlgebra(HHop, sm, coaction, phi_w, phi_w_inv,
                                   name=sm.basis.name)
    except ValueError:  # H or ba fails an axiom the closed form rests on
        return LeftComoduleAlgebra(HHop, sm, coaction, phi_w,
                                   name=sm.basis.name)


# ----------------------------------------------------------------------
# the two functors between crossed and Doi-Hopf modules


def doi_from_crossed(M: CrossedHopfModule, lcb: LeftComoduleAlgebra,
                     mc: RightModuleCoalgebra, qs: QuasiSmash,
                     sm: ProductAlgebra) -> DoiHopfModule:
    """Forward functor: the right action of the nested smash product is
    reconstructed from the two-sided structure, and the coalgebra
    coaction is corrected by the twist element:

        rho~(n) = sum f1 . n_[-1] (x) f2 (succ) n_[0]."""
    r_action = smash_action_from_two_sided(M.ts, qs, sm)
    coaction = sandwich(M.c_coaction, M.H.derived.f,
                        (M.C.left_action, M.ts.left_action))
    return DoiHopfModule(lcb, mc, M.basis, r_action, coaction, name=M.name)


def crossed_from_doi(N: DoiHopfModule, ba: BicomoduleAlgebra,
                     C: BimoduleCoalgebra, qs: QuasiSmash,
                     sm: ProductAlgebra) -> CrossedHopfModule:
    """Backward functor: the two-sided Hopf module structure comes from
    the right action of the nested smash product, and the coalgebra
    coaction is corrected by the inverse twist element:

        rho_C(n) = sum g1 . n_[-1] (x) g2 (succ) n_[0]."""
    ts = two_sided_from_smash_module(qs, sm, N.r_action, ba.right)
    c_coaction = sandwich(N.coaction, qs.H.derived.f_inv,
                          (C.left_action, ts.left_action))
    return CrossedHopfModule(ba, C, ts, c_coaction)


# ----------------------------------------------------------------------
# direct multiplication formulas


def nested_smash_direct(qs: QuasiSmash, sm: ProductAlgebra,
                        ba: BicomoduleAlgebra) -> LegMul:
    """The product table of (A (x) H*) # H by the direct formula:

        ((a # phi) # h)((a' # psi) # h')
            = sum a a'_<0> xr1 # (x1 -> phi <- a'_<1> xr2)
                                 (x2 h_1 -> psi <- xr3) # x3 h_2 h'

    with x = Phi^{-1} and xr = the inverse right reassociator of A."""
    H = qs.H
    dual = H.dual
    field = H.field
    A = ba.algebra
    m, conv = H.leg(), dual.conv
    hl, hr = dual.hit_l_leg, dual.hit_r_leg
    outer = flat_pairing(qs.basis, H.basis, sm.basis, field)
    inner = flat_pairing(A.basis, dual.basis, qs.basis, field)

    # one sum over the graphs of the identities of A, H* and H, of Delta
    # and of rho, and x and xr: legs 0, 2 and 4 nest into the left
    # input, legs 7, 10 and 12 into the right one
    ident_a, ident_d, ident_h = (LinearMap.identity(b, field).graph()
                                 for b in (A.basis, dual.basis, H.basis))
    src = ident_a.tensor(ident_d).tensor(H.comul.graph()).tensor(
        ba.right.coaction.graph()).tensor(ident_d).tensor(ident_h).tensor(
        H.phi_inv).tensor(ba.right.phi_rho_inv)
    graph = sweedler(src, (
        (outer, (inner, 0, 2), 4), (outer, (inner, 7, 10), 12),
        (outer, (inner, (A, 1, 8, 17),
                 (conv, (hr, (hl, 14, 3), (m, 9, 18)),
                  (hr, (hl, (m, 15, 5), 11), 19))), (m, 16, 6, 13))))
    return LegMul.from_graph(graph)


def crossed_smash_direct(ba: BicomoduleAlgebra, cstar: LeftModuleAlgebra,
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
    left reassociators of A, and the arrows on c*, d* are the action of
    H (x) H^op on C* = cstar, the transposed actions on the coalgebra C
    (dual_module_algebra). The sums are staged: everything
    coupling only Phi, f and the two Phi^{-1} copies is contracted once
    per h (stage one), then merged with the three reassociator sums and
    the two coactions per (h, a, a') (stage two) before the per-pair
    loop.

    Every sum runs over lifted integer tables (fields.py): the hits
    u -> e^s <- v on C and on H (the actions of H (x) H^op on C* and on
    H*, read by _hit_products), the convolution tables of C* and H*, the
    structure constants of H and A, the reassociators and the two
    coactions, and stage one, lifted for all h together. Every term of an
    entry takes one factor from each of them, so the whole table has one
    denominator, the product of theirs, and each entry is lowered
    once."""
    H = qs.H
    field = H.field
    A = ba.algebra
    hmult, dh = H.leg().lifted()
    amult, da = A.lifted()
    # products of two hits u -> e^s <- v on C (C*'s action) and on H
    # (H*'s), by the convolution tables of C* and H*
    cprod, dcp = _hit_products(cstar.action, cstar.algebra, H.basis)
    dprod, ddp = _hit_products(H.dual.hits, H.dual.conv, H.basis)

    # e_i e_idxs[0] e_idxs[1] ... in H and in A, as pairs
    hchain = cache(lambda i, *idxs: _chain(hmult, ((i, 1),), idxs))
    achain = cache(lambda i, *idxs: _chain(amult, ((i, 1),), idxs))

    # stage one, for every h at once: contract Phi, f and the two
    # Phi^{-1} copies with the graph of (Delta (x) id) Delta, leg 0 h
    phiXX = H.phi.map_leg(0, H.comul).map_leg(0, H.comul)
    phix = H.phi_inv.map_leg(1, H.comul)

    m, S = H.leg(), H.antipode
    src = phiXX.tensor(H.derived.f).tensor(H.phi_inv).tensor(phix).tensor(
        H.comul.graph().map_leg(1, H.comul))
    stage1, d1 = _lift_rows(field, LinearMap.from_graph(sweedler(src, (
        14, (m, (S, 4), 5), (m, (S, (m, 3, 13, 17)), 6), (m, 0, 7, 10),
        (m, 1, 8, 11, 15), (m, 2, 9, 12, 16)))).cols)

    # stage two, per (h, a, a2): merge in the reassociator sums and the
    # two coactions, pre-chaining every product that does not involve
    # the pair-dependent dual indices; grouped by all indices but the
    # one of A, as (key, ((index of A, numerator), ...)) pairs
    mid_inv, dw = field.lift(ba.phi_mid_inv.data)
    rho_inv, dr = field.lift(ba.right.phi_rho_inv.data)
    lam_inv, dli = field.lift(ba.left.phi_lam_inv.data)
    lam_cols, dla = _lift_rows(field, ba.left.coaction.cols)
    rho_cols, dra = _lift_rows(field, ba.right.coaction.cols)
    d2 = d1 * dw * dr * dli * dla * dra * dh ** 4 * da ** 4

    @cache
    def stage_two(h, a, a2):
        merged: Dict[tuple, Dict[int, int]] = {}
        for (L1, L2, L3, L4, L5), c0 in stage1.get(h, ()):
            for (w1, w2, w3), cw in mid_inv.items():
                for (am, a0), cla in lam_cols.get(a, ()):
                    for (l1, l2, l3), cl in lam_inv.items():
                        dleft = hchain(l2, am, w1)
                        if not dleft:
                            continue
                        for (a20, a21), cra in rho_cols.get(a2, ()):
                            for (r1, r2, r3), cr in rho_inv.items():
                                avec = achain(l3, a0, w2, a20, r1)
                                if not avec:
                                    continue
                                pleft = hchain(w3, a21, r2)
                                if not pleft:
                                    continue
                                base = c0 * cw * cla * cl * cra * cr
                                for dl, cdl in dleft:
                                    for pl, cpl in pleft:
                                        vec = merged.setdefault(
                                            (l1, L1, dl, L2, L3, pl, L4,
                                             r3, L5), {})
                                        c = base * cdl * cpl
                                        for av, cav in avec:
                                            vec[av] = vec.get(av, 0) + c * cav
        return tuple((key, avs) for key, avs in
                     ((key, _pairs(vec)) for key, vec in merged.items()) if avs)

    # the (a, p, h) of each basis vector (a # e^p) # e_h of sm, read
    # through the keys of sm and of A # H*, and the flat index in final
    # of c* >< ((a # e^p) # e_h), by (c*, p, h) and then by a
    nest = [qs.algebra.keys[u] + (h,) for u, h in sm.keys]
    place: Dict[Tuple[int, int, int], Dict[int, int]] = {}
    for k, (c, g) in enumerate(final.keys):
        a, p, h = nest[g]
        place.setdefault((c, p, h), {})[a] = k

    def evaluate(i: int, j: int) -> Dict[int, int]:
        s, g = final.keys[i]
        t, g2 = final.keys[j]
        a, p, h = nest[g]
        a2, q, h2 = nest[g2]
        out: Dict[int, int] = {}
        for (l1, L1, dl, L2, L3, pl, L4, r3, L5), avs in stage_two(h, a, a2):
            cd = cprod(l1, s, L1, dl, t, L2)
            if not cd:
                continue
            fv = dprod(L3, p, pl, L4, q, r3)
            if not fv:
                continue
            tvec = hmult.get((L5, h2))
            if not tvec:
                continue
            for cw, cc in cd:
                for fw, fc in fv:
                    c1 = cc * fc
                    for tw, tc in tvec:
                        c2 = c1 * tc
                        at = place[cw, fw, tw]
                        for av, base in avs:
                            k = at[av]
                            out[k] = out.get(k, 0) + base * c2
        return out

    den = d2 * dcp * ddp * dh
    n = final.dim
    table = {(i, j): evaluate(i, j) for i in range(n) for j in range(n)}
    return LegMul(final.basis, final.basis, final.basis,
                  _lowered(field, table, den), field)


# ----------------------------------------------------------------------
# verification of the full correspondence


def _same_doi(rep: VerificationReport, prefix: str, N1: DoiHopfModule,
              N2: DoiHopfModule) -> None:
    rep.check_same(prefix + "r-action", N1.r_action, N2.r_action)
    rep.check_same(prefix + "coaction", N1.coaction, N2.coaction)


def _same_crossed(rep: VerificationReport, prefix: str,
                  M1: CrossedHopfModule, M2: CrossedHopfModule) -> None:
    rep.check_same(prefix + "h-action", M1.ts.left_action, M2.ts.left_action)
    rep.check_same(prefix + "a-action", M1.ts.right_action,
                   M2.ts.right_action)
    rep.check_same(prefix + "h-coaction", M1.ts.coaction, M2.ts.coaction)
    rep.check_same(prefix + "c-coaction", M1.c_coaction, M2.c_coaction)


def verify_crossed_module_description(H: QuasiHopfAlgebra,
                                      seeds: Tuple[int, ...] = (0, 1, 2)
                                      ) -> VerificationReport:
    """Full verification of the crossed-module description for the
    canonical datum (A = C = H): the nested smash product is a left
    H (x) H^op comodule algebra, its direct multiplication formula and
    the closed formula for the final dualized product agree with the
    generic constructions, and the two functors between crossed Hopf
    modules and Doi-Hopf modules are mutually inverse on the regular
    module and on seeded cyclic submodules."""
    rep = VerificationReport("crossed module description over %s" % H.name,
                             {"dim": H.dim, "field": H.field.name,
                              "seeds": list(seeds)})
    ba = canonical_bicomodule(H)
    C = canonical_bimodule_coalgebra(H)
    rep.extend(check_bimodule_coalgebra(C), prefix="coalg/")
    HHop = H.tensor_with(H.opposite())
    mc = hhop_module_coalgebra(C, HHop)
    cstar = dual_module_algebra(mc)
    qs = quasi_smash(ba.right)
    sm = smash_product(qs)
    lcb = crossed_comodule_algebra(ba, HHop, qs, sm)
    rep.extend(check_left_comodule_algebra(lcb), prefix="crossed-coact/")

    rep.check_same("nested-direct", sm, nested_smash_direct(qs, sm, ba))

    final = generalized_smash(cstar, lcb)
    rep.check_same("final-direct", final,
                   crossed_smash_direct(ba, cstar, qs, sm, final))

    instances = [("regular/", final)]
    for seed in seeds:
        instances.append(("seed%d/" % seed, cyclic_right_submodule(final, seed)))

    for label, act in instances:
        N = doi_from_algebra_module(final, lcb, mc, act)
        if label == "regular/":
            rep.extend(check_doi_hopf_module(N), prefix="doi/")
        M = crossed_from_doi(N, ba, C, qs, sm)
        if label == "regular/":
            rep.extend(check_crossed_hopf_module(M), prefix="crossed/")
        N2 = doi_from_crossed(M, lcb, mc, qs, sm)
        _same_doi(rep, label + "FG/", N2, N)
        M2 = crossed_from_doi(N2, ba, C, qs, sm)
        _same_crossed(rep, label + "GF/", M2, M)
        rep.check_same(label + "dual-action",
                       algebra_action_from_doi(N, final), act)
    return rep
