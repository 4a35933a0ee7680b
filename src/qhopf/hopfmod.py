"""Two-sided Hopf modules over a right comodule algebra and their
correspondence with relative Hopf modules over the quasi-smash product.

A two-sided Hopf module carries a left H-action, a right action of the
comodule algebra and an H-coaction that is coassociative up to the two
reassociators. A relative Hopf module carries a left H-action and a
right action of the quasi-smash product A (x) H*. The two categories are
isomorphic; both directions of the isomorphism and the transport of
right modules over the smash product (A (x) H*) # H are implemented
here, together with exact round-trip verifiers and a seeded generator of
cyclic modules.

The functors keep the underlying space: each structure map they build,
but the forward right quasi-smash action, restricts a given action
table as a whole along fixed elements of the acting algebra (_restrict
in algebra.py), as in h . m = m (1 # S(h)). The actions and coactions
of the canonical modules, theta and theta^{-1}, and the elements the
functors restrict along are each one Sweedler sum (sweedler in
algebra.py) over graphs of structure maps, two terms written into one
leg of a flattened basis by flat_pairing. The axiom checks compare
two whole tables (check_same); coassoc states each side of the
coassociativity up to Phi and Phi_rho as one map (sandwich in
algebra.py).
"""

from __future__ import annotations

import random
from functools import cache
from typing import Dict, Tuple

from .algebra import (LegMul, _chain, _contract, _flat_keys, _grid,
                      _lift_map, _lift_rows, _mul, _pairs, _restrict,
                      actions_commute, counit_identity, equivariant_action,
                      flat_pairing, left_action_assoc, left_action_unit,
                      mul_legs, multiplicative, quasi_associative,
                      right_action_assoc, right_action_unit, sandwich,
                      sweedler)
from .coact import OverH, RightComoduleAlgebra, canonical_right_comodule
from .linalg import RowSpan
from .products import ProductAlgebra, QuasiSmash, quasi_smash, smash_product
from .quasihopf import QuasiHopfAlgebra
from .report import VerificationReport
from .tensor import Basis, LinearMap, Tensor, product_basis


# ----------------------------------------------------------------------
# the two module categories


class TwoSidedHopfModule(OverH):
    """A two-sided Hopf module over a right comodule algebra: a left
    H-module and right A-module whose H-coaction is left H-colinear,
    right A-colinear and coassociative up to Phi and Phi_rho."""

    def __init__(self, ca: RightComoduleAlgebra, basis: Basis,
                 left_action: LegMul, right_action: LegMul,
                 coaction: LinearMap, name: str = ""):
        H = ca.H
        if left_action.left != H.basis or left_action.right != basis or \
                left_action.out != basis:
            raise ValueError("left action must pair H with the carrier")
        if right_action.left != basis or right_action.right != ca.basis or \
                right_action.out != basis:
            raise ValueError("right action must pair the carrier with A")
        if coaction.domain != basis or coaction.codomain != (basis, H.basis):
            raise ValueError("coaction must map M to M (x) H")
        self.ca = ca
        self.H = H
        self.basis = basis
        self.left_action = left_action
        self.right_action = right_action
        self.coaction = coaction
        self.name = name or basis.name

    def lact(self, h: Tensor, m: Tensor) -> Tensor:
        return mul_legs((self.left_action,), h, m)

    def ract(self, m: Tensor, a: Tensor) -> Tensor:
        return mul_legs((self.right_action,), m, a)


class RelativeHopfModule(OverH):
    """A relative Hopf module over the quasi-smash product A (x) H*: a
    left H-module with a right action of A (x) H* that is associative up
    to Phi acting through the left H-action and the module-algebra
    action on A (x) H*."""

    def __init__(self, qs: QuasiSmash, basis: Basis, h_action: LegMul,
                 r_action: LegMul, name: str = ""):
        H = qs.H
        if h_action.left != H.basis or h_action.right != basis or \
                h_action.out != basis:
            raise ValueError("left action must pair H with the carrier")
        if r_action.left != basis or r_action.right != qs.basis or \
                r_action.out != basis:
            raise ValueError("right action must pair the carrier with A # H*")
        self.qs = qs
        self.H = H
        self.basis = basis
        self.h_action = h_action
        self.r_action = r_action
        self.name = name or basis.name

    def lact(self, h: Tensor, m: Tensor) -> Tensor:
        return mul_legs((self.h_action,), h, m)

    def ract(self, m: Tensor, u: Tensor) -> Tensor:
        return mul_legs((self.r_action,), m, u)


# ----------------------------------------------------------------------
# axiom checkers


def check_two_sided_hopf_module(M: TwoSidedHopfModule) -> VerificationReport:
    ca, H = M.ca, M.H
    rep = VerificationReport("two-sided Hopf module %s" % M.name,
                             {"dim": M.dim, "field": H.field.name})
    rep.check_same("lmod-assoc", *left_action_assoc(M.left_action, H.leg()))
    rep.check_same("lmod-unit", *left_action_unit(M.left_action, H.unit()))
    rep.check_same("rmod-assoc", *right_action_assoc(
        M.right_action, ca.algebra.as_leg()))
    rep.check_same("rmod-unit", *right_action_unit(M.right_action, ca.unit()))
    rep.check_same("bimodule", *actions_commute(M.left_action,
                                                M.right_action))
    rep.check_same("counit", *counit_identity(M.coaction, H.counit, 1))

    rho = M.coaction
    rep.check_same("coassoc", sandwich(
        rho.compose(rho), H.phi, (M.left_action, H.leg(), H.leg())),
        sandwich(H.comul.compose(rho, 1), y=ca.phi_rho,
                 ylegs=(M.right_action, H.leg(), H.leg())))
    rep.check_same("left-colinear", *multiplicative(
        M.coaction, M.left_action, (M.left_action, H.leg()), left=H.comul))
    rep.check_same("right-colinear", *multiplicative(
        M.coaction, M.right_action, (M.right_action, H.leg()),
        right=ca.coaction))
    return rep


def check_relative_hopf_module(N: RelativeHopfModule) -> VerificationReport:
    qs, H = N.qs, N.H
    rep = VerificationReport("relative Hopf module %s" % N.name,
                             {"dim": N.dim, "field": H.field.name})
    rep.check_same("lmod-assoc", *left_action_assoc(N.h_action, H.leg()))
    rep.check_same("lmod-unit", *left_action_unit(N.h_action, H.unit()))
    rep.check_same("rmod-unit", *right_action_unit(N.r_action, qs.unit()))
    rep.check_same("quasi-assoc", *quasi_associative(
        N.r_action, qs.algebra.as_leg(), N.h_action, qs.action, H.phi))
    rep.check_same("compat", *equivariant_action(
        N.h_action, N.r_action, qs.action, H.comul))
    return rep


# ----------------------------------------------------------------------
# canonical two-sided Hopf modules A (x) H and H (x) A


def canonical_first_module(ca: RightComoduleAlgebra) -> TwoSidedHopfModule:
    """The two-sided Hopf module on A (x) H:
    h (a (x) h') = a (x) h h';  (a (x) h) a' = sum a a'_(0) (x) h a'_(1);
    rho(a (x) h) = sum a X1 (x) h_1 X2 (x) h_2 X3 with X = Phi_rho."""
    H, A = ca.H, ca.algebra
    field = H.field
    flat = product_basis(A.basis, H.basis)
    pair, hleg = flat_pairing(A.basis, H.basis, flat, field), H.leg()
    left_action = LegMul.from_graph(sweedler(
        _grid(field, H.basis, H.basis, A.basis),
        (0, (pair, 2, 1), (pair, 2, (hleg, 0, 1)))))
    right_action = LegMul.from_graph(sweedler(
        _grid(field, A.basis, H.basis).tensor(ca.coaction.graph()),
        ((pair, 0, 1), 2, (pair, (A.as_leg(), 0, 3), (hleg, 1, 4)))))

    # one sum over every a, the graph of Delta and Phi_rho: legs 0 and
    # 1 pair into the input (a, k)
    src = _grid(field, A.basis).tensor(H.comul.graph()).tensor(ca.phi_rho)
    coaction = LinearMap.from_graph(sweedler(src, (
        (pair, 0, 1), (pair, (A.as_leg(), 0, 4), (hleg, 2, 5)),
        (hleg, 3, 6))))
    return TwoSidedHopfModule(ca, flat, left_action, right_action,
                              coaction, name=ca.name + "(x)H")


def canonical_second_module(ca: RightComoduleAlgebra) -> TwoSidedHopfModule:
    """The two-sided Hopf module on H (x) A:
    h (h' (x) a) = h h' (x) a;  (h (x) a) a' = h (x) a a';
    rho(h (x) a) = sum h_1 W1 (x) W2 a_(0) (x) h_2 W3 a_(1) with
    W = sum S^{-1}(qL2 X3_2 g2) (x) X1 (x) S^{-1}(qL1 X3_1 g1) X2."""
    H, A = ca.H, ca.algebra
    if not isinstance(H, QuasiHopfAlgebra):
        raise ValueError("this module needs antipode data")
    der = H.derived
    field = H.field
    flat = product_basis(H.basis, A.basis)
    pair = flat_pairing(H.basis, A.basis, flat, field)
    hleg, mA = H.leg(), A.as_leg()
    left_action = LegMul.from_graph(sweedler(
        _grid(field, H.basis, H.basis, A.basis),
        (0, (pair, 1, 2), (pair, (hleg, 0, 1), 2))))
    right_action = LegMul.from_graph(sweedler(
        _grid(field, A.basis, A.basis, H.basis),
        ((pair, 2, 0), 1, (pair, 2, (mA, 0, 1)))))

    Si = H.antipode_inv
    W = sweedler(der.q_L.tensor(ca.phi_rho.map_leg(2, H.comul)).tensor(
        der.f_inv), ((Si, (hleg, 1, 5, 7)), 2,
                     (hleg, (Si, (hleg, 0, 4, 6)), 3)))

    # one sum over the graphs of Delta and of rho, and W: legs 0 and 3
    # pair into the input (k, a)
    src = H.comul.graph().tensor(ca.coaction.graph()).tensor(W)
    coaction = LinearMap.from_graph(sweedler(src, (
        (pair, 0, 3), (pair, (hleg, 1, 6), (mA, 7, 4)), (hleg, 2, 8, 5))))
    return TwoSidedHopfModule(ca, flat, left_action, right_action,
                              coaction, name="H(x)" + ca.name)


def module_isomorphism(ca: RightComoduleAlgebra
                       ) -> Tuple[LinearMap, LinearMap]:
    """The mutually inverse maps between the canonical modules:
    theta(a (x) h) = sum h S^{-1}(a_(1) p~2) (x) a_(0) p~1 and
    theta^{-1}(h (x) a) = sum q~1 a_(0) (x) h q~2 a_(1)."""
    H, A = ca.H, ca.algebra
    field = H.field
    pt, qt = ca.p_tilde(), ca.q_tilde()
    m, mA, Si = H.leg(), A.as_leg(), H.antipode_inv
    V = flat_pairing(A.basis, H.basis, product_basis(A.basis, H.basis),
                     field)
    U = flat_pairing(H.basis, A.basis, product_basis(H.basis, A.basis),
                     field)
    # each one sum over the graphs of rho and of the identity of H, the
    # leg a of one and the leg h of the other paired into the input
    rho, ident = ca.coaction.graph(), LinearMap.identity(H.basis,
                                                         field).graph()
    theta = LinearMap.from_graph(sweedler(rho.tensor(ident).tensor(pt), (
        (V, 0, 3), (U, (m, 4, (Si, (m, 2, 6))), (mA, 1, 5)))))
    theta_inv = LinearMap.from_graph(sweedler(
        ident.tensor(rho).tensor(qt), (
            (U, 0, 2), (V, (mA, 5, 3), (m, 1, 6, 4)))))
    return theta, theta_inv


def transport_module(M: TwoSidedHopfModule, iso: LinearMap,
                     iso_inv: LinearMap, name: str = "") -> TwoSidedHopfModule:
    """Push the structure of M forward along a linear bijection. Each
    action is one sum over the graphs of iso^{-1} and of an identity:
    h . m = iso(h . iso^{-1}(m)) and m . a = iso(iso^{-1}(m) . a)."""
    ca, H = M.ca, M.H
    basis = iso.codomain[0]
    back = iso_inv.graph()
    left = LegMul.from_graph(sweedler(
        LinearMap.identity(H.basis, M.field).graph().tensor(back),
        (0, 2, (iso, (M.left_action, 1, 3)))))
    right = LegMul.from_graph(sweedler(
        back.tensor(LinearMap.identity(ca.basis, M.field).graph()),
        (0, 2, (iso, (M.right_action, 1, 3)))))
    coaction = iso.compose(M.coaction.compose(iso_inv))
    return TwoSidedHopfModule(ca, basis, left, right, coaction,
                              name=name or M.name + "~")


def verify_canonical_modules(ca: RightComoduleAlgebra) -> VerificationReport:
    """Both canonical modules satisfy the two-sided Hopf module axioms
    and the structure map between them is an isomorphism of modules."""
    H = ca.H
    rep = VerificationReport("canonical Hopf modules over %s" % ca.name,
                             {"dim": ca.dim * H.dim, "field": H.field.name})
    V = canonical_first_module(ca)
    U = canonical_second_module(ca)
    rep.extend(check_two_sided_hopf_module(V), prefix="first/")
    rep.extend(check_two_sided_hopf_module(U), prefix="second/")
    theta, theta_inv = module_isomorphism(ca)
    idV = LinearMap.identity(V.basis, H.field)
    idU = LinearMap.identity(U.basis, H.field)
    rep.check_bool("iso-left", theta_inv.compose(theta) == idV)
    rep.check_bool("iso-right", theta.compose(theta_inv) == idU)
    rep.check_same("iso-h-linear", *multiplicative(
        theta, V.left_action, (U.left_action,),
        left=LinearMap.identity(H.basis, H.field)))
    rep.check_same("iso-a-linear", *multiplicative(
        theta, V.right_action, (U.right_action,),
        right=LinearMap.identity(ca.basis, H.field)))
    rep.check_same("iso-colinear", theta.compose(V.coaction),
                   U.coaction.compose(theta))
    return rep


# ----------------------------------------------------------------------
# the two functors of the category isomorphism


def _forward_action(M: TwoSidedHopfModule, F: Tensor, leads,
                    right: Basis) -> LegMul:
    """The table of the right action shared by both forward functors:

        m (a # e^p) [h] = sum e^p(S^{-1}(F2 m_(1) a_(1) p~2))
                              (lead m_(0))(a_(0) p~1),   lead = leads[h][F1],

    stored at m and the flat index of (a, p, h) (_flat_keys), which is
    that of (a # e^p) # e_h in (A # H*) # H, and of a # e^p in A # H*
    when there is one lead. The sum is staged over lifted tables
    (fields.py): S^{-1}(F2 m_(1) a_(1) p~2) is formed once per (F2,
    m_(1), a_(1), p~2) from the structure constants of H and S^{-1}, and
    e^p reads its p-th coordinate; (lead m_(0))(a_(0) p~1) is formed once
    per (h, F1, m_(0), a_(0), p~1) from the leads, lifted together, and
    the action tables of M and A; and one pass over the terms fills the
    entries of every p for a given (m, a, h). Every term shares one
    denominator, and each entry is lowered once."""
    ca, H = M.ca, M.H
    field = M.field
    A = ca.algebra
    hm, dh = H.leg().lifted()
    sinv, dsi = _lift_map(H.antipode_inv)
    am, da = A.as_leg().lifted()
    (lact, dl), (ract, dr) = M.left_action.lifted(), M.right_action.lifted()
    lead_rows, dlead = _lift_rows(field, {
        (h, f1): {x: c for (x,), c in t.data.items()}
        for h, lead in enumerate(leads) for f1, t in lead.items()})
    F_terms, dF = field.lift(F.data)
    pt_terms, dp = field.lift(ca.p_tilde().data)
    m_cols, dm = _lift_rows(field, M.coaction.cols)
    a_cols, dac = _lift_rows(field, ca.coaction.cols)

    @cache
    def scalar(f2, m1, a1, p2):
        return _pairs(_contract(_chain(hm, ((f2, 1),), (m1, a1, p2)), sinv))

    @cache
    def vector(h, f1, m0, a0, p1):
        moved = _pairs(_mul(lact, lead_rows.get((h, f1), ()), ((m0, 1),)))
        return _pairs(_mul(ract, moved, am.get((a0, p1), ())))

    den = dF * dm * dac * dp * dh ** 3 * dsi * dlead * dl * da * dr
    flat = {key: k for k, key in enumerate(_flat_keys(A.dim, H.dim,
                                                      len(leads)))}
    table = {}
    for m in range(M.dim):
        m_terms = m_cols.get(m, ())
        for a in range(A.dim):
            a_terms = a_cols.get(a, ())
            for h in range(len(leads)):
                rows: Dict[int, Dict[int, int]] = {}
                for (f1, f2), cf in F_terms.items():
                    for (m0, m1), cm in m_terms:
                        cfm = cf * cm
                        for (a0, a1), c_a in a_terms:
                            cfma = cfm * c_a
                            for (p1, p2), cp in pt_terms.items():
                                s = scalar(f2, m1, a1, p2)
                                if not s:
                                    continue
                                v = vector(h, f1, m0, a0, p1)
                                if not v:
                                    continue
                                c = cfma * cp
                                for p, sp in s:
                                    row = rows.setdefault(p, {})
                                    csp = c * sp
                                    for o, vo in v:
                                        row[o] = row.get(o, 0) + csp * vo
                for p, row in rows.items():
                    vec = field.lower(row, den)
                    if vec:
                        table[(m, flat[a, p, h])] = vec
    return LegMul(M.basis, right, M.basis, table, field)


def relative_from_two_sided(M: TwoSidedHopfModule,
                            qs: QuasiSmash) -> RelativeHopfModule:
    """Forward direction: the H-action becomes h . m = S^2(h) m, the left
    action restricted along S^2, and the right quasi-smash action is

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
    m, S = H.leg(), H.antipode
    K = sweedler(der.U.tensor(der.f), ((m, (S, 1), 2), (m, (S, 0), 3)))

    h_action = LegMul(H.basis, M.basis, M.basis, _restrict(
        M.left_action, [H.S(H.S(H.e(i))) for i in range(H.dim)], left=True),
        field)
    r_action = _forward_action(
        M, K, [{k1: H.e(k1) for k1 in range(H.dim)}], qs.basis)
    return RelativeHopfModule(qs, M.basis, h_action, r_action, name=M.name)


def two_sided_from_relative(N: RelativeHopfModule,
                            ca: RightComoduleAlgebra) -> TwoSidedHopfModule:
    """Backward direction: h m = S^{-2}(h) . m, m a = m . (a # eps), and

        rho(m) = sum_i [S^{-1}(V2 g2) . m] . (q~1 # S^{-1}(V1 g1) ->
                 (e^i o S) <- q~2) (x) e_i.

    All three restrict the actions of N (_restrict): the left one along
    S^{-2} and S^{-1}(e_t), the right one along a # eps and along

        E_t = sum_i (q~1 # S^{-1}(V1 g1) -> (e^i o S) <- q~2) (x) e_i,

    the terms with V2 g2 = e_t, so that rho(m) = sum_t [S^{-1}(e_t) . m]
    . E_t."""
    qs, H = N.qs, N.H
    der, dual = H.derived, H.dual
    field = N.field
    nH = H.dim
    qt = ca.q_tilde()
    eps = dual.eps_functional()
    sinv = [H.Sinv(H.e(t)) for t in range(nH)]

    left = LegMul(H.basis, N.basis, N.basis, _restrict(
        N.h_action, [H.Sinv(x) for x in sinv], left=True), field)
    right = LegMul(N.basis, ca.basis, N.basis, _restrict(
        N.r_action, [qs.element(ca.e(a), eps) for a in range(ca.dim)]),
        field)

    # E_t is the slice at t = V2 g2 of one sum over the graph of S read
    # in H* (sum_i (e^i o S) (x) e_i), V g = sum V1 g1 (x) V2 g2 and q~
    es = Tensor((dual.basis, H.basis), H.antipode.graph().data, field)
    E = LinearMap.from_graph(sweedler(
        es.tensor(H.tmul(der.V, der.f_inv)).tensor(qt), (
            3, (flat_pairing(ca.basis, dual.basis, qs.basis, field), 4,
                (dual.hit_r_leg, (dual.hit_l_leg, (H.antipode_inv, 2), 0),
                 5)), 1)))
    # rho(m) = sum_t [S^{-1}(e_t) . m] . E_t, over the lifted tables
    (moved, dm), (acted, de) = (_lift_rows(field, t) for t in (
        _restrict(N.h_action, sinv, left=True),
        _restrict(N.r_action, [E.column(t) for t in range(nH)])))
    coaction = LinearMap(N.basis, (N.basis, H.basis), {
        m: field.lower(_contract([((k, t), c) for t in range(nH)
                                  for k, c in moved.get((t, m), ())],
                                 acted), dm * de)
        for m in range(N.dim)}, field)
    return TwoSidedHopfModule(ca, N.basis, left, right, coaction,
                              name=N.name)


# ----------------------------------------------------------------------
# transport of right modules over (A # H*) # H


def relative_from_smash_module(qs: QuasiSmash, sm: ProductAlgebra,
                               action: LegMul) -> RelativeHopfModule:
    """A right module over the smash product (A # H*) # H becomes a
    relative Hopf module through

        h . m = m (1 # S(h)),    m . u = sum m (U1 . u # U2)

    where action is the table of the right action, pairing the module
    basis action.left with the smash basis. Both are that action
    restricted along the named elements (_restrict)."""
    H = qs.H
    field = H.field
    basis = action.left
    by_h = _restrict(action, [sm.flatten(qs.unit().tensor(H.S(H.e(i))))
                              for i in range(H.dim)])
    h_action = LegMul(H.basis, basis, basis,
                      {(i, m): vec for (m, i), vec in by_h.items()}, field)
    # u -> sum U1 . u # U2, one sum over the graph of the identity of
    # A # H* and U
    u_map = LinearMap.from_graph(sweedler(
        LinearMap.identity(qs.basis, field).graph().tensor(H.derived.U),
        (0, (flat_pairing(qs.basis, H.basis, sm.basis, field),
             (qs.action, 2, 1), 3))))
    r_action = LegMul(basis, qs.basis, basis, _restrict(
        action, [u_map.column(u) for u in range(qs.dim)]), field)
    return RelativeHopfModule(qs, basis, h_action, r_action, name=basis.name)


def two_sided_from_smash_module(qs: QuasiSmash, sm: ProductAlgebra,
                                action: LegMul, ca: RightComoduleAlgebra
                                ) -> TwoSidedHopfModule:
    """Direct transport of a right (A # H*) # H module, given by the
    table of its action, to a two-sided Hopf module:

        h m = m ((1 # eps) # S^{-1}(h)),   m a = m ((a # eps) # 1),
        rho(m) = sum_i m ((q~1 # S^{-1}(g2) -> (e^i o S) <- q~2)
                          # S^{-1}(g1)) (x) e_i.

    Each is that action restricted along the named elements
    (_restrict); the coaction along the one element X = sum_i
    ((q~1 # S^{-1}(g2) -> (e^i o S) <- q~2) # S^{-1}(g1)) (x) e_i, whose
    leg e_i is carried."""
    H = qs.H
    der, dual = H.derived, H.dual
    field = H.field
    basis = action.left
    qt = ca.q_tilde()
    eps = dual.eps_functional()

    by_h = _restrict(action, [sm.flatten(qs.element(ca.unit(), eps).tensor(
        H.Sinv(H.e(i)))) for i in range(H.dim)])
    left = LegMul(H.basis, basis, basis,
                  {(i, m): vec for (m, i), vec in by_h.items()}, field)
    right = LegMul(basis, ca.basis, basis, _restrict(action, [
        sm.flatten(qs.element(ca.e(a), eps).tensor(H.unit()))
        for a in range(ca.dim)]), field)

    # sum_i (e^i o S) (x) e_i is the graph of S with its input read in
    # H*; X is one sum over it, f^{-1} and q~
    es = Tensor((dual.basis, H.basis), H.antipode.graph().data, field)
    Si = H.antipode_inv
    X = sweedler(es.tensor(der.f_inv).tensor(qt), (
        (flat_pairing(qs.basis, H.basis, sm.basis, field),
         (flat_pairing(ca.basis, dual.basis, qs.basis, field), 4,
          (dual.hit_r_leg, (dual.hit_l_leg, (Si, 3), 0), 5)), (Si, 2)), 1))
    coaction = LinearMap(basis, (basis, H.basis), {
        m: vec for (m, _), vec in _restrict(action, [X]).items()}, field)
    return TwoSidedHopfModule(ca, basis, left, right, coaction,
                              name=basis.name)


def smash_action_from_two_sided(M: TwoSidedHopfModule, qs: QuasiSmash,
                                sm: ProductAlgebra) -> LegMul:
    """Reconstruct the table of the right (A # H*) # H action from a
    two-sided Hopf module:

        m ((a # phi) # h) = sum phi(S^{-1}(f2 m_(1) a_(1) p~2))
                                S(h) f1 (m_(0) a_(0) p~1),

    built by _forward_action with F = f and lead = S(h) f1 (S(h) formed
    before f1 multiplies it): S^{-1}(f2 m_(1) a_(1) p~2) is formed once
    per (f2, m_(1), a_(1), p~2) and (S(h) f1 m_(0))(a_(0) p~1) once per
    (h, f1, m_(0), a_(0), p~1). The table is keyed by the flat index of
    (a, p, h), so sm must be the smash product of qs with H."""
    H = M.H
    if sm.factors != (qs.basis, H.basis):
        raise ValueError("sm is not the smash product of qs with H")
    leads = [{f1: H.mul(H.S(H.e(h)), H.e(f1)) for f1 in range(H.dim)}
             for h in range(H.dim)]
    return _forward_action(M, H.derived.f, leads, sm.basis)


# ----------------------------------------------------------------------
# seeded cyclic modules and round-trip verification


def cyclic_right_submodule(prod: ProductAlgebra, seed: int) -> LegMul:
    """The cyclic right submodule of the regular module of prod generated
    by a seeded random vector with small integer entries: the table of
    the right action in the coordinates of a basis of the closure, which
    is its left basis."""
    field = prod.field
    rng = random.Random(seed)
    dim = prod.dim
    vec: Dict[int, object] = {}
    while not vec:
        vec = {}
        for i in range(dim):
            c = rng.randint(-2, 2)
            if c:
                vec[i] = field.from_int(c)
    span = RowSpan(field)
    span.add(vec)

    def right_mul(w: Dict[int, object], g: int) -> Dict[int, object]:
        acc: Dict[int, object] = {}
        for i, c in w.items():
            for t, ct in prod.alg.mult.get((i, g), {}).items():
                s = acc.get(t)
                s = c * ct if s is None else s + c * ct
                if s:
                    acc[t] = s
                elif t in acc:
                    del acc[t]
        return acc

    # a pass that adds no row has read the table of the closure
    changed = True
    while changed:
        changed = False
        table = {}
        for m, row in enumerate([dict(r) for r in span.rows]):
            for g in range(dim):
                prod_vec = right_mul(row, g)
                coords = span.coordinates(prod_vec)
                if coords is None:
                    span.add(prod_vec)
                    changed = True
                elif coords:
                    table[(m, g)] = coords

    basis = Basis(tuple("m%d" % i for i in range(span.rank)),
                  "cyclic(seed=%d)" % seed)
    return LegMul(basis, prod.basis, basis, table, field)


def seeded_cyclic_module(qs: QuasiSmash, sm: ProductAlgebra,
                         seed: int) -> RelativeHopfModule:
    """The cyclic right submodule of the regular (A # H*) # H module
    generated by a seeded random vector with small integer entries,
    transported to a relative Hopf module."""
    return relative_from_smash_module(qs, sm, cyclic_right_submodule(sm, seed))


def _same_two_sided(rep: VerificationReport, prefix: str,
                    M1: TwoSidedHopfModule, M2: TwoSidedHopfModule) -> None:
    rep.check_same(prefix + "h-action", M1.left_action, M2.left_action)
    rep.check_same(prefix + "a-action", M1.right_action, M2.right_action)
    rep.check_same(prefix + "coaction", M1.coaction, M2.coaction)


def _same_relative(rep: VerificationReport, prefix: str,
                   N1: RelativeHopfModule, N2: RelativeHopfModule) -> None:
    rep.check_same(prefix + "h-action", N1.h_action, N2.h_action)
    rep.check_same(prefix + "r-action", N1.r_action, N2.r_action)


def verify_module_correspondence(H: QuasiHopfAlgebra,
                                 seeds: Tuple[int, ...] = (0, 1, 2, 3, 4)
                                 ) -> VerificationReport:
    """Exact round trips of the category isomorphism between two-sided
    Hopf modules and relative Hopf modules, for the canonical comodule
    algebra structure on A = H: both canonical modules and the
    transported one round-trip through the forward-then-backward
    composite, and the regular module of (A # H*) # H plus seeded cyclic
    submodules round-trip through the backward-then-forward composite."""
    rep = VerificationReport("Hopf module correspondence over %s" % H.name,
                             {"dim": H.dim, "field": H.field.name,
                              "seeds": list(seeds)})
    ca = canonical_right_comodule(H)
    qs = quasi_smash(ca)
    sm = smash_product(qs)

    V = canonical_first_module(ca)
    U = canonical_second_module(ca)
    theta, theta_inv = module_isomorphism(ca)
    T = transport_module(V, theta, theta_inv, name="theta-transport")
    for label, M in (("first/", V), ("second/", U), ("transport/", T)):
        back = two_sided_from_relative(relative_from_two_sided(M, qs), ca)
        _same_two_sided(rep, label, back, M)

    regular = relative_from_smash_module(qs, sm, sm.alg.as_leg())
    rep.extend(check_relative_hopf_module(regular), prefix="regular/")
    modules = [("regular/", regular)]
    for seed in seeds:
        modules.append(("seed%d/" % seed, seeded_cyclic_module(qs, sm, seed)))
    two_sided = {}
    for label, N in modules:
        two_sided[label] = two_sided_from_relative(N, ca)
        back = relative_from_two_sided(two_sided[label], qs)
        _same_relative(rep, label, back, N)

    # the direct transport of the regular module agrees with the
    # backward functor applied to its relative form, and the right
    # smash action is reconstructed from the two-sided structure
    direct = two_sided_from_smash_module(qs, sm, sm.alg.as_leg(), ca)
    _same_two_sided(rep, "smash-transport/", direct, two_sided["regular/"])
    rep.check_same("smash-reconstruction",
                   smash_action_from_two_sided(direct, qs, sm),
                   sm.alg.as_leg())
    return rep
