"""Comodule algebras over a quasi-bialgebra, module algebras, module
coalgebras, and the canonical elements of a right comodule algebra.

A right comodule algebra is an associative algebra A with an algebra map
rho: A -> A (x) H that is coassociative up to an invertible reassociator
Phi_rho in A (x) H (x) H; a left comodule algebra mirrors this with
lambda: B -> H (x) B and Phi_lam in H (x) H (x) B. A bicomodule algebra
carries both plus a middle reassociator Phi_mid in H (x) A (x) H. Mixed
tensors (some legs in A, some in H) are multiplied leg by leg, and each
Sweedler sum of the tilde identities is one algebra.sweedler.
"""

from __future__ import annotations

from typing import Optional

from .algebra import (FinAlgebra, LegMul, _per_input, counit_identity,
                      equivariant_action, left_action_assoc, left_action_unit,
                      mul_legs, multiplicative, quasi_associative,
                      right_action_assoc, right_action_unit, sandwich,
                      sweedler)
from .quasihopf import (QuasiBialgebra, QuasiHopfAlgebra, checked_inverse,
                        p_right, q_right)
from .report import VerificationReport
from .tensor import Basis, LinearMap, Tensor


class OverH:
    """A based space with structure over the quasi-bialgebra self.H: its
    scalars are H's, and e(i) is its i-th basis vector."""

    @property
    def field(self):
        return self.H.field

    @property
    def dim(self) -> int:
        return self.basis.dim

    def e(self, i: int) -> Tensor:
        return Tensor.basis_vector(self.basis, i, self.field)


class AlgebraOverH(OverH):
    """An OverH whose space is the carrier of the algebra self.algebra."""

    @property
    def basis(self) -> Basis:
        return self.algebra.basis

    def unit(self) -> Tensor:
        return self.algebra.unit


class _ComoduleAlgebraBase(AlgebraOverH):
    """Shared leg plumbing for comodule algebras: the carrier algebra and
    the ambient quasi-bialgebra, with leg-wise multiplication of mixed
    tensors whose legs are resolved by basis."""

    def __init__(self, H: QuasiBialgebra, algebra: FinAlgebra, name: str):
        if algebra.field != H.field:
            raise ValueError("field mismatch between carrier and ambient algebra")
        self.H = H
        self.algebra = algebra
        self.name = name or algebra.basis.name

    def leg_for(self, space: Basis) -> LegMul:
        if space == self.basis:
            return self.algebra
        if space == self.H.basis:
            return self.H.leg()
        raise ValueError("leg basis %r is neither the carrier nor H" % space)

    def mmul(self, *xs: Tensor) -> Tensor:
        """Leg-wise product of mixed tensors over the carrier and H."""
        acc = xs[0]
        for x in xs[1:]:
            legs = tuple(self.leg_for(b) for b in acc.spaces)
            acc = mul_legs(legs, acc, x)
        return acc

    def coact(self, x: Tensor, leg: int = 0) -> Tensor:
        return x.map_leg(leg, self.coaction)


class RightComoduleAlgebra(_ComoduleAlgebraBase):
    """A right H-comodule algebra (A, rho, Phi_rho)."""

    def __init__(self, H: QuasiBialgebra, algebra: FinAlgebra,
                 coaction: LinearMap, phi_rho: Tensor,
                 phi_rho_inv: Optional[Tensor] = None, name: str = ""):
        super().__init__(H, algebra, name)
        if coaction.domain != algebra.basis or coaction.codomain != (algebra.basis, H.basis):
            raise ValueError("right coaction must map A to A (x) H")
        if phi_rho.spaces != (algebra.basis, H.basis, H.basis):
            raise ValueError("right reassociator must live in A (x) H (x) H")
        self.coaction = coaction
        self.phi_rho = phi_rho
        self.phi_rho_inv = checked_inverse(
            (algebra, H.algebra, H.algebra), phi_rho, phi_rho_inv,
            "right reassociator")

    def p_tilde(self) -> Tensor:
        """sum x1 (x) x2 beta S(x3) in A (x) H, from Phi_rho^{-1}: p_R's
        formula (p_right)."""
        return p_right(self.H, self.phi_rho_inv)

    def q_tilde(self) -> Tensor:
        """sum X1 (x) S^{-1}(alpha X3) X2 in A (x) H, from Phi_rho: q_R's
        formula (q_right)."""
        return q_right(self.H, self.phi_rho)


class LeftComoduleAlgebra(_ComoduleAlgebraBase):
    """A left H-comodule algebra (B, lam, Phi_lam)."""

    def __init__(self, H: QuasiBialgebra, algebra: FinAlgebra,
                 coaction: LinearMap, phi_lam: Tensor,
                 phi_lam_inv: Optional[Tensor] = None, name: str = ""):
        super().__init__(H, algebra, name)
        if coaction.domain != algebra.basis or coaction.codomain != (H.basis, algebra.basis):
            raise ValueError("left coaction must map B to H (x) B")
        if phi_lam.spaces != (H.basis, H.basis, algebra.basis):
            raise ValueError("left reassociator must live in H (x) H (x) B")
        self.coaction = coaction
        self.phi_lam = phi_lam
        self.phi_lam_inv = checked_inverse(
            (H.algebra, H.algebra, algebra), phi_lam, phi_lam_inv,
            "left reassociator")


class BicomoduleAlgebra(AlgebraOverH):
    """An H-bicomodule algebra: compatible left and right comodule
    algebra structures on the same carrier plus a middle reassociator
    Phi_mid in H (x) A (x) H."""

    def __init__(self, left: LeftComoduleAlgebra, right: RightComoduleAlgebra,
                 phi_mid: Tensor, phi_mid_inv: Optional[Tensor] = None,
                 name: str = ""):
        if left.algebra != right.algebra or left.H is not right.H:
            raise ValueError("left and right structures must share carrier and H")
        self.left = left
        self.right = right
        self.H = left.H
        self.algebra = left.algebra
        self.name = name or left.name
        if phi_mid.spaces != (self.H.basis, self.algebra.basis, self.H.basis):
            raise ValueError("middle reassociator must live in H (x) A (x) H")
        self.phi_mid = phi_mid
        self.phi_mid_inv = checked_inverse(
            (self.H.algebra, self.algebra, self.H.algebra), phi_mid,
            phi_mid_inv, "middle reassociator")

    def mmul(self, *xs: Tensor) -> Tensor:
        return self.left.mmul(*xs)


def canonical_right_comodule(H: QuasiBialgebra) -> RightComoduleAlgebra:
    """H over itself: rho = Delta, Phi_rho = Phi."""
    return RightComoduleAlgebra(H, H.algebra, H.comul, H.phi, H.phi_inv,
                                name=H.name)


def canonical_left_comodule(H: QuasiBialgebra) -> LeftComoduleAlgebra:
    """H over itself: lam = Delta, Phi_lam = Phi."""
    return LeftComoduleAlgebra(H, H.algebra, H.comul, H.phi, H.phi_inv,
                               name=H.name)


def canonical_bicomodule(H: QuasiBialgebra) -> BicomoduleAlgebra:
    return BicomoduleAlgebra(canonical_left_comodule(H),
                             canonical_right_comodule(H),
                             H.phi, H.phi_inv, name=H.name)


# ----------------------------------------------------------------------
# module algebras and module coalgebras


class LeftModuleAlgebra(AlgebraOverH):
    """A left H-module algebra: an algebra in the module category, with
    multiplication associative up to Phi acting through the module
    structure."""

    def __init__(self, H: QuasiBialgebra, algebra: FinAlgebra,
                 action: LegMul, name: str = ""):
        if action.left != H.basis or action.right != algebra.basis or \
                action.out != algebra.basis:
            raise ValueError("action must pair H with the carrier")
        self.H = H
        self.algebra = algebra
        self.action = action
        self.name = name or algebra.basis.name

    def act(self, h: Tensor, a: Tensor) -> Tensor:
        return mul_legs((self.action,), h, a)

    def mul(self, *xs: Tensor) -> Tensor:
        return self.algebra.mulc(*xs)


class RightModuleCoalgebra(OverH):
    """A right H-module coalgebra: a coalgebra in the module category,
    coassociative up to Phi^{-1} acting through the module structure."""

    def __init__(self, H: QuasiBialgebra, basis: Basis, comul: LinearMap,
                 counit: LinearMap, action: LegMul, name: str = ""):
        if comul.domain != basis or comul.codomain != (basis, basis):
            raise ValueError("comultiplication must map C to C (x) C")
        if counit.domain != basis or counit.codomain != ():
            raise ValueError("counit must map C to the ground field")
        if action.left != basis or action.right != H.basis or action.out != basis:
            raise ValueError("action must pair the carrier with H")
        self.H = H
        self.basis = basis
        self.comul = comul
        self.counit = counit
        self.action = action
        self.name = name or basis.name

    def act(self, c: Tensor, h: Tensor) -> Tensor:
        return mul_legs((self.action,), c, h)

    def eps(self, c: Tensor):
        return c.map_leg(0, self.counit).coeff(())


def canonical_module_coalgebra(H: QuasiBialgebra) -> RightModuleCoalgebra:
    """H as a right module coalgebra over itself by right multiplication.

    The one-sided coassociativity axiom holds exactly when the
    reassociator commutes with the iterated comultiplication images, in
    particular whenever the reassociator is trivial. For a genuinely
    quasi H the canonical coalgebra lives over H (x) H^op instead, with
    both-sided multiplication as the action."""
    return RightModuleCoalgebra(H, H.basis, H.comul, H.counit,
                                H.leg(), name=H.name)


# ----------------------------------------------------------------------
# checkers


def check_right_comodule_algebra(ca: RightComoduleAlgebra) -> VerificationReport:
    H = ca.H
    rep = VerificationReport("right comodule algebra %s" % ca.name,
                             {"dim": ca.dim, "field": H.field.name})
    rep.check_bool("assoc", ca.algebra.is_associative() is None)
    rep.check_bool("unit", ca.algebra.unit_laws_hold() is None)
    rep.check_same("coact-hom", *multiplicative(
        ca.coaction, ca.algebra, (ca.algebra, H.leg())))
    rep.check_same("coact-unit", ca.coact(ca.unit()),
                   ca.unit().tensor(H.unit()))
    rho, legs = ca.coaction, tuple(map(ca.leg_for, ca.phi_rho.spaces))
    rep.check_same("rca1", sandwich(rho.compose(rho), ca.phi_rho, legs),
                   sandwich(H.comul.compose(rho, 1), y=ca.phi_rho, ylegs=legs))
    one = H.unit()
    lhs = ca.mmul(ca.unit().tensor(H.phi),
                  ca.phi_rho.map_leg(1, H.comul),
                  ca.phi_rho.tensor(one))
    rhs = ca.mmul(ca.phi_rho.map_leg(2, H.comul),
                  ca.phi_rho.map_leg(0, ca.coaction))
    rep.check_same("rca2", lhs, rhs)
    rep.check_same("rca3", *counit_identity(ca.coaction, H.counit, 1))
    rep.check_same(
        "rca4",
        ca.phi_rho.map_leg(1, H.counit) + ca.phi_rho.map_leg(2, H.counit),
        ca.unit().tensor(one).scale(H.field.from_int(2)))
    return rep


def check_left_comodule_algebra(ca: LeftComoduleAlgebra) -> VerificationReport:
    H = ca.H
    rep = VerificationReport("left comodule algebra %s" % ca.name,
                             {"dim": ca.dim, "field": H.field.name})
    rep.check_bool("assoc", ca.algebra.is_associative() is None)
    rep.check_bool("unit", ca.algebra.unit_laws_hold() is None)
    rep.check_same("coact-hom", *multiplicative(
        ca.coaction, ca.algebra, (H.leg(), ca.algebra)))
    rep.check_same("coact-unit", ca.coact(ca.unit()),
                   H.unit().tensor(ca.unit()))
    lam, legs = ca.coaction, tuple(map(ca.leg_for, ca.phi_lam.spaces))
    rep.check_same("lca1", sandwich(lam.compose(lam, 1), y=ca.phi_lam,
                                    ylegs=legs),
                   sandwich(H.comul.compose(lam), ca.phi_lam, legs))
    one = H.unit()
    lhs = ca.mmul(one.tensor(ca.phi_lam),
                  ca.phi_lam.map_leg(1, H.comul),
                  H.phi.tensor(ca.unit()))
    rhs = ca.mmul(ca.phi_lam.map_leg(2, ca.coaction),
                  ca.phi_lam.map_leg(0, H.comul))
    rep.check_same("lca2", lhs, rhs)
    rep.check_same("lca3", *counit_identity(ca.coaction, H.counit, 0))
    rep.check_same(
        "lca4",
        ca.phi_lam.map_leg(1, H.counit) + ca.phi_lam.map_leg(0, H.counit),
        one.tensor(ca.unit()).scale(H.field.from_int(2)))
    return rep


def check_bicomodule_algebra(ba: BicomoduleAlgebra) -> VerificationReport:
    H = ba.H
    rep = VerificationReport("bicomodule algebra %s" % ba.name,
                             {"dim": ba.dim, "field": H.field.name})
    rep.extend(check_left_comodule_algebra(ba.left), prefix="left/")
    rep.extend(check_right_comodule_algebra(ba.right), prefix="right/")
    left, right = ba.left, ba.right
    legs = tuple(map(left.leg_for, ba.phi_mid.spaces))
    rep.check_same("bca1", sandwich(left.coaction.compose(right.coaction),
                                    ba.phi_mid, legs),
                   sandwich(right.coaction.compose(left.coaction, 1),
                            y=ba.phi_mid, ylegs=legs))
    one = H.unit()
    lhs = ba.mmul(one.tensor(ba.phi_mid),
                  ba.phi_mid.map_leg(1, left.coaction),
                  left.phi_lam.tensor(one))
    rhs = ba.mmul(left.phi_lam.map_leg(2, right.coaction),
                  ba.phi_mid.map_leg(0, H.comul))
    rep.check_same("bca2", lhs, rhs)
    lhs = ba.mmul(one.tensor(right.phi_rho),
                  ba.phi_mid.map_leg(1, right.coaction),
                  ba.phi_mid.tensor(one))
    rhs = ba.mmul(ba.phi_mid.map_leg(2, H.comul),
                  right.phi_rho.map_leg(0, left.coaction))
    rep.check_same("bca3", lhs, rhs)
    rep.check_same(
        "bca4",
        ba.phi_mid.map_leg(2, H.counit).permute((1, 0)) +
        ba.phi_mid.map_leg(0, H.counit),
        ba.algebra.unit.tensor(one).scale(H.field.from_int(2)))
    return rep


def check_left_module_algebra(ma: LeftModuleAlgebra) -> VerificationReport:
    H = ma.H
    rep = VerificationReport("left module algebra %s" % ma.name,
                             {"dim": ma.dim, "field": H.field.name})
    rep.check_bool("carrier-unit", ma.algebra.unit_laws_hold() is None)
    rep.check_same("module-assoc", *left_action_assoc(ma.action, H.leg()))
    rep.check_same("module-unit", *left_action_unit(ma.action, H.unit()))
    mult = ma.algebra
    rep.check_same("ma1", *quasi_associative(mult, mult, ma.action,
                                             ma.action, H.phi))
    rep.check_same("ma2", *equivariant_action(ma.action, mult, ma.action,
                                              H.comul))
    # h . 1 and eps(h) 1 on every input h, over the graphs of the
    # identity and of eps
    ident = LinearMap.identity(H.basis, H.field).graph()
    rep.check_same("ma3", LinearMap.from_graph(
        sweedler(ident, (0, (ma.action, 1, ma.unit())))),
        LinearMap.from_graph(H.counit.graph().tensor(ma.unit())))
    return rep


def check_right_module_coalgebra(mc: RightModuleCoalgebra) -> VerificationReport:
    H = mc.H
    rep = VerificationReport("right module coalgebra %s" % mc.name,
                             {"dim": mc.dim, "field": H.field.name})
    rep.check_same("module-assoc", *right_action_assoc(mc.action, H.leg()))
    rep.check_same("module-unit", *right_action_unit(mc.action, H.unit()))
    rep.check_same("rmc1", sandwich(mc.comul.compose(mc.comul), y=H.phi_inv,
                                    ylegs=(mc.action,) * 3),
                   mc.comul.compose(mc.comul, 1))
    rep.check_same("rmc2", *multiplicative(
        mc.comul, mc.action, (mc.action, mc.action), right=H.comul))
    rep.check_same("rmc3", *multiplicative(mc.counit, mc.action, (),
                                           right=H.counit))
    return rep


# ----------------------------------------------------------------------
# canonical element identities of a right comodule algebra


def verify_tilde_identities(ca: RightComoduleAlgebra) -> VerificationReport:
    """The identity suite for the canonical elements p~ and q~ of a
    right comodule algebra over a quasi-Hopf algebra. It needs S^{-1},
    as verify_core_identities does, and ends the same way without it."""
    H = ca.H
    if not isinstance(H, QuasiHopfAlgebra):
        raise ValueError("tilde identities need antipode data")
    der = H.derived
    rep = VerificationReport("tilde elements %s" % ca.name,
                             {"dim": ca.dim, "field": H.field.name})
    try:
        H.antipode_inv
    except ValueError:
        rep.check_bool("antipode-bijective", False)
        return rep
    one, one_a = H.unit(), ca.unit()
    unit_ah = one_a.tensor(one)
    pt, qt = ca.p_tilde(), ca.q_tilde()
    m, mA, rho = H.leg(), ca.algebra, ca.coaction
    S, Si = H.antipode, H.antipode_inv

    # tpqr1 and tpqr1a compare two maps on A, each a Sweedler sum whose
    # source leg 0 is a: the graph of rho, split by rho, or the identity's
    split = rho.graph().map_leg(1, rho)
    ident = LinearMap.identity(ca.basis, H.field).graph()

    rep.check_same("tpqr1", _per_input(split.tensor(pt), (mA, 1, 4, one_a),
                                       (m, 2, 5, (S, 3))),
                   _per_input(ident.tensor(pt), (mA, 2, 1), (m, 3, one)))
    rep.check_same("tpqr1a", _per_input(split.tensor(qt), (mA, one_a, 4, 1),
                                        (m, (Si, 3), 5, 2)),
                   _per_input(ident.tensor(qt), (mA, 1, 2), (m, one, 3)))
    rep.check_same("tpqr2", sweedler(qt.map_leg(0, rho).tensor(pt), (
        (mA, 0, 3, one_a), (m, 1, 4, (S, 2)))), unit_ah)
    rep.check_same("tpqr2a", sweedler(pt.map_leg(0, rho).tensor(qt), (
        (mA, one_a, 3, 0), (m, (Si, 2), 4, 1))), unit_ah)

    # Phi_rho (rho (x) id)(p~)(p~ (x) 1)
    #   = sum (id (x) Delta)(rho(x1) p~)(1_A (x) g1 S(x3) (x) g2 S(x2)),
    # a sum over W = sum rho(x1) p~ (x) x2 (x) x3 and f^{-1}
    lhs = ca.mmul(ca.phi_rho, pt.map_leg(0, rho), pt.tensor(one))
    W = sweedler(ca.phi_rho_inv.map_leg(0, rho).tensor(pt), (
        (mA, 0, 4), (m, 1, 5), 2, 3))
    rhs = sweedler(W.map_leg(1, H.comul).tensor(der.f_inv), (
        (mA, 0, one_a), (m, 1, (m, 5, (S, 4))), (m, 2, (m, 6, (S, 3)))))
    rep.check_same("tpr2", lhs, rhs)

    # (q~ (x) 1)(rho (x) id)(q~) Phi_rho^{-1}
    #   = sum (1_A (x) S^{-1}(f2 X3) (x) S^{-1}(f1 X2))
    #         (id (x) Delta)(q~ rho(X1)),
    # a sum over W = sum q~ rho(X1) (x) X2 (x) X3 and f
    lhs = ca.mmul(qt.tensor(one), qt.map_leg(0, rho), ca.phi_rho_inv)
    W = sweedler(ca.phi_rho.map_leg(0, rho).tensor(qt), (
        (mA, 4, 0), (m, 5, 1), 2, 3))
    rhs = sweedler(W.map_leg(1, H.comul).tensor(der.f), (
        (mA, one_a, 0), (m, (Si, (m, 6, 4)), 1), (m, (Si, (m, 5, 3)), 2)))
    rep.check_same("tqr2", lhs, rhs)

    # sum X1_<1> p~2 S(X2) (x) X1_<0> p~1 (x) X3
    #   = sum x2 S(x3_1 pL1) (x) x1 (x) x3_2 pL2
    lhs = sweedler(ca.phi_rho.map_leg(0, rho).tensor(pt), (
        (m, 1, 5, (S, 2)), (mA, 0, 4), 3))
    rhs = sweedler(ca.phi_rho_inv.map_leg(2, H.comul).tensor(der.p_L), (
        (m, 1, (S, (m, 2, 4))), 0, (m, 3, 5)))
    rep.check_same("tprr", lhs, rhs)
    return rep
