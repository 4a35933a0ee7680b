"""Product algebra constructions over a quasi-bialgebra.

Smash product of a left module algebra with H, quasi-smash product of a
right comodule algebra with the dual (a left module algebra again), its
realization inside End(H) (the double of H) and inside Hom(H, A),
generalized smash products with a left comodule algebra, and two-sided
crossed products with the dual in the middle.  A coincidence checker
verifies, entry by entry of the multiplication tables, that the iterated
products factor through the two-sided crossed product.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .algebra import FinAlgebra, LegMul
from .coact import (LeftComoduleAlgebra, LeftModuleAlgebra,
                    RightComoduleAlgebra, canonical_left_comodule,
                    canonical_right_comodule)
from .quasihopf import (DerivedElements, DualView, QuasiBialgebra,
                        QuasiHopfAlgebra)
from .report import VerificationReport
from .tensor import Basis, FlatSpace, LinearMap, Tensor


class ProductAlgebra(FlatSpace):
    """An algebra whose basis is the flattened tensor product of factor
    bases.

    The evaluator receives two per-factor index tuples and returns their
    product as a tensor over the factor legs. It is called once per pair
    of basis vectors: the whole multiplication table is built at
    construction into the FinAlgebra alg."""

    def __init__(self, factors: Tuple[Basis, ...], evaluator, unit: Tensor,
                 field, name: str = ""):
        super().__init__(factors, field)
        self.name = name or self.basis.name
        join = self.join
        keys = [self.split(i) for i in range(self.dim)]
        mult = {}
        for i, key1 in enumerate(keys):
            for j, key2 in enumerate(keys):
                t = evaluator(key1, key2)
                if t.spaces != self.factors:
                    raise ValueError("factor legs do not match")
                if t.data:
                    mult[(i, j)] = {join(k): c for k, c in t.data.items()}
        self.alg = FinAlgebra(self.basis, mult, self.flatten(unit), field)

    def flatten(self, t: Tensor) -> Tensor:
        """pack for a tensor with exactly the factor legs."""
        if t.spaces != self.factors:
            raise ValueError("factor legs do not match")
        return self.pack(t)

    def unflatten(self, t: Tensor) -> Tensor:
        return self.unpack(t)

    def e(self, *idx: int) -> Tensor:
        return Tensor((self.basis,), {(self.join(idx),): self.field.one()},
                      self.field)

    def unit_tensor(self) -> Tensor:
        return self.alg.unit_tensor()


# ----------------------------------------------------------------------
# quasi-smash product  A (x) H*


class QuasiSmash(LeftModuleAlgebra):
    """The product A (x) H* of a right comodule algebra with the dual:

        (a # phi)(a' # psi)
            = sum a a'_(0) x1 # (phi <- a'_(1) x2)(psi <- x3)

    with x = the inverse right reassociator, unit 1_A # eps, and the
    left H-action h . (a # phi) = a # (h -> phi), which makes the
    carrier a left H-module algebra."""

    def __init__(self, ca: RightComoduleAlgebra, dual: Optional[DualView] = None):
        H = ca.H
        self.ca = ca
        self.dual = dual if dual is not None else DualView(H)
        dual = self.dual

        def evaluator(key1, key2):
            (a, p), (a2, q) = key1, key2
            src = ca.coact(ca.e(a2)).tensor(ca.phi_rho_inv)
            pp, qq = dual.dual_e(p), dual.dual_e(q)
            return H.assemble(src, lambda a0, a1, x1, x2, x3: ca.algebra.mulc(
                ca.e(a), ca.e(a0), ca.e(x1)).tensor(dual.convolve(
                    dual.hit_r(pp, H.mul(H.e(a1), H.e(x2))),
                    dual.hit_r(qq, H.e(x3)))))

        unit = ca.unit().tensor(dual.eps_functional())
        factors = (ca.basis, dual.basis)
        # the module algebra interface reads the table that ProductAlgebra
        # builds at construction
        self.prod = ProductAlgebra(factors, evaluator, unit, H.field,
                                   name=ca.name + "#H*")
        table = {}
        for i in range(H.dim):
            for p in range(H.dim):
                hit = dual.hit_l(H.e(i), dual.dual_e(p))
                for (pp,), c in hit.data.items():
                    for a in range(ca.dim):
                        f = self.prod.join((a, p))
                        table.setdefault((i, f), {})[self.prod.join((a, pp))] = c
        action = LegMul(H.basis, self.prod.basis, self.prod.basis, table,
                        H.field)
        super().__init__(H, self.prod.alg, action, name=self.prod.name)

    def element(self, a: Tensor, phi: Tensor) -> Tensor:
        return self.prod.flatten(a.tensor(phi))

    def parts(self, t: Tensor) -> Tensor:
        return self.prod.unflatten(t)


def quasi_smash(ca: RightComoduleAlgebra,
                dual: Optional[DualView] = None) -> QuasiSmash:
    return QuasiSmash(ca, dual)


# ----------------------------------------------------------------------
# smash product  A (x) H


def smash_product(ma: LeftModuleAlgebra) -> ProductAlgebra:
    """The smash product A # H of a left module algebra with H:

        (a # h)(a' # h') = sum (x1 . a)(x2 h_1 . a') # x3 h_2 h'

    with x = Phi^{-1} and unit 1_A # 1_H."""
    H = ma.H
    field = H.field
    zero = field.zero()
    hmult = H.algebra.mult
    amult = ma.algebra.mult
    act = ma.action.table
    dcols = H.comul.cols
    phi_data = list(H.phi_inv.data.items())
    factors = (ma.basis, H.basis)

    def evaluator(key1, key2):
        (a, h), (a2, h2) = key1, key2
        out: Dict[Tuple[int, int], object] = {}
        for (h1, hh), c0 in dcols.get(h, {}).items():
            for (x1, x2, x3), c1 in phi_data:
                left = act.get((x1, a))
                if not left:
                    continue
                hx = hmult.get((x2, h1))
                if not hx:
                    continue
                avec = _act_mul(left, hx, a2, act, amult, zero)
                if not avec:
                    continue
                hvec: Dict[int, object] = {}
                for t, ct in hmult.get((x3, hh), {}).items():
                    for u, cu in hmult.get((t, h2), {}).items():
                        hvec[u] = hvec.get(u, zero) + ct * cu
                c01 = c0 * c1
                for aa, caa in avec.items():
                    cx = c01 * caa
                    for u, cu in hvec.items():
                        if not cu:
                            continue
                        key = (aa, u)
                        out[key] = out.get(key, zero) + cx * cu
        return Tensor(factors, {k: c for k, c in out.items() if c}, field)

    unit = ma.unit().tensor(H.unit())
    return ProductAlgebra(factors, evaluator, unit, field,
                          name=ma.name + "#H")


def _act_mul(left, hx, a2, act, amult, zero):
    """sum (left)(hx . a2) as a sparse vector over the carrier of the
    module algebra; left and hx are sparse vectors, a2 a basis index."""
    avec = {}
    for la, cla in left.items():
        for hidx, ch in hx.items():
            right = act.get((hidx, a2))
            if not right:
                continue
            clh = cla * ch
            for ra, cra in right.items():
                prod = amult.get((la, ra))
                if not prod:
                    continue
                c = clh * cra
                for aa, caa in prod.items():
                    avec[aa] = avec.get(aa, zero) + c * caa
    return avec


# ----------------------------------------------------------------------
# generalized smash product  A (x) B


def _same_h(H: QuasiBialgebra, other: QuasiBialgebra) -> bool:
    """other is H or has the structure maps of H, as when both were read
    from spec files that embed the same algebra."""
    return other is H or (other.algebra == H.algebra
                          and other.comul == H.comul
                          and other.counit == H.counit
                          and other.phi == H.phi)


def generalized_smash(ma: LeftModuleAlgebra,
                      cb: LeftComoduleAlgebra) -> ProductAlgebra:
    """The generalized smash product of a left module algebra with a left
    comodule algebra:

        (a >< b)(a' >< b')
            = sum (x1 . a)(x2 b_[-1] . a') >< x3 b_[0] b'

    with x = the inverse left reassociator. For B = H with the
    comultiplication as coaction this is the smash product A # H."""
    H = ma.H
    if not _same_h(H, cb.H):
        raise ValueError("module and comodule algebra must share H")
    field = H.field
    zero = field.zero()
    hmult = H.algebra.mult
    amult = ma.algebra.mult
    bmult = cb.algebra.mult
    act = ma.action.table
    ccols = cb.coaction.cols
    phi_data = list(cb.phi_lam_inv.data.items())
    factors = (ma.basis, cb.basis)

    # merged left data per (a, b): the coaction and reassociator sums
    # collapse to one coefficient per ((la, hidx), (x3, b0))
    merged_cache: Dict[Tuple[int, int], list] = {}
    avec_cache: Dict[Tuple[int, int, int], Dict[int, object]] = {}
    bvec_cache: Dict[Tuple[int, int, int], Dict[int, object]] = {}

    def merged_left(a, b):
        got = merged_cache.get((a, b))
        if got is not None:
            return got
        acc: Dict[tuple, object] = {}
        for (bm, b0), c0 in ccols.get(b, {}).items():
            for (x1, x2, x3), c1 in phi_data:
                left = act.get((x1, a))
                if not left:
                    continue
                hx = hmult.get((x2, bm))
                if not hx:
                    continue
                c01 = c0 * c1
                for la, cla in left.items():
                    for hidx, ch in hx.items():
                        k = (la, hidx, x3, b0)
                        s = acc.get(k, zero) + c01 * cla * ch
                        if s:
                            acc[k] = s
                        elif k in acc:
                            del acc[k]
        got = list(acc.items())
        merged_cache[(a, b)] = got
        return got

    def avec_for(la, hidx, a2):
        got = avec_cache.get((la, hidx, a2))
        if got is None:
            got = {}
            for ra, cra in act.get((hidx, a2), {}).items():
                for aa, caa in amult.get((la, ra), {}).items():
                    got[aa] = got.get(aa, zero) + cra * caa
            avec_cache[(la, hidx, a2)] = got
        return got

    def bvec_for(x3, b0, b2):
        got = bvec_cache.get((x3, b0, b2))
        if got is None:
            got = {}
            for bt, cbt in bmult.get((b0, b2), {}).items():
                for bb, cbb in bmult.get((x3, bt), {}).items():
                    got[bb] = got.get(bb, zero) + cbt * cbb
            bvec_cache[(x3, b0, b2)] = got
        return got

    def evaluator(key1, key2):
        (a, b), (a2, b2) = key1, key2
        out: Dict[Tuple[int, int], object] = {}
        for (la, hidx, x3, b0), c0 in merged_left(a, b):
            avec = avec_for(la, hidx, a2)
            if not avec:
                continue
            bvec = bvec_for(x3, b0, b2)
            if not bvec:
                continue
            for aa, caa in avec.items():
                cx = c0 * caa
                for bb, cbb in bvec.items():
                    key = (aa, bb)
                    out[key] = out.get(key, zero) + cx * cbb
        return Tensor(factors, {k: c for k, c in out.items() if c}, field)

    unit = ma.unit().tensor(cb.unit())
    return ProductAlgebra(factors, evaluator, unit, field,
                          name=ma.name + "><" + cb.name)


# ----------------------------------------------------------------------
# two-sided crossed product  A (x) H* (x) B


def two_sided_crossed(rca: RightComoduleAlgebra, lcb: LeftComoduleAlgebra,
                      dual: Optional[DualView] = None) -> ProductAlgebra:
    """The two-sided crossed product A >< H* >< B:

        (a >< phi >< b)(a' >< psi >< b')
            = sum a (phi_1 |> a') x1_r
              >< (y1 -> phi_2 <- x2_r)(y2 -> psi_1 <- x3_r)
              >< y3 (b <| psi_2) b'

    where x = the inverse right reassociator of A, y = the inverse left
    reassociator of B, and phi_1 (x) phi_2 splits a functional along the
    multiplication of H. The double reassociator sum is precomputed per
    pair of split functionals."""
    H = rca.H
    if not _same_h(H, lcb.H):
        raise ValueError("the two comodule algebras must share H")
    if dual is None:
        dual = DualView(H)
    field = H.field
    nH = H.dim
    A, B = rca.algebra, lcb.algebra

    # core[(j, k)] = sum over both inverse reassociators of
    #   x1_r (x) (y1 -> e^j <- x2_r)(y2 -> e^k <- x3_r) (x) y3
    core: Dict[Tuple[int, int], Tensor] = {}
    for j in range(nH):
        for k in range(nH):
            src = rca.phi_rho_inv.tensor(lcb.phi_lam_inv)
            ej, ek = dual.dual_e(j), dual.dual_e(k)
            core[(j, k)] = H.assemble(src, lambda x1, x2, x3, y1, y2, y3:
                                      rca.e(x1).tensor(dual.convolve(
                                          dual.hit_l(H.e(y1), dual.hit_r(ej, H.e(x2))),
                                          dual.hit_l(H.e(y2), dual.hit_r(ek, H.e(x3))))
                                      ).tensor(lcb.e(y3)))

    factors = (A.basis, dual.basis, B.basis)
    amult, bmult = A.mult, B.mult
    zero = field.zero()
    dcols = dual.comul.cols

    # hit tables: rhit[(j, a)] = e^j |> e_a, lhit[(b, k)] = e_b <| e^k
    nA, nB = A.dim, B.dim
    rhit = {}
    for j in range(nH):
        ej = dual.dual_e(j)
        for a in range(nA):
            vec = rca.hit(ej, rca.e(a)).data
            if vec:
                rhit[(j, a)] = {i: c for (i,), c in vec.items()}
    lhit = {}
    for b in range(nB):
        eb = lcb.e(b)
        for k in range(nH):
            vec = lcb.hit(eb, dual.dual_e(k)).data
            if vec:
                lhit[(b, k)] = {i: c for (i,), c in vec.items()}

    def evaluator(key1, key2):
        (a, j, b), (a2, k, b2) = key1, key2
        out: Dict[Tuple[int, int, int], object] = {}
        kcols = dcols.get(k, {})
        for (j1, j2), c1 in dcols.get(j, {}).items():
            # a (phi_1 |> a')
            hv = rhit.get((j1, a2))
            if not hv:
                continue
            apart: Dict[int, object] = {}
            for t, ct in hv.items():
                for r, cr in amult.get((a, t), {}).items():
                    apart[r] = apart.get(r, zero) + ct * cr
            if not apart:
                continue
            for (k1, k2), c2 in kcols.items():
                # (b <| psi_2) b'
                hw = lhit.get((b, k2))
                if not hw:
                    continue
                bsuffix: Dict[int, object] = {}
                for t, ct in hw.items():
                    for r, cr in bmult.get((t, b2), {}).items():
                        bsuffix[r] = bsuffix.get(r, zero) + ct * cr
                if not bsuffix:
                    continue
                c12 = c1 * c2
                for (x1, m, y3), c3 in core[(j2, k1)].data.items():
                    c123 = c12 * c3
                    for ai, c4 in apart.items():
                        avec = amult.get((ai, x1))
                        if not avec:
                            continue
                        c1234 = c123 * c4
                        for bi, c5 in bsuffix.items():
                            bvec = bmult.get((y3, bi))
                            if not bvec:
                                continue
                            base = c1234 * c5
                            for ar, ca_ in avec.items():
                                cba = base * ca_
                                for br, cb_ in bvec.items():
                                    key = (ar, m, br)
                                    out[key] = out.get(key, zero) + cba * cb_
        return Tensor(factors, {key: c for key, c in out.items() if c}, field)

    unit = A.unit_tensor().tensor(dual.eps_functional()).tensor(B.unit_tensor())
    return ProductAlgebra(factors, evaluator, unit, field,
                          name=rca.name + "><H*><" + lcb.name)


# ----------------------------------------------------------------------
# coincidence of the iterated products with the two-sided crossed product


def _same_table(rep: VerificationReport, tag: str, p1: ProductAlgebra,
                p2: ProductAlgebra) -> None:
    if p1.dim != p2.dim:
        rep.check_bool(tag, False)
        return
    n = p1.dim

    def probe(i, j):
        return (p1.alg.mul_indices(i, j).data, p2.alg.mul_indices(i, j).data)

    rep.check_quantified(tag, ((i, j) for i in range(n) for j in range(n)),
                         probe)
    rep.check_bool(tag + "-unit",
                   p1.unit_tensor().data == p2.unit_tensor().data)


def verify_crossed_decomposition(H: QuasiBialgebra) -> VerificationReport:
    """For the canonical comodule algebra structures on A = B = H, check
    entry by entry that
      - the generalized smash product (A # H*) >< B,
      - the smash product (A # H*) # H (for B = H with the canonical
        coaction),
    both coincide with the two-sided crossed product A >< H* >< B."""
    rep = VerificationReport("crossed product decomposition %s" % H.name,
                             {"dim": H.dim, "field": H.field.name})
    rca = canonical_right_comodule(H)
    lcb = canonical_left_comodule(H)
    dual = DualView(H)
    qs = quasi_smash(rca, dual)
    gsm = generalized_smash(qs, lcb)
    sm = smash_product(qs)
    crossed = two_sided_crossed(rca, lcb, dual)
    _same_table(rep, "gsm-vs-crossed", gsm, crossed)
    _same_table(rep, "smash-vs-crossed", sm, crossed)
    return rep


# ----------------------------------------------------------------------
# the double of H inside End(H)


def _endo_tensor(H: QuasiBialgebra, f: LinearMap) -> Tensor:
    """A linear endomorphism of H as a two-leg tensor (image, argument)."""
    data = {}
    for j, col in f.cols.items():
        for (i,), c in col.items():
            data[(i, j)] = c
    return Tensor((H.basis, H.basis), data, H.field)


class HeisenbergDouble:
    """The quasi-smash product H (x) H* realized inside End(H).

    mu(h # phi)(h') = sum phi(h'_2 pL2) h h'_1 pL1 is bijective with
    inverse mu^{-1}(u) = sum_i u(qL2 (e_i)_2) S^{-1}(qL1 (e_i)_1) # e^i;
    the transported product on End(H) is

        (u o v)(h) = sum u(v(h x3 X3_2) S^{-1}(S(x1 X2) alpha x2 X3_1))
                     S^{-1}(X1),

    the unit is h |-> h S^{-1}(beta), and the transported left H-action
    is (h . u)(h') = u(h' h_2) S^{-1}(h_1)."""

    def __init__(self, H: QuasiHopfAlgebra,
                 dual: Optional[DualView] = None,
                 der: Optional[DerivedElements] = None):
        self.H = H
        self.dual = dual if dual is not None else DualView(H)
        self.der = der if der is not None else DerivedElements(H)
        n = H.dim
        # per basis argument k: sum (e_k)_1 pL1 (x) (e_k)_2 pL2
        self._mu_core = {
            k: H.assemble(H.delta(H.e(k)).tensor(self.der.p_L),
                          lambda k1, k2, l1, l2: H.mul(H.e(k1), H.e(l1)).tensor(
                              H.mul(H.e(k2), H.e(l2))))
            for k in range(n)
        }
        # per dual index i: sum qL2 (e_i)_2 (x) S^{-1}(qL1 (e_i)_1)
        # (argument leg, left-multiplier leg)
        self._inv_core = {
            i: H.assemble(self.der.q_L.tensor(H.delta(H.e(i))),
                          lambda q1, q2, i1, i2: H.mul(H.e(q2), H.e(i2)).tensor(
                              H.Sinv(H.mul(H.e(q1), H.e(i1)))))
            for i in range(n)
        }
        # composition element, with phi^{-1} = x1 (x) x2 (x) x3 and
        # phi = X1 (x) X2 (x) X3:
        #   E = sum x3 X3_2 (x) S^{-1}(S(x1 X2) alpha x2 X3_1) (x) S^{-1}(X1)
        self._compose_elt = H.assemble(
            H.phi_inv.tensor(H.phi.map_leg(2, H.comul)),
            lambda x1, x2, x3, X1, X2, X31, X32: H.mul(H.e(x3), H.e(X32)).tensor(
                H.Sinv(H.mul(H.S(H.mul(H.e(x1), H.e(X2))), H.alpha,
                             H.e(x2), H.e(X31)))).tensor(H.Sinv(H.e(X1))))
        # E grouped by its first two legs, e1 -> e2 -> sum c e_e3, so that
        # compose forms v(h e1) once per e1 and u(v(h e1) e2) once per
        # distinct (e1, e2); by bilinearity the sum is unchanged
        groups: Dict[int, Dict[int, dict]] = {}
        for (e1, e2, e3), c in self._compose_elt.data.items():
            groups.setdefault(e1, {}).setdefault(e2, {})[(e3,)] = c
        self._compose_groups = tuple(
            (e1, tuple((e2, Tensor((H.basis,), vec, H.field))
                       for e2, vec in by_e2.items()))
            for e1, by_e2 in groups.items())

    def mu(self, t: Tensor) -> LinearMap:
        """Transport an element of H (x) H* to an endomorphism of H."""
        H = self.H
        if t.spaces != (H.basis, self.dual.basis):
            raise ValueError("expected an element of H (x) H*")
        n = H.dim
        cols = {}
        for k in range(n):
            core = self._mu_core[k]
            acc = Tensor.zero((H.basis,), H.field)
            for (i, a), c in t.data.items():
                # pair e^a against the second leg of the core
                red = self.dual.dual_e(a).tensor(core).pair_legs(0, 2)
                acc = acc + H.mul(H.e(i), red).scale(c)
            cols[k] = dict(acc.data)
        return LinearMap(H.basis, (H.basis,), cols, H.field)

    def mu_inv(self, u: LinearMap) -> Tensor:
        H = self.H
        out = Tensor.zero((H.basis, self.dual.basis), H.field)
        for i in range(H.dim):
            core = self._inv_core[i]
            vec = Tensor.zero((H.basis,), H.field)
            for (arg, lft), c in core.data.items():
                img = u.cols.get(arg)
                if not img:
                    continue
                for (r,), c2 in img.items():
                    vec = vec + H.mul(H.e(r), H.e(lft)).scale(c * c2)
            out = out + vec.tensor(self.dual.dual_e(i))
        return out

    def compose(self, u: LinearMap, v: LinearMap) -> LinearMap:
        H = self.H
        cols = {}
        for k in range(H.dim):
            acc = Tensor.zero((H.basis,), H.field)
            for e1, rights in self._compose_groups:
                left = H.mul(H.e(k), H.e(e1)).map_leg(0, v)
                for e2, right in rights:
                    inner = H.mul(left, H.e(e2)).map_leg(0, u)
                    acc = acc + H.mul(inner, right)
            cols[k] = dict(acc.data)
        return LinearMap(H.basis, (H.basis,), cols, H.field)

    def unit(self) -> LinearMap:
        H = self.H
        return LinearMap.from_function(
            H.basis, (H.basis,),
            lambda k: H.mul(H.e(k), H.Sinv(H.beta)), H.field)

    def act(self, h: Tensor, u: LinearMap) -> LinearMap:
        H = self.H
        return LinearMap.from_function(
            H.basis, (H.basis,),
            lambda k: H.assemble(H.delta(h), lambda h1, h2: H.mul(
                H.mul(H.e(k), H.e(h2)).map_leg(0, u), H.Sinv(H.e(h1)))),
            H.field)


def verify_heisenberg_double(H: QuasiHopfAlgebra,
                             dual: Optional[DualView] = None,
                             der: Optional[DerivedElements] = None
                             ) -> VerificationReport:
    """mu is a bijection H (x) H* -> End(H); it carries the quasi-smash
    product, its unit and its left H-action to the transported
    structures on End(H)."""
    rep = VerificationReport("double of %s in End(H)" % H.name,
                             {"dim": H.dim, "field": H.field.name})
    if dual is None:
        dual = DualView(H)
    hd = HeisenbergDouble(H, dual, der)
    rca = canonical_right_comodule(H)
    qs = quasi_smash(rca, dual)
    n = H.dim

    def basis_elt(i, a):
        return H.e(i).tensor(dual.dual_e(a))

    mu_table = {(i, a): hd.mu(basis_elt(i, a))
                for i in range(n) for a in range(n)}

    rep.check_quantified(
        "mu-inv-left", ((i, a) for i in range(n) for a in range(n)),
        lambda i, a: (hd.mu_inv(mu_table[(i, a)]), basis_elt(i, a)))

    def endo(k, l):
        return LinearMap(H.basis, (H.basis,), {l: {(k,): H.field.one()}},
                         H.field)

    rep.check_quantified(
        "mu-inv-right", ((k, l) for k in range(n) for l in range(n)),
        lambda k, l: (_endo_tensor(H, hd.mu(hd.mu_inv(endo(k, l)))),
                      _endo_tensor(H, endo(k, l))))

    def mu_of(t: Tensor) -> LinearMap:
        return hd.mu(qs.parts(t))

    def mult_probe(i, a, j, b):
        prod = qs.algebra.mul_indices(qs.prod.join((i, a)),
                                      qs.prod.join((j, b)))
        return (_endo_tensor(H, mu_of(prod)),
                _endo_tensor(H, hd.compose(mu_table[(i, a)],
                                           mu_table[(j, b)])))

    rep.check_quantified(
        "mu-multiplicative",
        ((i, a, j, b) for i in range(n) for a in range(n)
         for j in range(n) for b in range(n)), mult_probe)

    rep.check_equal("mu-unit",
                    _endo_tensor(H, mu_of(qs.unit())),
                    _endo_tensor(H, hd.unit()))

    def equiv_probe(h, i, a):
        acted = qs.act(H.e(h), qs.element(H.e(i), dual.dual_e(a)))
        return (_endo_tensor(H, mu_of(acted)),
                _endo_tensor(H, hd.act(H.e(h), mu_table[(i, a)])))

    rep.check_quantified(
        "mu-equivariant",
        ((h, i, a) for h in range(n) for i in range(n) for a in range(n)),
        equiv_probe)

    rep.check_quantified(
        "unit-laws", ((i, a) for i in range(n) for a in range(n)),
        lambda i, a: (
            _endo_tensor(H, hd.compose(hd.unit(), mu_table[(i, a)])) +
            _endo_tensor(H, hd.compose(mu_table[(i, a)], hd.unit())),
            _endo_tensor(H, mu_table[(i, a)]).scale(H.field.from_int(2))))
    return rep


# ----------------------------------------------------------------------
# the quasi-smash product inside Hom(H, A)


class HomSmash:
    """The quasi-smash product A (x) H* realized inside Hom(H, A) through
    nu(a # phi)(h) = phi(h) a, with the transported product

        (v * w)(h) = sum v(w(x3 h_2)_(1) x2 h_1) w(x3 h_2)_(0) x1,

    unit h |-> eps(h) 1_A, and left H-action (h . v)(h') = v(h' h)."""

    def __init__(self, ca: RightComoduleAlgebra,
                 dual: Optional[DualView] = None):
        self.ca = ca
        self.H = ca.H
        self.dual = dual if dual is not None else DualView(ca.H)

    def nu(self, t: Tensor) -> LinearMap:
        ca = self.ca
        if t.spaces != (ca.basis, self.dual.basis):
            raise ValueError("expected an element of A (x) H*")
        cols: Dict[int, Dict[Tuple[int, ...], object]] = {}
        for (a, p), c in t.data.items():
            cols.setdefault(p, {})[(a,)] = c
        return LinearMap(self.H.basis, (ca.basis,), cols, ca.field)

    def nu_inv(self, w: LinearMap) -> Tensor:
        ca = self.ca
        out = Tensor.zero((ca.basis, self.dual.basis), ca.field)
        for i in range(self.H.dim):
            img = Tensor((ca.basis,), dict(w.cols.get(i, {})), ca.field)
            out = out + img.tensor(self.dual.dual_e(i))
        return out

    def star(self, v: LinearMap, w: LinearMap) -> LinearMap:
        H, ca = self.H, self.ca

        def col(k):
            src = ca.phi_rho_inv.tensor(H.delta(H.e(k)))

            def builder(x1, x2, x3, k1, k2):
                t = H.mul(H.e(x3), H.e(k2)).map_leg(0, w)
                ct = ca.coact(t)
                if not ct.data:
                    return Tensor.zero((ca.basis,), ca.field)
                return ca.assemble(ct, lambda w0, w1: ca.algebra.mulc(
                    H.mul(H.e(w1), H.e(x2), H.e(k1)).map_leg(0, v),
                    ca.e(w0), ca.e(x1)))

            return H.assemble(src, builder)

        return LinearMap.from_function(H.basis, (ca.basis,), col, ca.field)

    def unit(self) -> LinearMap:
        H, ca = self.H, self.ca
        return LinearMap.from_function(
            H.basis, (ca.basis,),
            lambda k: ca.unit().scale(H.eps(H.e(k))), ca.field)

    def act(self, h: Tensor, v: LinearMap) -> LinearMap:
        H = self.H
        return LinearMap.from_function(
            H.basis, (self.ca.basis,),
            lambda k: H.mul(H.e(k), h).map_leg(0, v), self.ca.field)


def _hom_tensor(hs: HomSmash, f: LinearMap) -> Tensor:
    data = {}
    for j, col in f.cols.items():
        for (i,), c in col.items():
            data[(i, j)] = c
    return Tensor((hs.ca.basis, hs.H.basis), data, hs.ca.field)


def verify_hom_smash(ca: RightComoduleAlgebra,
                     dual: Optional[DualView] = None) -> VerificationReport:
    """nu is a bijection A (x) H* -> Hom(H, A) carrying the quasi-smash
    product, its unit and its left H-action to the transported
    structures on Hom(H, A)."""
    H = ca.H
    rep = VerificationReport("quasi-smash of %s inside Hom(H, A)" % ca.name,
                             {"dim": ca.dim, "field": H.field.name})
    if dual is None:
        dual = DualView(H)
    hs = HomSmash(ca, dual)
    qs = quasi_smash(ca, dual)
    nA, nH = ca.dim, H.dim

    nu_table = {(a, p): hs.nu(ca.e(a).tensor(dual.dual_e(p)))
                for a in range(nA) for p in range(nH)}

    rep.check_quantified(
        "nu-inv-left", ((a, p) for a in range(nA) for p in range(nH)),
        lambda a, p: (hs.nu_inv(nu_table[(a, p)]),
                      ca.e(a).tensor(dual.dual_e(p))))

    def hom_basis(i, k):
        return LinearMap(H.basis, (ca.basis,), {k: {(i,): H.field.one()}},
                         H.field)

    rep.check_quantified(
        "nu-inv-right", ((i, k) for i in range(nA) for k in range(nH)),
        lambda i, k: (_hom_tensor(hs, hs.nu(hs.nu_inv(hom_basis(i, k)))),
                      _hom_tensor(hs, hom_basis(i, k))))

    def nu_of(t: Tensor) -> LinearMap:
        return hs.nu(qs.parts(t))

    def mult_probe(a, p, b, q):
        prod = qs.algebra.mul_indices(qs.prod.join((a, p)),
                                      qs.prod.join((b, q)))
        return (_hom_tensor(hs, nu_of(prod)),
                _hom_tensor(hs, hs.star(nu_table[(a, p)], nu_table[(b, q)])))

    rep.check_quantified(
        "nu-multiplicative",
        ((a, p, b, q) for a in range(nA) for p in range(nH)
         for b in range(nA) for q in range(nH)), mult_probe)

    rep.check_equal("nu-unit", _hom_tensor(hs, nu_of(qs.unit())),
                    _hom_tensor(hs, hs.unit()))

    rep.check_quantified(
        "nu-equivariant",
        ((h, a, p) for h in range(nH) for a in range(nA) for p in range(nH)),
        lambda h, a, p: (
            _hom_tensor(hs, nu_of(qs.act(H.e(h), qs.element(ca.e(a), dual.dual_e(p))))),
            _hom_tensor(hs, hs.act(H.e(h), nu_table[(a, p)]))))
    return rep
