"""Product algebra constructions over a quasi-bialgebra.

Quasi-smash product of a right comodule algebra with the dual (a left
module algebra), its realization inside End(H) (the double of H) and
inside Hom(H, A), generalized smash products of a left module algebra
with a left comodule algebra, and two-sided crossed products with the
dual in the middle. The smash product of a left module algebra with H is
the generalized smash product with B = H coacting by Delta, and is built
as that. A coincidence checker verifies, entry by entry of the
multiplication tables, that the iterated products factor through the
two-sided crossed product.
"""

from __future__ import annotations

from functools import cache
from typing import Dict, Tuple

from .algebra import (FinAlgebra, LegMul, _chain, _contract, _flat_keys,
                      _grid, _hit_products, _lift_map, _lift_rows,
                      _lift_vector, _mul, _pairs, _side, _times, as_table, flat_pairing, sweedler)
from .coact import (LeftComoduleAlgebra, LeftModuleAlgebra,
                    RightComoduleAlgebra, canonical_left_comodule,
                    canonical_right_comodule)
from .fields import Field
from .quasihopf import QuasiBialgebra, QuasiHopfAlgebra
from .report import VerificationReport
from .tensor import Basis, LinearMap, Tensor, product_basis


class ProductAlgebra:
    """An algebra whose basis is the flattened tensor product of factor
    bases. keys lists the per-factor index tuples in basis order
    (algebra._flat_keys), so the g-th basis vector is the tensor product
    of the basis vectors keys[g], and flat inverts it.

    The evaluator is called once per row of the multiplication table:
    evaluator(key1) receives the per-factor index tuple of the left basis
    vector and returns a function col, and col(key2) is the product of
    the two basis vectors as a dict of int numerators keyed by factor
    index tuples, all over the one denominator den. Every term of a
    builder multiplies one entry from each of the same lifted tables, so
    den is the product of their denominators and holds for the whole
    table; each entry is lowered once (Field.lower). Rows are built in
    basis order and, within a row, col is called for every right basis
    vector in basis order, so partial sums that depend on key1 alone are
    formed once in the row closure and freed when the row ends. The whole
    table is built at construction into the FinAlgebra alg."""

    def __init__(self, factors: Tuple[Basis, ...], evaluator, den: int,
                 unit: Tensor, field, name: str = ""):
        self.factors = tuple(factors)
        self.basis = product_basis(*self.factors)
        self.field = field
        self.name = name or self.basis.name
        self.keys = keys = _flat_keys(*(b.dim for b in self.factors))
        self.flat = flat = {key: i for i, key in enumerate(keys)}
        self.dim = len(keys)
        lower = field.lower
        mult = {}
        for i, key1 in enumerate(keys):
            col = evaluator(key1)
            for j, key2 in enumerate(keys):
                num = col(key2)
                if num:
                    vec = lower({flat[k]: n for k, n in num.items()}, den)
                    if vec:
                        mult[(i, j)] = vec
        self.alg = FinAlgebra(self.basis, mult, self.flatten(unit), field)

    def flatten(self, t: Tensor) -> Tensor:
        """A tensor with exactly the factor legs as a vector of the flat
        basis."""
        if t.spaces != self.factors:
            raise ValueError("factor legs do not match")
        return Tensor((self.basis,), {(self.flat[idx],): c for idx, c in
                                      t.data.items()}, self.field)

    def unflatten(self, t: Tensor) -> Tensor:
        """Leg 0 of t, on the flat basis, split back into the factor
        legs; the other legs are carried."""
        if t.spaces[0] != self.basis:
            raise ValueError("leg 0 is not the flattened basis")
        return Tensor(self.factors + t.spaces[1:], {
            self.keys[idx[0]] + idx[1:]: c for idx, c in t.data.items()},
            self.field)


# ----------------------------------------------------------------------
# quasi-smash product  A (x) H*


class QuasiSmash(LeftModuleAlgebra):
    """The product A (x) H* of a right comodule algebra with the dual:

        (a # phi)(a' # psi)
            = sum a a'_(0) x1 # (phi <- a'_(1) x2)(psi <- x3)

    with x = the inverse right reassociator, unit 1_A # eps, and the
    left H-action h . (a # phi) = a # (h -> phi), which makes the
    carrier a left H-module algebra. The action is one sweedler sum
    over every input (h, a, phi), a and h -> phi written into one leg by
    flat_pairing."""

    def __init__(self, ca: RightComoduleAlgebra):
        H = ca.H
        self.ca = ca
        dual = H.dual
        field = H.field
        hmult, dh = H.algebra.as_leg().lifted()
        amult, da = ca.algebra.as_leg().lifted()
        rcols, dr = _lift_rows(field, ca.coaction.cols)
        phi, dx = field.lift(ca.phi_rho_inv.data)
        phi_data = list(phi.items())
        hit_r, dhit = dual.hit_r_leg.lifted()
        conv, dc = dual.conv.as_leg().lifted()
        factors = (ca.basis, dual.basis)

        @cache
        def amul_for(a, a0, x1):
            # (a a0) x1: at most dim(A)^3 entries
            return _times(amult, amult.get((a, a0), ()), x1)

        def evaluator(key1):
            a, p = key1

            @cache
            def hits_for(a2):
                # the sum of e^p <- a'_(1) x2 over the coaction of a' and
                # the inverse reassociator, grouped by (a'_(0), x1, x3)
                acc: Dict[Tuple[int, int, int], Dict[int, int]] = {}
                for (a0, a1), c0 in rcols.get(a2, ()):
                    for (x1, x2, x3), c1 in phi_data:
                        hx = hmult.get((a1, x2))
                        if not hx:
                            continue
                        c01 = c0 * c1
                        for m, cm in hx:
                            pv = hit_r.get((p, m))
                            if not pv:
                                continue
                            vec = acc.setdefault((a0, x1, x3), {})
                            c = c01 * cm
                            for s, cs in pv:
                                vec[s] = vec.get(s, 0) + c * cs
                return list(acc.items())

            def col(key2):
                a2, q = key2
                out: Dict[Tuple[int, int], int] = {}
                for (a0, x1, x3), fv in hits_for(a2):
                    avec = amul_for(a, a0, x1)
                    if not avec:
                        continue
                    qv = hit_r.get((q, x3))
                    if not qv:
                        continue
                    # the convolution (sum e^p <- a'_(1) x2)(e^q <- x3)
                    cvec = _mul(conv, fv.items(), qv)
                    for aa, caa in avec.items():
                        for r, cr in cvec.items():
                            key = (aa, r)
                            out[key] = out.get(key, 0) + caa * cr
                return out

            return col

        unit = ca.unit().tensor(dual.eps_functional())
        den = dr * dx * dh * dhit * dhit * dc * da * da
        # the module algebra interface reads the table that ProductAlgebra
        # builds at construction
        self.prod = ProductAlgebra(factors, evaluator, den, unit, field,
                                   name=ca.name + "#H*")
        pair = flat_pairing(ca.basis, dual.basis, self.prod.basis, field)
        action = LegMul.from_graph(sweedler(
            _grid(field, H.basis, dual.basis, ca.basis),
            (0, (pair, 2, 1), (pair, 2, (dual.hit_l_leg, 0, 1)))))
        super().__init__(H, self.prod.alg, action, name=self.prod.name)

    def element(self, a: Tensor, phi: Tensor) -> Tensor:
        """a # phi as a vector of the flat basis (flatten)."""
        return self.prod.flatten(a.tensor(phi))

    def parts(self, t: Tensor) -> Tensor:
        """A vector of the flat basis on the legs A and H* (unflatten)."""
        return self.prod.unflatten(t)


def quasi_smash(ca: RightComoduleAlgebra) -> QuasiSmash:
    return QuasiSmash(ca)


# ----------------------------------------------------------------------
# smash product  A (x) H  and generalized smash product  A (x) B


def smash_product(ma: LeftModuleAlgebra) -> ProductAlgebra:
    """The smash product A # H of a left module algebra with H:

        (a # h)(a' # h') = sum (x1 . a)(x2 h_1 . a') # x3 h_2 h'

    with x = Phi^{-1} and unit 1_A # 1_H. It is the generalized smash
    product with B = H, coacting by Delta with Phi_lam = Phi, so its table
    is that product's, built by generalized_smash."""
    prod = generalized_smash(ma, canonical_left_comodule(ma.H))
    prod.name = ma.name + "#H"
    return prod


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

    with x = the inverse left reassociator. For B = H, coacting by Delta
    with Phi_lam = Phi, this is the smash product A # H (smash_product).

    A row (a, b) first sums the coefficient of e_la (e_hidx . a') per
    (la, hidx), over the coaction of b and the inverse reassociator,
    grouped by g = (x3, b_[0]). Per left index a' of a column those
    groups are contracted once with e_la (e_hidx . e_a'), into
    {g: {aa: c}}; each column then sums them against x3 (b_[0] b')."""
    H = ma.H
    if not _same_h(H, cb.H):
        raise ValueError("module and comodule algebra must share H")
    field = H.field
    hmult, dh = H.algebra.as_leg().lifted()
    amult, da = ma.algebra.as_leg().lifted()
    bmult, db = cb.algebra.as_leg().lifted()
    act, dact = ma.action.lifted()
    ccols, dc = _lift_rows(field, cb.coaction.cols)
    phi, dy = field.lift(cb.phi_lam_inv.data)
    phi_data = list(phi.items())
    factors = (ma.basis, cb.basis)

    @cache
    def avec_for(la, hidx, a2):
        # e_la (e_hidx . e_a2): at most dim(A) dim(H) dim(A) entries
        return _times(amult, act.get((hidx, a2), ()), la, left=True)

    @cache
    def bvec_for(g, b2):
        # x3 (b0 b'): at most dim(H) dim(B) dim(B) entries
        x3, b0 = g
        return tuple(_times(bmult, bmult.get((b0, b2), ()), x3,
                            left=True).items())

    def evaluator(key1):
        a, b = key1
        acc: Dict[Tuple[int, int], Dict[Tuple[int, int], int]] = {}
        for (bm, b0), c0 in ccols.get(b, ()):
            for (x1, x2, x3), c1 in phi_data:
                left = act.get((x1, a))
                if not left:
                    continue
                hx = hmult.get((x2, bm))
                if not hx:
                    continue
                c01 = c0 * c1
                for la, cla in left:
                    for hidx, ch in hx:
                        vec = acc.setdefault((la, hidx), {})
                        g = (x3, b0)
                        vec[g] = vec.get(g, 0) + c01 * cla * ch
        groups = list(acc.items())

        @cache
        def stage(a2):
            staged: Dict[Tuple[int, int], Dict[int, int]] = {}
            for (la, hidx), gv in groups:
                avec = avec_for(la, hidx, a2)
                if not avec:
                    continue
                for g, cg in gv.items():
                    vec = staged.setdefault(g, {})
                    for aa, caa in avec.items():
                        vec[aa] = vec.get(aa, 0) + cg * caa
            return list(staged.items())

        def col(key2):
            a2, b2 = key2
            out: Dict[Tuple[int, int], int] = {}
            for g, avec in stage(a2):
                bvec = bvec_for(g, b2)
                if not bvec:
                    continue
                for aa, caa in avec.items():
                    for bb, cbb in bvec:
                        key = (aa, bb)
                        out[key] = out.get(key, 0) + caa * cbb
            return out

        return col

    unit = ma.unit().tensor(cb.unit())
    return ProductAlgebra(factors, evaluator,
                          dc * dy * dact * dh * dact * da * db * db, unit,
                          field, name=ma.name + "><" + cb.name)


# ----------------------------------------------------------------------
# two-sided crossed product  A (x) H* (x) B


def two_sided_crossed(rca: RightComoduleAlgebra,
                      lcb: LeftComoduleAlgebra) -> ProductAlgebra:
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
    dual = H.dual
    field = H.field
    nH = H.dim
    A, B = rca.algebra, lcb.algebra
    factors = (A.basis, dual.basis, B.basis)
    amult, da = A.as_leg().lifted()
    bmult, db = B.as_leg().lifted()
    dcols, dd = _lift_rows(field, dual.comul.cols)

    # hit_pair(h, j, g, h', k, g') = (h -> e^j <- g)(h' -> e^k <- g'),
    # over dpair (DualView.hits)
    hit_pair, dpair = _hit_products(dual.hits, dual.conv.as_leg(), H.basis)

    # core[(j, k)][(x1, y3)][m]: the sum over both inverse reassociators
    # of x1 (x) (y1 -> e^j <- x2_r)(y2 -> e^k <- x3_r) (x) y3
    phi_x, dx = field.lift(rca.phi_rho_inv.data)
    phi_y, dy = field.lift(lcb.phi_lam_inv.data)
    core: Dict[Tuple[int, int], Dict[Tuple[int, int], Dict[int, int]]] = {}
    for (x1, x2, x3), cx in phi_x.items():
        for (y1, y2, y3), cy in phi_y.items():
            cxy = cx * cy
            for j in range(nH):
                for k in range(nH):
                    terms = hit_pair(y1, j, x2, y2, k, x3)
                    if terms:
                        vec = core.setdefault((j, k), {}).setdefault(
                            (x1, y3), {})
                        for m, cm in terms:
                            vec[m] = vec.get(m, 0) + cxy * cm
    dcore = dx * dy * dpair

    # hit tables, regroupings of the coactions: rhit[(j, a)] = e^j |> e_a
    # is the slice of rho(e_a) with H-leg j, lhit[(b, k)] = e_b <| e^k the
    # slice of lam(e_b) with H-leg k
    rhit, lhit = {}, {}
    for a, col in rca.coaction.cols.items():
        for (a0, j), c in col.items():
            rhit.setdefault((j, a), {})[a0] = c
    for b, col in lcb.coaction.cols.items():
        for (k, b0), c in col.items():
            lhit.setdefault((b, k), {})[b0] = c
    (rhit, drh), (lhit, dlh) = (_lift_rows(field, t) for t in (rhit, lhit))

    x1s = sorted({x1 for x1, _, _ in phi_x})
    y3s = sorted({y3 for _, _, y3 in phi_y})

    # per (b, psi, b'): {k1: {y3: y3 (sum over k2 of (b <| e^k2) b')}},
    # the sum running over the split e^k1 (x) e^k2 of psi; at most
    # dim(B) dim(H) dim(B) entries, over dd * dlh * db * db
    @cache
    def right_for(b, k, b2):
        by_k1: Dict[int, Dict[int, int]] = {}
        for (k1, k2), c2 in dcols.get(k, ()):
            for t, ct in lhit.get((b, k2), ()):
                c = c2 * ct
                for r, cr in bmult.get((t, b2), ()):
                    vec = by_k1.setdefault(k1, {})
                    vec[r] = vec.get(r, 0) + c * cr
        return [(k1, {y3: _times(bmult, vec.items(), y3, left=True)
                      for y3 in y3s})
                for k1, vec in by_k1.items()]

    def evaluator(key1):
        a, j, b = key1
        # per a': {j2: {x1: (sum over j1 of a (e^j1 |> a')) x1}}, the sum
        # running over the split e^j1 (x) e^j2 of phi, over
        # dd * drh * da * da
        @cache
        def left_for(a2):
            by_j2: Dict[int, Dict[int, int]] = {}
            for (j1, j2), c1 in dcols.get(j, ()):
                for t, ct in rhit.get((j1, a2), ()):
                    c = c1 * ct
                    for r, cr in amult.get((a, t), ()):
                        vec = by_j2.setdefault(j2, {})
                        vec[r] = vec.get(r, 0) + c * cr
            return [(j2, {x1: _times(amult, vec.items(), x1) for x1 in x1s})
                    for j2, vec in by_j2.items()]

        def col(key2):
            a2, k, b2 = key2
            rights = right_for(b, k, b2)
            out: Dict[Tuple[int, int, int], int] = {}
            for j2, avecs in left_for(a2):
                for k1, bvecs in rights:
                    for (x1, y3), mvec in core.get((j2, k1), {}).items():
                        avec = avecs.get(x1)
                        if not avec:
                            continue
                        bvec = bvecs.get(y3)
                        if not bvec:
                            continue
                        for ar, ca_ in avec.items():
                            for br, cb_ in bvec.items():
                                cab = ca_ * cb_
                                for m, cm in mvec.items():
                                    key = (ar, m, br)
                                    out[key] = out.get(key, 0) + cab * cm
            return out

        return col

    unit = A.unit_tensor().tensor(dual.eps_functional()).tensor(B.unit_tensor())
    den = dcore * (dd * drh * da * da) * (dd * dlh * db * db)
    return ProductAlgebra(factors, evaluator, den, unit, field,
                          name=rca.name + "><H*><" + lcb.name)


# ----------------------------------------------------------------------
# coincidence of the iterated products with the two-sided crossed product


def _same_table(rep: VerificationReport, tag: str, p1: ProductAlgebra,
                p2: ProductAlgebra) -> None:
    if p1.dim != p2.dim:
        rep.check_bool(tag, False)
        return
    rep.check_same(tag, p1.alg.as_leg(), p2.alg.as_leg())
    rep.check_bool(tag + "-unit",
                   p1.alg.unit_tensor().data == p2.alg.unit_tensor().data)


def verify_crossed_decomposition(H: QuasiBialgebra) -> VerificationReport:
    """For the canonical comodule algebra structures on A = B = H, check
    entry by entry that
      - the generalized smash product (A # H*) >< B (gsm-vs-crossed),
      - the smash product (A # H*) # H (smash-vs-crossed)
    both coincide with the two-sided crossed product A >< H* >< B. With
    B = H coacting by Delta, the generalized smash product is the smash
    product (smash_product builds it so), so the two records compare
    one table, built once; both are kept, as the paper states both
    factorizations."""
    rep = VerificationReport("crossed product decomposition %s" % H.name,
                             {"dim": H.dim, "field": H.field.name})
    rca = canonical_right_comodule(H)
    lcb = canonical_left_comodule(H)
    gsm = generalized_smash(quasi_smash(rca), lcb)
    crossed = two_sided_crossed(rca, lcb)
    _same_table(rep, "gsm-vs-crossed", gsm, crossed)
    _same_table(rep, "smash-vs-crossed", gsm, crossed)
    return rep


# ----------------------------------------------------------------------
# the double of H inside End(H)


def _map_tensor(f: LinearMap) -> Tensor:
    """A linear map, such as an endomorphism of H or a map H -> A, as a
    tensor on its codomain legs and then its domain (image, argument):
    its graph with the argument moved last."""
    return Tensor(f.codomain + (f.domain,), {
        idx + (j,): c for j, col in f.cols.items()
        for idx, c in col.items()}, f.field)


def _family(t: Tensor) -> LinearMap:
    """The family of maps that _map_tensor lays out as t: t's last leg,
    the argument, is the domain."""
    last = len(t.spaces) - 1
    return LinearMap.from_graph(t.permute((last,) + tuple(range(last))))


def _identity(field: Field, *bases: Basis) -> Tensor:
    """e_x (x) e_x summed over the basis vectors e_x of the tensor
    product of bases: the identity of that space as a table on its
    inputs (as_table with len(bases) inputs)."""
    return Tensor(bases * 2, {idx * 2: c for idx, c in
                              _grid(field, *bases).data.items()}, field)


class HeisenbergDouble:
    """The quasi-smash product H (x) H* realized inside End(H).

    mu(h # phi)(h') = sum phi(h'_2 pL2) h h'_1 pL1 is bijective with
    inverse mu^{-1}(u) = sum_i u(qL2 (e_i)_2) S^{-1}(qL1 (e_i)_1) # e^i;
    the transported product on End(H) is

        (u o v)(h) = sum u(v(h e1) e2) e3,
        E = sum e1 (x) e2 (x) e3
          = sum x3 X3_2 (x) S^{-1}(S(x1 X2) alpha x2 X3_1) (x) S^{-1}(X1)

    with Phi^{-1} = x1 (x) x2 (x) x3 and Phi = X1 (x) X2 (x) X3; the
    unit is h |-> h S^{-1}(beta), and the transported left H-action is
    (h . u)(h') = u(h' h_2) S^{-1}(h_1).

    All of it is built once, at construction, as lifted integer tables
    (fields.py), each over one denominator. A map into H is held as its
    lifted columns, k -> ((r, numerator), ...) for the image of e_k.
    - _mu[(i, a)]: mu(e_i # e^a), over _dmu. Its column k is e_i times
      slice a of the core (e_k)_1 pL1 (x) (e_k)_2 pL2: the first legs
      of the core's terms whose second leg is e_a.
    - _inv[i]: the core qL2 (e_i)_2 (x) S^{-1}(qL1 (e_i)_1) as
      ((arg, lft), numerator) pairs, over _dinv.
    - _E: E grouped by (e1, e2), as (e1, ((e2, ((e3, numerator), ...)),
      ...)), over _dE; each S^{-1}(S(x1 X2) alpha x2 X3_1) is formed
      once per (x1, X2, x2, X3_1).
    - _unit: the unit map, over _dunit.
    A product u o v is staged so that the work that depends on v alone
    and the work that depends on u alone are each done once; below, dv,
    du and dd are the denominators of the lifted v, u and Delta(h).
    - _right_stage(v)[k] = W_k: the sum over E of (v(e_k e1) e2)_y at
      (y, e3), over dv _dW.
    - _left_stage(u) = G: G[(y, s)] = u(e_y) e_s, over du _dh.
    - (u o v)(e_k) = sum W_k[key] G[key] (_contract), over
      du dv _dW _dh, lowered once per entry.
    The action stages the same way: _act_stage(Delta(h))[k] = A_k, the
    sum over Delta(h) of (e_k h_2)_y S^{-1}(h_1)_s at (y, s), over
    dd _dA, and (h . u)(e_k) = sum A_k[key] G[key]."""

    def __init__(self, H: QuasiHopfAlgebra):
        self.H = H
        field, n, der = H.field, H.dim, H.derived
        hm, dh = H.algebra.as_leg().lifted()
        S, ds = _lift_map(H.antipode)
        sinv, dsi = _lift_map(H.antipode_inv)
        self._hm, self._sinv = hm, sinv
        # mu on the basis, from the cores Delta(e_k) p_L over one
        # denominator, each grouped by its second leg a
        core, dc = field.lift({
            (k, x, a): c for k in range(n)
            for (x, a), c in H.tmul(H.delta(H.e(k)), der.p_L).data.items()})
        slices: Dict[Tuple[int, int], list] = {}
        for (k, x, a), c in core.items():
            slices.setdefault((k, a), []).append((x, c))
        self._mu: Dict[Tuple[int, int], Dict[int, tuple]] = {
            (i, a): {} for i in range(n) for a in range(n)}
        for (k, a), vec in slices.items():
            for i in range(n):
                col = _pairs(_times(hm, vec, i, left=True))
                if col:
                    self._mu[(i, a)][k] = col
        self._dmu = dc * dh
        # the cores of mu^{-1}, (S^{-1}(qL1 (e_i)_1), qL2 (e_i)_2) per i
        inv, self._dinv = field.lift({
            (i, lft, arg): c for i in range(n)
            for (lft, arg), c in H.tmul(der.q_L, H.delta(H.e(i))).map_leg(
                0, H.antipode_inv).data.items()})
        self._inv = [[] for _ in range(n)]
        for (i, lft, arg), c in inv.items():
            self._inv[i].append(((arg, lft), c))
        # the composition element E
        xinv, dx = field.lift(H.phi_inv.data)
        phid, dX = field.lift(H.phi.map_leg(2, H.comul).data)
        alpha, dal = _lift_vector(H.alpha)

        @cache
        def mid(x1, X2, x2, X31):
            # S^{-1}(S(x1 X2) alpha x2 X3_1), multiplied left to right
            v = _pairs(_mul(hm, _contract(hm.get((x1, X2), ()), S).items(),
                            alpha))
            return _pairs(_contract(_chain(hm, v, (x2, X31)), sinv))

        groups: Dict[int, Dict[int, Dict[int, int]]] = {}
        for (x1, x2, x3), c1 in xinv.items():
            for (X1, X2, X31, X32), c2 in phid.items():
                firsts, thirds = hm.get((x3, X32)), sinv.get(X1)
                if not firsts or not thirds:
                    continue
                seconds = mid(x1, X2, x2, X31)
                for e1, ce1 in firsts:
                    by_e2 = groups.setdefault(e1, {})
                    for e2, ce2 in seconds:
                        vec = by_e2.setdefault(e2, {})
                        c = c1 * c2 * ce1 * ce2
                        for e3, ce3 in thirds:
                            vec[e3] = vec.get(e3, 0) + c * ce3
        self._E = tuple((e1, tuple((e2, _pairs(vec))
                                   for e2, vec in by_e2.items()))
                        for e1, by_e2 in groups.items())
        self._dE = dx * dX * dh ** 5 * ds * dal * dsi * dsi
        # the unit map h |-> h S^{-1}(beta)
        sb, db = _lift_vector(H.Sinv(H.beta))
        self._unit = {}
        for k in range(n):
            col = _pairs(_times(hm, sb, k, left=True))
            if col:
                self._unit[k] = col
        self._dunit = db * dh
        self._dh, self._dW, self._dA = dh, dh * dh * self._dE, dh * dsi

    def _right_stage(self, cols) -> list:
        """W of the map with lifted columns cols: W[k] is the sum over E
        of (v(e_k e1) e2)_y at (y, e3), as ((y, e3), numerator) pairs."""
        hm, out = self._hm, []
        for k in range(self.H.dim):
            acc: Dict[Tuple[int, int], int] = {}
            for e1, rights in self._E:
                z = _pairs(_contract(hm.get((k, e1), ()), cols))
                if not z:
                    continue
                for e2, e3s in rights:
                    for y, cy in _times(hm, z, e2).items():
                        for e3, ce3 in e3s:
                            acc[(y, e3)] = acc.get((y, e3), 0) + cy * ce3
            out.append(_pairs(acc))
        return out

    def _left_stage(self, cols) -> Dict[Tuple[int, int], tuple]:
        """G of the map with lifted columns cols: G[(y, s)] = u(e_y) e_s
        as (index, numerator) pairs."""
        hm, out = self._hm, {}
        for y, col in cols.items():
            for s in range(self.H.dim):
                vec = _pairs(_times(hm, col, s))
                if vec:
                    out[(y, s)] = vec
        return out

    def _act_stage(self, delta) -> list:
        """A of h from the lifted pairs delta of Delta(h): A[k] is the
        sum of (e_k h_2)_y S^{-1}(h_1)_s at (y, s), as pairs."""
        hm, sinv, out = self._hm, self._sinv, []
        for k in range(self.H.dim):
            acc: Dict[Tuple[int, int], int] = {}
            for (h1, h2), c in delta:
                ys, ss = hm.get((k, h2)), sinv.get(h1)
                if not ys or not ss:
                    continue
                for y, cy in ys:
                    for s, cs in ss:
                        acc[(y, s)] = acc.get((y, s), 0) + c * cy * cs
            out.append(_pairs(acc))
        return out

    def _endo(self, cols, den: int) -> LinearMap:
        """The endomorphism with columns cols, dicts of int numerators
        over den, each lowered once."""
        H = self.H
        lower = H.field.lower
        return LinearMap(H.basis, (H.basis,), {
            k: {(r,): c for r, c in lower(col, den).items()}
            for k, col in cols.items()}, H.field)

    def mu(self, t: Tensor) -> LinearMap:
        """Transport an element of H (x) H* to an endomorphism of H, and
        a family of them, on P (x) H (x) H*, to the family H -> P (x) H."""
        H = self.H
        if t.spaces[-2:] != (H.basis, H.dual.basis):
            raise ValueError("expected an element of H (x) H*")
        num, dt = H.field.lift(t.data)
        cols: Dict[int, Dict[tuple, int]] = {}
        for idx, c in num.items():
            for k, col in self._mu[idx[-2:]].items():
                acc = cols.setdefault(k, {})
                for r, cr in col:
                    key = idx[:-2] + (r,)
                    acc[key] = acc.get(key, 0) + c * cr
        return LinearMap(H.basis, t.spaces[:-2] + (H.basis,), {
            k: H.field.lower(col, dt * self._dmu)
            for k, col in cols.items()}, H.field)

    def mu_inv(self, u: LinearMap) -> Tensor:
        """mu^{-1} of an endomorphism of H, and of a family of them,
        H -> P (x) H, the family on P (x) H (x) H*."""
        H, hm = self.H, self._hm
        U, du = _lift_rows(H.field, u.cols)
        acc: Dict[tuple, int] = {}
        for i, core in enumerate(self._inv):
            for (arg, lft), c in core:
                for idx, cs in U.get(arg, ()):
                    for r, cr in hm.get((idx[-1], lft), ()):
                        key = idx[:-1] + (r, i)
                        acc[key] = acc.get(key, 0) + c * cs * cr
        return Tensor(u.codomain[:-1] + (H.basis, H.dual.basis),
                      H.field.lower(acc, du * self._dinv * self._dh),
                      H.field)

    def unit(self) -> LinearMap:
        return self._endo({k: dict(col) for k, col in self._unit.items()},
                          self._dunit)

    def act(self, h: Tensor, u: LinearMap) -> LinearMap:
        delta, dd = self.H.field.lift(self.H.delta(h).data)
        U, du = _lift_map(u)
        G = self._left_stage(U)
        return self._endo(dict(enumerate(
            _contract(w, G) for w in self._act_stage(delta.items()))),
            dd * du * self._dA * self._dh)


def verify_heisenberg_double(H: QuasiHopfAlgebra) -> VerificationReport:
    """mu is a bijection H (x) H* -> End(H); it carries the quasi-smash
    product, its unit and its left H-action to the transported
    structures on End(H). The last three checks compare whole tables
    (check_same), formed from the lifted tables of HeisenbergDouble: the
    stages W and G of each mu(e_i # e^a) and of the unit, and A of each
    e_h, are formed once."""
    rep = VerificationReport("double of %s in End(H)" % H.name,
                             {"dim": H.dim, "field": H.field.name})
    dual, field, n = H.dual, H.field, H.dim
    hd = HeisenbergDouble(H)
    qs = quasi_smash(canonical_right_comodule(H))

    # mu^{-1} o mu on every e_i # e^a, inputs (i, a), against the
    # identity of H (x) H*, and mu o mu^{-1} on every e_l -> e_k, inputs
    # (k, l), against that of End(H), each applied to the family
    elements = _identity(field, H.basis, dual.basis)
    endos = _identity(field, H.basis, H.basis)
    rep.check_same("mu-inv-left", as_table(hd.mu_inv(hd.mu(elements)), 2),
                   as_table(elements, 2))
    rep.check_same("mu-inv-right", as_table(_map_tensor(hd.mu(hd.mu_inv(
        _family(endos)))), 2), as_table(endos, 2))

    # the sides as tables on the inputs, keyed inputs + (image, argument)
    # as _map_tensor lays out an endomorphism
    flat, keys = qs.prod.flat, qs.prod.keys
    mus, dmu = hd._mu, hd._dmu
    W = {ia: hd._right_stage(cols) for ia, cols in mus.items()}
    G = {ia: hd._left_stage(cols) for ia, cols in mus.items()}
    spaces = (H.basis, H.basis)

    def add_mu(acc, inputs, vec):
        # sum of c mu(e_f) over the (flat index f, c) pairs of vec
        for f, c in vec:
            for k, col in mus[keys[f]].items():
                for r, cr in col:
                    key = inputs + (r, k)
                    acc[key] = acc.get(key, 0) + c * cr

    def add_staged(acc, inputs, stages, g):
        for k, w in enumerate(stages):
            for r, c in _contract(w, g).items():
                key = inputs + (r, k)
                acc[key] = acc.get(key, 0) + c

    prod, dprod = qs.algebra.as_leg().lifted()
    rep.check_same("mu-multiplicative", _side(
        (n,) * 4, spaces, field, dprod * dmu,
        lambda acc, i, a, j, b: add_mu(
            acc, (i, a, j, b), prod.get((flat[i, a], flat[j, b]), ()))),
        _side((n,) * 4, spaces, field, dmu * dmu * hd._dW * hd._dh,
              lambda acc, i, a, j, b: add_staged(
                  acc, (i, a, j, b), W[(j, b)], G[(i, a)])))

    rep.check_same("mu-unit", _map_tensor(hd.mu(qs.parts(qs.unit()))),
                   _map_tensor(hd.unit()))

    act, dact = qs.action.lifted()
    dcols, dd = _lift_rows(field, H.comul.cols)
    A = [hd._act_stage(dcols.get(h, ())) for h in range(n)]
    rep.check_same("mu-equivariant", _side(
        (n,) * 3, spaces, field, dact * dmu,
        lambda acc, h, i, a: add_mu(acc, (h, i, a),
                                    act.get((h, flat[i, a]), ()))),
        _side((n,) * 3, spaces, field, dd * hd._dA * dmu * hd._dh,
              lambda acc, h, i, a: add_staged(acc, (h, i, a), A[h],
                                              G[(i, a)])))

    # unit o mu(e_i # e^a) + mu(e_i # e^a) o unit against twice mu
    W1, G1 = hd._right_stage(hd._unit), hd._left_stage(hd._unit)

    def both_sides(acc, i, a):
        add_staged(acc, (i, a), W[(i, a)], G1)
        add_staged(acc, (i, a), W1, G[(i, a)])

    rep.check_same("unit-laws", _side(
        (n, n), spaces, field, hd._dunit * dmu * hd._dW * hd._dh,
        both_sides),
        _side((n, n), spaces, field, dmu, lambda acc, i, a: add_mu(
            acc, (i, a), ((flat[i, a], 2),))))
    return rep


# ----------------------------------------------------------------------
# the quasi-smash product inside Hom(H, A)


class HomSmash:
    """The quasi-smash product A (x) H* realized inside Hom(H, A) through
    nu(a # phi)(h) = phi(h) a, with the transported product

        (v * w)(h) = sum v(w(x3 h_2)_(1) x2 h_1) w(x3 h_2)_(0) x1,

    unit h |-> eps(h) 1_A, and left H-action (h . v)(h') = v(h' h).

    A family of maps H -> A, one for each basis input, is one LinearMap
    H -> P (x) A, its inputs on the legs P; so is a family of elements
    of A (x) H*, as a tensor on P (x) A (x) H*. nu, nu_inv and act take
    families, a single map or element being one with no input legs."""

    def __init__(self, ca: RightComoduleAlgebra):
        self.ca = ca
        self.H = ca.H

    def nu(self, t: Tensor) -> LinearMap:
        ca = self.ca
        if t.spaces[-2:] != (ca.basis, self.H.dual.basis):
            raise ValueError("expected an element of A (x) H*")
        cols: Dict[int, Dict[Tuple[int, ...], object]] = {}
        for idx, c in t.data.items():
            cols.setdefault(idx[-1], {})[idx[:-1]] = c
        return LinearMap(self.H.basis, t.spaces[:-1], cols, ca.field)

    def nu_inv(self, w: LinearMap) -> Tensor:
        """sum_i w(e_i) (x) e^i."""
        return Tensor(w.codomain + (self.H.dual.basis,), {
            idx + (i,): c for i, col in w.cols.items()
            for idx, c in col.items()}, w.field)

    def star_table(self) -> Tensor:
        """v * w for every pair of basis maps v = nu(e_a # e^p) and
        w = nu(e_b # e^q), as one tensor on A (x) H (x) A (x) H (x) A (x) H:
        at (a, p, b, q, i, k), the coefficient of e_i in (v * w)(e_k).
        As w sends g to e^q(g) e_b, and v likewise, the argument of each
        is written to the leg of its input: one sum over the graphs of
        Delta and rho, Phi_rho^{-1} and every e_a, of
        e_a (x) w1 x2 k_1 (x) e_b (x) x3 k_2 (x) e_a w0 x1 (x) e_k with
        w0 (x) w1 = rho(e_b)."""
        H, ca = self.H, self.ca
        ones = Tensor((ca.basis,), {(a,): ca.field.one()
                                    for a in range(ca.dim)}, ca.field)
        # legs: 0 k, 1 k_1, 2 k_2, 3 x1, 4 x2, 5 x3, 6 b, 7 w0, 8 w1, 9 a
        source = H.comul.graph().tensor(ca.phi_rho_inv).tensor(
            ca.coaction.graph()).tensor(ones)
        m = H.leg()
        return sweedler(source, (9, (m, 8, 4, 1), 6, (m, 5, 2),
                                 (ca.algebra.as_leg(), 9, 7, 3), 0))

    def unit(self) -> LinearMap:
        """The graph of eps tensored with 1_A."""
        return LinearMap.from_graph(
            self.H.counit.graph().tensor(self.ca.unit()))

    def act(self, h: Tensor, v: LinearMap) -> LinearMap:
        """h . v: v composed with right multiplication by h. For a
        family h on Q (x) H, and v on H -> P (x) A, the family
        H -> Q (x) P (x) A."""
        H = self.H
        q = len(h.spaces) - 1
        right = LinearMap.from_graph(sweedler(
            LinearMap.identity(H.basis, H.field).graph().tensor(h),
            (0,) + tuple(range(2, 2 + q)) + ((H.leg(), 1, 2 + q),)))
        return v.compose(right, q)


def verify_hom_smash(ca: RightComoduleAlgebra) -> VerificationReport:
    """nu is a bijection A (x) H* -> Hom(H, A) carrying the quasi-smash
    product, its unit and its left H-action to the transported
    structures on Hom(H, A). Each check compares two tables on every
    basis input at once, Hom(H, A) laid out by _map_tensor: nu and the
    transported structures are applied to the families of all basis
    elements, of all pairs of them and of the action on them."""
    H = ca.H
    field = H.field
    rep = VerificationReport("quasi-smash of %s inside Hom(H, A)" % ca.name,
                             {"dim": ca.dim, "field": field.name})
    dual = H.dual
    hs = HomSmash(ca)
    qs = quasi_smash(ca)
    factors, keys = qs.prod.factors, qs.prod.keys

    # every e_a # e^p, inputs (a, p), and every map e_k -> e_i, inputs
    # (i, k), each as its family
    elements = _identity(field, ca.basis, dual.basis)
    maps = _identity(field, ca.basis, H.basis)
    rep.check_same("nu-inv-left", as_table(hs.nu_inv(hs.nu(elements)), 2),
                   as_table(elements, 2))
    rep.check_same("nu-inv-right", as_table(_map_tensor(hs.nu(hs.nu_inv(
        _family(maps)))), 2), as_table(maps, 2))

    prods = Tensor(factors * 3, {
        keys[f] + keys[g] + keys[k]: c
        for (f, g), vec in qs.algebra.mult.items() for k, c in vec.items()},
        field)
    rep.check_same("nu-multiplicative", as_table(_map_tensor(hs.nu(prods)), 4),
                   as_table(hs.star_table(), 4))

    rep.check_same("nu-unit", _map_tensor(hs.nu(qs.parts(qs.unit()))),
                   _map_tensor(hs.unit()))

    acted = Tensor((H.basis,) + factors * 2, {
        (h,) + keys[f] + keys[k]: c
        for (h, f), vec in qs.action.table.items() for k, c in vec.items()},
        field)
    rep.check_same("nu-equivariant", as_table(_map_tensor(hs.nu(acted)), 3),
                   as_table(_map_tensor(hs.act(LinearMap.identity(
                       H.basis, field).graph(), hs.nu(elements))), 3))
    return rep
