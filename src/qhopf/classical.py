"""Independent classical Hopf-algebra oracle.

Every function here recomputes a classical (trivial-reassociator)
construction directly from raw structure-constant dictionaries, using
textbook Hopf-algebra formulas and no code from the quasi machinery:
no sparse tensors, no leg contractions, no assembled sums. The verifier
at the bottom compares these tables field by field against the generic
quasi constructions on seeds whose reassociator is trivial; agreement
is the anti-self-confirmation check for the whole library.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .report import VerificationReport
from .tensor import LinearMap, Tensor

Vec = Dict[int, object]
Mat = Dict[int, Vec]
Mult = Dict[Tuple[int, int], Vec]


class NotApplicableError(ValueError):
    """The input is valid, but the requested suite does not apply to it:
    the classical oracle needs a trivial reassociator and alpha = beta =
    1, and the verify suites and derive need antipode data."""


class ClassicalHopf:
    """A finite-dimensional Hopf algebra given purely by structure
    constants: multiplication, unit, comultiplication, counit and the
    antipode with its inverse, all as plain dictionaries."""

    def __init__(self, dim: int, field, mult: Mult, unit: Vec,
                 comul: Dict[int, Dict[Tuple[int, int], object]],
                 counit: Vec, s: Mat, sinv: Mat, name: str = ""):
        self.dim = dim
        self.field = field
        self.mult = mult
        self.unit = unit
        self.comul = comul
        self.counit = counit
        self.s = s
        self.sinv = sinv
        self.name = name

    # -- vector helpers ------------------------------------------------

    def zero(self) -> Vec:
        return {}

    def _add_into(self, acc: Vec, k: int, c) -> None:
        s = acc.get(k, self.field.zero()) + c
        if s:
            acc[k] = s
        elif k in acc:
            del acc[k]

    def mul_vec(self, x: Vec, y: Vec) -> Vec:
        acc: Vec = {}
        for i, ci in x.items():
            for j, cj in y.items():
                col = self.mult.get((i, j))
                if not col:
                    continue
                c = ci * cj
                for k, ck in col.items():
                    self._add_into(acc, k, c * ck)
        return acc

    def apply(self, table: Mat, x: Vec) -> Vec:
        acc: Vec = {}
        for i, ci in x.items():
            for k, ck in table.get(i, {}).items():
                self._add_into(acc, k, ci * ck)
        return acc

    # -- functional (dual) operations -----------------------------------

    def conv(self, phi: Vec, psi: Vec) -> Vec:
        """Convolution of functionals: (phi psi)(k) = sum phi(k_1) psi(k_2)."""
        acc: Vec = {}
        for k, col in self.comul.items():
            total = self.field.zero()
            for (u, v), c in col.items():
                cu = phi.get(u)
                if not cu:
                    continue
                cv = psi.get(v)
                if cv:
                    total = total + c * cu * cv
            if total:
                acc[k] = total
        return acc

    def eps_functional(self) -> Vec:
        return dict(self.counit)

    def hit_l(self, h: Vec, phi: Vec) -> Vec:
        """(h -> phi)(k) = phi(k h)."""
        acc: Vec = {}
        for k in range(self.dim):
            total = self.field.zero()
            for j, cj in h.items():
                for p, cp in self.mult.get((k, j), {}).items():
                    cphi = phi.get(p)
                    if cphi:
                        total = total + cj * cp * cphi
            if total:
                acc[k] = total
        return acc

    def hit_r(self, phi: Vec, h: Vec) -> Vec:
        """(phi <- h)(k) = phi(h k)."""
        acc: Vec = {}
        for k in range(self.dim):
            total = self.field.zero()
            for j, cj in h.items():
                for p, cp in self.mult.get((j, k), {}).items():
                    cphi = phi.get(p)
                    if cphi:
                        total = total + cj * cp * cphi
            if total:
                acc[k] = total
        return acc

    def pair(self, phi: Vec, x: Vec):
        total = self.field.zero()
        for k, c in x.items():
            cphi = phi.get(k)
            if cphi:
                total = total + c * cphi
        return total


def from_structure_constants(H) -> ClassicalHopf:
    """Extract the raw structure constants of a quasi-Hopf algebra with
    trivial reassociator (data plumbing only; no computation). Any other
    input raises NotApplicableError."""
    field = H.field
    one = field.one()
    if H.phi != H.unit_pow(3):
        raise NotApplicableError(
            "the classical oracle needs a trivial reassociator")
    if H.alpha != H.unit() or H.beta != H.unit():
        raise NotApplicableError("the classical oracle needs alpha = beta = 1")
    mult = {k: dict(v) for k, v in H.algebra.mult.items()}
    unit = {i: c for (i,), c in H.algebra.unit.data.items()}
    comul = {i: {k: c for k, c in col.items()}
             for i, col in H.comul.cols.items()}
    counit = {i: col.get((), field.zero())
              for i, col in H.counit.cols.items() if col.get(())}
    s = {i: {j: c for (j,), c in H.S(
        Tensor.basis_vector(H.basis, i, field)).data.items()}
        for i in range(H.dim)}
    sinv = {i: {j: c for (j,), c in H.Sinv(
        Tensor.basis_vector(H.basis, i, field)).data.items()}
        for i in range(H.dim)}
    del one
    return ClassicalHopf(H.dim, field, mult, unit, comul, counit, s, sinv,
                         name=H.name)


# ----------------------------------------------------------------------
# classical product tables


def smash_table(ch: ClassicalHopf, adim: int, amult: Mult,
                act: Dict[Tuple[int, int], Vec]) -> Dict[Tuple[int, int], Vec]:
    """The classical smash product A # H of a left H-module algebra:

        (a # h)(a' # h') = sum a (h_1 . a') # h_2 h'

    returned as a flat table over indices a * dim(H) + h."""
    nH = ch.dim
    table: Dict[Tuple[int, int], Vec] = {}
    for a in range(adim):
        for h in range(nH):
            for a2 in range(adim):
                for h2 in range(nH):
                    acc: Vec = {}
                    for (h1, hh), c0 in ch.comul.get(h, {}).items():
                        hvec = ch.mult.get((hh, h2), {})
                        for at, cat in act.get((h1, a2), {}).items():
                            for aa, caa in amult.get((a, at), {}).items():
                                for hk, chk in hvec.items():
                                    key = aa * nH + hk
                                    ch._add_into(acc, key,
                                                 c0 * cat * caa * chk)
                    if acc:
                        table[(a * nH + h, a2 * nH + h2)] = acc
    return table


def dual_smash_table(ch: ClassicalHopf, adim: int, amult: Mult,
                     coact: Dict[int, Dict[Tuple[int, int], object]]
                     ) -> Dict[Tuple[int, int], Vec]:
    """The classical smash product A # H* of a right H-comodule algebra
    with the dual algebra:

        (a # phi)(a' # psi) = sum a a'_<0> # (phi <- a'_<1>) psi

    returned as a flat table over indices a * dim(H) + p (p indexes the
    dual basis)."""
    nH = ch.dim
    table: Dict[Tuple[int, int], Vec] = {}
    for a in range(adim):
        for p in range(nH):
            phi = {p: ch.field.one()}
            for a2 in range(adim):
                pre: Dict[Tuple[int, int], Vec] = {}
                for (a0, ar), c0 in coact.get(a2, {}).items():
                    hitphi = ch.hit_r(phi, {ar: c0})
                    for aa, caa in amult.get((a, a0), {}).items():
                        cur = pre.setdefault((aa,), {})
                        # merge the functional weighted by caa
                        for k, c in hitphi.items():
                            ch._add_into(cur, k, caa * c)
                        pre[(aa,)] = cur
                for q in range(nH):
                    psi = {q: ch.field.one()}
                    acc: Vec = {}
                    for (aa,), func in pre.items():
                        conv = ch.conv(func, psi)
                        for k, c in conv.items():
                            ch._add_into(acc, aa * nH + k, c)
                    if acc:
                        table[(a * nH + p, a2 * nH + q)] = acc
    return table


def dual_smash_action(ch: ClassicalHopf, adim: int
                      ) -> Dict[Tuple[int, int], Vec]:
    """The classical left H-action on A # H*: h . (a # phi) = a # (h -> phi),
    as a table over (h, flat index)."""
    nH = ch.dim
    table: Dict[Tuple[int, int], Vec] = {}
    for h in range(nH):
        for p in range(nH):
            func = ch.hit_l({h: ch.field.one()}, {p: ch.field.one()})
            if not func:
                continue
            for a in range(adim):
                table[(h, a * nH + p)] = {a * nH + k: c
                                          for k, c in func.items()}
    return table


def two_sided_table(ch: ClassicalHopf, adim: int, amult: Mult,
                    rcoact: Dict[int, Dict[Tuple[int, int], object]],
                    bdim: int, bmult: Mult,
                    lcoact: Dict[int, Dict[Tuple[int, int], object]]
                    ) -> Dict[Tuple[int, int], Vec]:
    """The classical two-sided smash product A >< H* >< B:

        (a (x) phi (x) b)(a' (x) psi (x) b')
            = sum a a'_<0> (x) (phi <- a'_<1>)(b_[-1] -> psi) (x) b_[0] b'

    over flat indices (a * dim(H) + p) * dim(B) + b."""
    nH = ch.dim
    one = ch.field.one()
    table: Dict[Tuple[int, int], Vec] = {}
    for a in range(adim):
        for p in range(nH):
            phi = {p: one}
            for b in range(bdim):
                for a2 in range(adim):
                    for q in range(nH):
                        psi = {q: one}
                        for b2 in range(bdim):
                            acc: Vec = {}
                            for (a0, ar), c0 in rcoact.get(a2, {}).items():
                                f1 = ch.hit_r(phi, {ar: c0})
                                if not f1:
                                    continue
                                for (bl, b0), c1 in lcoact.get(b, {}).items():
                                    f2 = ch.hit_l({bl: c1}, psi)
                                    func = ch.conv(f1, f2)
                                    if not func:
                                        continue
                                    for aa, caa in amult.get((a, a0),
                                                             {}).items():
                                        for bb, cbb in bmult.get((b0, b2),
                                                                 {}).items():
                                            for k, c in func.items():
                                                key = (aa * nH + k) * bdim + bb
                                                ch._add_into(
                                                    acc, key, caa * cbb * c)
                            if acc:
                                table[((a * nH + p) * bdim + b,
                                       (a2 * nH + q) * bdim + b2)] = acc
    return table


def dual_gsm_table(ch: ClassicalHopf, bdim: int, bmult: Mult,
                   lcoact: Dict[int, Dict[Tuple[int, int], object]]
                   ) -> Dict[Tuple[int, int], Vec]:
    """The classical generalized smash product H* >< B of the dual
    algebra with a left H-comodule algebra:

        (phi (x) b)(psi (x) b') = sum phi (b_[-1] -> psi) (x) b_[0] b'

    over flat indices p * dim(B) + b."""
    nH = ch.dim
    one = ch.field.one()
    table: Dict[Tuple[int, int], Vec] = {}
    for p in range(nH):
        phi = {p: one}
        for b in range(bdim):
            for q in range(nH):
                psi = {q: one}
                for b2 in range(bdim):
                    acc: Vec = {}
                    for (bl, b0), c0 in lcoact.get(b, {}).items():
                        func = ch.conv(phi, ch.hit_l({bl: c0}, psi))
                        if not func:
                            continue
                        for bb, cbb in bmult.get((b0, b2), {}).items():
                            for k, c in func.items():
                                ch._add_into(acc, k * bdim + bb, cbb * c)
                    if acc:
                        table[(p * bdim + b, q * bdim + b2)] = acc
    return table


def relative_action(ch: ClassicalHopf,
                    acoact: Dict[int, Dict[Tuple[int, int], object]],
                    lact: Dict[Tuple[int, int], Vec],
                    ract: Dict[Tuple[int, int], Vec],
                    mcoact: Dict[int, Dict[Tuple[int, int], object]]):
    """The classical right action of (A # H*) # H on a two-sided Hopf
    module M:

        m <- ((a # phi) # h)
            = sum phi(S^{-1}(m_(1) a_<1>)) (S(h) . m_(0)) . a_<0>

    returned as a callable taking (m, flat index) with flat layout
    (a * dim(H) + p) * dim(H) + h."""
    nH = ch.dim
    field = ch.field

    def act(m: int, g: int) -> Vec:
        u, h = divmod(g, nH)
        a, p = divmod(u, nH)
        phi = {p: field.one()}
        sh = ch.apply(ch.s, {h: field.one()})
        acc: Vec = {}
        for (m0, m1), c0 in mcoact.get(m, {}).items():
            for (a0, a1), c1 in acoact.get(a, {}).items():
                scal = ch.pair(phi, ch.apply(
                    ch.sinv, ch.mul_vec({m1: field.one()},
                                        {a1: field.one()})))
                if not scal:
                    continue
                c = c0 * c1 * scal
                for hm, chm in sh.items():
                    for mt, cmt in lact.get((hm, m0), {}).items():
                        for mf, cmf in ract.get((mt, a0), {}).items():
                            s = acc.get(mf, field.zero()) + c * chm * cmt * cmf
                            if s:
                                acc[mf] = s
                            elif mf in acc:
                                del acc[mf]
        return acc

    return act


def doi_structures(ch: ClassicalHopf, bdim: int,
                   table: Dict[Tuple[int, int], Vec]):
    """Classical Doi-Hopf structures on a right module over H* >< B
    given by its (regular) multiplication table: the B-action through
    eps (x) b and the coaction rho(n) = sum_i c_i (x) n (c^i (x) 1_B),
    with C = H and c^i the dual basis."""
    nH = ch.dim
    field = ch.field
    dim = nH * bdim
    eps = ch.eps_functional()
    one_b = ch.unit

    def ract(m: int, b: int) -> Vec:
        acc: Vec = {}
        for p, cp in eps.items():
            for t, ct in table.get((m, p * bdim + b), {}).items():
                ch._add_into(acc, t, cp * ct)
        return acc

    def coact(m: int) -> Dict[Tuple[int, int], object]:
        acc: Dict[Tuple[int, int], object] = {}
        for i in range(nH):
            for b, cb in one_b.items():
                for t, ct in table.get((m, i * bdim + b), {}).items():
                    k = (i, t)
                    s = acc.get(k, field.zero()) + cb * ct
                    if s:
                        acc[k] = s
                    elif k in acc:
                        del acc[k]
        return acc

    def reconstruct(m: int, g: int) -> Vec:
        u, b = divmod(g, bdim)
        acc: Vec = {}
        for (cm, m0), c in coact(m).items():
            if cm != u:
                continue
            for t, ct in ract(m0, b).items():
                ch._add_into(acc, t, c * ct)
        return acc

    del dim
    return ract, coact, reconstruct


# ----------------------------------------------------------------------
# agreement with the quasi machinery


def verify_classical_agreement(H) -> VerificationReport:
    """Compare the classical oracle tables field by field against the
    generic quasi constructions on a seed with trivial reassociator."""
    from .algebra import LegMul, _clean_table
    from .coact import (canonical_left_comodule, canonical_module_coalgebra,
                        canonical_right_comodule)
    from .doihopf import doi_from_algebra_module, dual_module_algebra
    from .hopfmod import canonical_first_module, smash_action_from_two_sided
    from .products import (generalized_smash, quasi_smash, smash_product,
                           two_sided_crossed)

    rep = VerificationReport("classical oracle agreement %s" % H.name,
                             {"dim": H.dim, "field": H.field.name})
    ch = from_structure_constants(H)
    field = H.field
    nH = H.dim

    ca = canonical_right_comodule(H)
    lcb = canonical_left_comodule(H)
    rcoact = {a: dict(col) for a, col in ca.coaction.cols.items()}
    lcoact = {b: dict(col) for b, col in lcb.coaction.cols.items()}

    def same(tag, got, table):
        # the oracle's table, on the bases of the LegMul it is checked
        # against
        rep.check_same(tag, got, LegMul(got.left, got.right, got.out,
                                        _clean_table(table), field))

    def tabulate(got, fn):
        return {(i, j): fn(i, j) for i in range(got.left.dim)
                for j in range(got.right.dim)}

    # A # H* (quasi-smash degenerates to the classical dual smash)
    qs = quasi_smash(ca)
    cl_dual = dual_smash_table(ch, nH, ch.mult, rcoact)
    same("dual-smash", qs.prod.alg.as_leg(), cl_dual)
    cl_act = dual_smash_action(ch, nH)
    same("dual-smash-action", qs.action, cl_act)

    # (A # H*) # H against the classical smash of the classical table
    sm = smash_product(qs)
    amult = {k: dict(v) for k, v in cl_dual.items()}
    same("smash", sm.alg.as_leg(), smash_table(ch, qs.dim, amult, cl_act))

    # A >< H* >< B
    tsc = two_sided_crossed(ca, lcb)
    same("two-sided", tsc.alg.as_leg(),
         two_sided_table(ch, nH, ch.mult, rcoact, nH, ch.mult, lcoact))

    # C* >< B with C = B = H
    mc = canonical_module_coalgebra(H)
    cstar = dual_module_algebra(mc)
    gsm = generalized_smash(cstar, lcb)
    cl_gsm = dual_gsm_table(ch, nH, ch.mult, lcoact)
    same("dual-gsm", gsm.alg.as_leg(), cl_gsm)

    # Doi-Hopf structures on the regular H* >< B module
    N = doi_from_algebra_module(gsm, lcb, mc, gsm.alg.as_leg())
    cl_ract, cl_coact, cl_recon = doi_structures(ch, nH, cl_gsm)
    same("doi-action", N.r_action, tabulate(N.r_action, cl_ract))
    rep.check_same("doi-coaction", N.coaction, LinearMap(
        N.basis, N.coaction.codomain,
        {m: cl_coact(m) for m in range(N.dim)}, field))
    same("doi-reconstruction", gsm.alg.as_leg(),
         tabulate(gsm.alg.as_leg(), cl_recon))

    # the relative action on the canonical two-sided module
    M = canonical_first_module(ca)
    q_act = smash_action_from_two_sided(M, qs, sm)
    lact = {k: dict(v) for k, v in M.left_action.table.items()}
    ract = {k: dict(v) for k, v in M.right_action.table.items()}
    mcoact = {m: dict(col) for m, col in M.coaction.cols.items()}
    cl_rel = relative_action(ch, rcoact, lact, ract, mcoact)
    same("relative-action", q_act, tabulate(q_act, cl_rel))
    return rep
