"""Reference builders, copied unchanged from before the change they
check, with H.assemble(...) written assemble(...).

The per-input comparisons and builders the package dropped when every
identity became two tables compared by VerificationReport.check_same:
first_difference, check_equal and check_quantified (VerificationReport's
methods as they were, here functions of the report), legmul_from_function
and map_from_function (LegMul.from_function and LinearMap.from_function)
and _both in its tensor form. The references below call them; the
_ref_* scans of tests/test_tables.py and the Heisenberg reference of
tests/test_products.py do too.

Per-input hom-smash: products.HomSmash and verify_hom_smash (here
SweedlerHomSmash and verify_hom_smash) as they were before the suite
compared tables on every basis input at once, and transport_module as
it was before each action became one sweedler sum over graphs.
tests/test_products.py checks the package against them, on mutants.

Row-major index arithmetic: FlatSpace (tensor.py) and smash_index
(hopfmod.py) as they were before every flat index of the package came
to be read from a ProductAlgebra's keys or written by flat_pairing, and
invert_in_tensor_algebra (algebra.py) as it was then. The references
index through them, ProductAlgebra's split and join written as a
FlatSpace of its factors; tests/test_products.py and
tests/test_staged_kernels.py use them as a second form of the
flattening rule, and tests/test_algebra.py checks the package's
invert_in_tensor_algebra against the copy.

The per-term sum they share: assemble, the body of
QuasiBialgebra.assemble as it was before the package dropped the method
(every Sweedler sum there is one algebra.sweedler). It adds each
builder result, scaled by the source coefficient, into the first one
and raises on a zero source. tests/test_quasihopf.py checks it.

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

Per-term Sweedler sums: the 52 H.assemble builders of quasihopf.py and
coact.py as they were before each became one algebra.sweedler sum over
lifted tables: DerivedElements with sw_sop, p_right and q_right; the
Sweedler sums and the per-input scans (qr1-a, qr1-b, ql1-a, ql1-b, u1,
v1, tpqr1, tpqr1a) of verify_core_identities, verify_tilde_identities
and mbia2 (here _ref_core_identities, _ref_tilde_identities and
_ref_mbia2, which write their records into a given report and read the
derived elements, p~ and q~ built here). tests/test_sweedler_sums.py
checks the package against them.

Per-column assemble builders: canonical_second_module and
module_isomorphism (hopfmod.py), crossed_comodule_algebra and
nested_smash_direct (doihopf.py), HomSmash.star (products.py, here the
star of a SweedlerHomSmash subclass, HomSmash) and
QuasiBialgebra.tensor_with (here a
function of self and other), as they were before each of their sums
became one algebra.sweedler over graphs of structure maps, two terms
written into one flattened leg by algebra.flat_pairing. The coaction
of canonical_first_module, K of relative_from_two_sided, U1 . u # U2 of
relative_from_smash_module, X of two_sided_from_smash_module and
stage_one of crossed_smash_direct made the same move; their references
above keep the assemble sums. tests/test_flat_sums.py checks the
package against them.

Hand-indexed two-sided hits: _two_sided_hits (algebra.py) and its
regroupings, the H-action loop of QuasiSmash (here
quasi_smash_hit_action) and the action and reassociator of mbia1 in
check_dual_bimodule_algebra (here mbia1_tables), as they were before
each of their tables became one algebra.sweedler over graphs, the flat
index of u (x) v written by algebra.flat_pairing. DualView.hits is the
one table of H's two-sided hits now. tests/test_lifted_builders.py
checks the package against them.

Per-column elimination: solve_linear (linalg.py) as it was before it
read its answer off one RowSpan, a second Gaussian elimination with its
own pivot bookkeeping, and invert_matrix_map (linalg.py) and
invert_linear_map (algebra.py) as they were before a map was inverted
in one elimination of [M | I]: one solve_linear per column of the
inverse. invert_in_tensor_algebra above solves through this copy.
tests/test_linalg.py checks the package against them.

Seeded cyclic modules: RowSpan (linalg.py) and cyclic_right_submodule
(hopfmod.py) as they were before coordinates read a vector's entries
at the pivots and returned them sparse, and before the table was
written in the pass that closes the span: one closure loop and then a
second pass over the final rows for the table, coordinates as a dense
list over every pivot. tests/test_hopfmod.py and tests/test_linalg.py
check the package against them.
"""

from __future__ import annotations

import itertools
import random
import time
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from qhopf.algebra import (FinAlgebra, LegMul, _clean_table, _lowered,
                          _times, _transpose, mul_legs, sandwich, sweedler,
                          tensor_unit)
from qhopf.coact import (BicomoduleAlgebra, LeftComoduleAlgebra,
                         LeftModuleAlgebra, RightComoduleAlgebra,
                         RightModuleCoalgebra)
from qhopf.doihopf import (BimoduleCoalgebra, CrossedHopfModule,
                           DoiHopfModule)
from qhopf.hopfmod import (RelativeHopfModule, TwoSidedHopfModule,
                           smash_action_from_two_sided)
from qhopf.fields import Field, QQ
from qhopf.linalg import vec_sub_scaled
from qhopf.products import ProductAlgebra, QuasiSmash, quasi_smash
from qhopf.quasihopf import DualView, QuasiBialgebra, QuasiHopfAlgebra
from qhopf.report import CheckRecord, VerificationReport, scalar_str
from qhopf.tensor import Basis, LinearMap, Tensor, product_basis


class FlatSpace:
    """A tensor product of factor bases flattened row-major into one
    basis (product_basis), with the index maps between the two forms.
    The package's tensor.FlatSpace before flat indices came to be read
    from a ProductAlgebra's keys or written by flat_pairing: the
    row-major arithmetic the references below index through."""

    def __init__(self, factors, field: Field = QQ):
        self.factors = tuple(factors)
        self.dims = tuple(b.dim for b in self.factors)
        self.basis = product_basis(*self.factors)
        self.field = field

    @property
    def dim(self) -> int:
        return self.basis.dim

    def split(self, i: int) -> tuple:
        out = []
        for d in reversed(self.dims):
            out.append(i % d)
            i //= d
        return tuple(reversed(out))

    def join(self, idx) -> int:
        f = 0
        for i, d in zip(idx, self.dims):
            f = f * d + i
        return f

    def pack(self, t: Tensor) -> Tensor:
        """Flatten the first len(factors) legs of t into one leg."""
        k = len(self.factors)
        if t.spaces[:k] != self.factors:
            raise ValueError("leading legs do not match the factors")
        return Tensor((self.basis,) + t.spaces[k:],
                      {(self.join(idx[:k]),) + idx[k:]: c
                       for idx, c in t.data.items()}, self.field)

    def unpack(self, t: Tensor) -> Tensor:
        """Split leg 0 back into the factors."""
        if t.spaces[0] != self.basis:
            raise ValueError("leg 0 is not the flattened basis")
        return Tensor(self.factors + t.spaces[1:],
                      {self.split(idx[0]) + idx[1:]: c
                       for idx, c in t.data.items()}, self.field)


def smash_index(qs: QuasiSmash, sm: ProductAlgebra) -> FlatSpace:
    """The basis of sm = (A # H*) # H read as the row-major product of A,
    H* and H: split(g) is the (a, p, h) of the g-th basis vector
    (a # e^p) # e_h, and join inverts it."""
    return FlatSpace(qs.algebra.factors + sm.factors[1:], sm.field)


def invert_in_tensor_algebra(algebras: Sequence[FinAlgebra], x: Tensor) -> Optional[Tensor]:
    """Two-sided inverse of x in the tensor product algebra, or None.

    Solves the left-multiplication system exactly, then verifies both
    x * y = 1 and y * x = 1 before returning y.
    """
    legs = tuple(algebras)
    field = x.field
    flat = FlatSpace(tuple(a.basis for a in algebras), field)
    spaces, total = flat.factors, flat.dim
    unit = tensor_unit(algebras)
    # rows of the system:  sum_b M[a, b] y_b = unit_a, M[:, b] = x * e_b
    rows = [dict() for _ in range(total)]
    for b in range(total):
        eb = Tensor(spaces, {flat.split(b): field.one()}, field)
        col = mul_legs(legs, x, eb)
        for idx, c in col.data.items():
            rows[flat.join(idx)][b] = c
    rhs = [unit.data.get(flat.split(a), field.zero()) for a in range(total)]
    try:
        sol = solve_linear(rows, rhs, field)
    except ArithmeticError:
        return None
    if sol is None:
        return None
    y = Tensor(spaces, {flat.split(b): c for b, c in sol.items()}, field)
    if mul_legs(legs, x, y) != unit or mul_legs(legs, y, x) != unit:
        return None
    return y


def assemble(source: Tensor, builder: Callable[..., Tensor]) -> Tensor:
    """Sum builder(*indices) over the terms of source, weighted by the
    term coefficients, one term at a time: the per-term Sweedler sum of
    the references below, the body of QuasiBialgebra.assemble before the
    package dropped it for algebra.sweedler. Each term is added into the
    first one, which scale made fresh, so no builder's tensor is
    changed."""
    out = None
    for idx, c in source.data.items():
        t = builder(*idx).scale(c)
        if out is None:
            out = t
        else:
            out.accumulate(t)
    if out is None:
        raise ValueError("assembling from a zero source")
    return out


# ----------------------------------------------------------------------
# the per-input comparisons and builders of the package before every
# identity became two tables (VerificationReport.check_same) and every
# table a sum over graphs: first_difference, VerificationReport's
# check_equal and check_quantified (here functions of the report),
# LegMul.from_function and LinearMap.from_function (here
# legmul_from_function and map_from_function), and the tensor form of
# quasihopf._both


def first_difference(lhs: Tensor, rhs: Tensor) -> Optional[dict]:
    """First multi-index (lex order) where two tensors differ."""
    if lhs == rhs:
        return None
    keys = sorted(set(lhs.data) | set(rhs.data))
    for idx in keys:
        a = lhs.coeff(idx)
        b = rhs.coeff(idx)
        if a != b:
            return {
                "index": list(idx),
                "lhs": scalar_str(lhs.field, a),
                "rhs": scalar_str(rhs.field, b),
            }
    return None


def check_equal(rep: VerificationReport, tag: str, lhs: Tensor,
                rhs: Tensor) -> CheckRecord:
    t0 = time.perf_counter()
    diff = first_difference(lhs, rhs)
    rec = CheckRecord(tag, diff is None, diff)
    rec.seconds = time.perf_counter() - t0
    return rep.add(rec)


def check_quantified(rep: VerificationReport, tag: str, inputs_iter,
                     pair_fn) -> CheckRecord:
    """Check pair_fn(inputs) -> (lhs, rhs) over all quantified inputs,
    recording the first counterexample in iteration order."""
    t0 = time.perf_counter()
    for inputs in inputs_iter:
        lhs, rhs = pair_fn(*inputs)
        diff = first_difference(lhs, rhs)
        if diff is not None:
            diff["inputs"] = list(inputs)
            rec = CheckRecord(tag, False, diff, time.perf_counter() - t0)
            return rep.add(rec)
    return rep.add(CheckRecord(tag, True, None, time.perf_counter() - t0))


def legmul_from_function(left, right, out, fn, field: Field = QQ) -> LegMul:
    table = {}
    for i in range(left.dim):
        for j in range(right.dim):
            t = fn(i, j)
            table[(i, j)] = {k[0]: c for k, c in t.data.items()}
    return LegMul(left, right, out, _clean_table(table), field)


def map_from_function(domain: Basis, codomain, fn,
                      field: Field = QQ) -> LinearMap:
    """Build from a function sending a domain index to a Tensor."""
    cols = {}
    for i in range(domain.dim):
        t = fn(i)
        cols[i] = dict(t.data)
    return LinearMap(domain, codomain, cols, field)


_WHICH = Basis(("first", "second"), "which")


def _both(x: Tensor, y: Tensor, x2: Tensor, y2: Tensor):
    """The two sides of the identities x = x2 and y = y2 joined:
    x (x) y and x2 (x) y2, or where those agree, which they also do for
    x = c x2 and y = y2 / c, the direct sums of x, y and of x2, y2 on a
    leading leg that says which identity a coefficient belongs to."""
    if x.tensor(y) != x2.tensor(y2):
        return x.tensor(y), x2.tensor(y2)
    return tuple(Tensor((_WHICH,) + a.spaces, {
        (w,) + idx: c for w, t in enumerate((a, b))
        for idx, c in t.data.items()}, a.field) for a, b in ((x, y), (x2, y2)))


def canonical_first_module(ca: RightComoduleAlgebra) -> TwoSidedHopfModule:
    """The two-sided Hopf module on A (x) H:
    h (a (x) h') = a (x) h h';  (a (x) h) a' = sum a a'_(0) (x) h a'_(1);
    rho(a (x) h) = sum a X1 (x) h_1 X2 (x) h_2 X3 with X = Phi_rho."""
    H, A = ca.H, ca.algebra
    field = H.field
    flat = FlatSpace((A.basis, H.basis), field)
    nA, nH = A.dim, H.dim
    hmult, amult = H.algebra.table, A.table

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
            t = assemble(src, lambda X1, X2, X3, k1, k2:
                         A.mul(A.e(a), A.e(X1)).tensor(
                             H.mul(H.e(k1), H.e(X2))).tensor(
                                 H.mul(H.e(k2), H.e(X3))))
            cols[flat.join((a, k))] = dict(flat.pack(t).data)
    coaction = LinearMap(flat.basis, (flat.basis, H.basis), cols, field)
    return TwoSidedHopfModule(ca, flat.basis, left_action, right_action,
                              coaction, name=ca.name + "(x)H")


def _forward_action(M: TwoSidedHopfModule, F: Tensor, leads,
                    right: Basis, join=None) -> LegMul:
    """The table of the right action shared by both forward functors:

        m (a # e^p) [h] = sum e^p(S^{-1}(F2 m_(1) a_(1) p~2))
                              (lead m_(0))(a_(0) p~1),   lead = leads[h][F1],

    stored at (m, join(a, p, h)). The sum is staged: S^{-1}(F2 m_(1)
    a_(1) p~2) is formed once per (F2, m_(1), a_(1), p~2) and e^p reads
    its p-th coordinate; (lead m_(0))(a_(0) p~1) is formed once per
    (h, F1, m_(0), a_(0), p~1); and one pass over the terms fills the
    entries of every p for a given (m, a, h).

    Without join, (a, p, h) is stored at its row-major index over A, H*
    and the leads, where hopfmod._forward_action, which takes no join,
    stores it; so this copy stands in for it under either signature."""
    ca, H = M.ca, M.H
    if join is None:
        flat = FlatSpace((ca.basis, H.dual.basis, Basis(tuple(
            "h%d" % h for h in range(len(leads))))), M.field)

        def join(a, p, h):
            return flat.join((a, p, h))
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
            v = M.ract(M.lact(leads[h][f1], M.e(m0)), A.mul(A.e(a0), A.e(p1)))
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
    flat = FlatSpace(gsm.factors, field)
    table = {}
    for m in range(N.dim):
        col = N.coaction.cols.get(m, {})
        for g in range(gsm.dim):
            u, b = flat.split(g)
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
    hmult = H.algebra.table
    amult = A.table
    nest = smash_index(qs, sm)
    flat = FlatSpace(final.factors, field)

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
    dconv_t = H.dual.conv.table

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
        return assemble(src, lambda X11, X12, X1b, X2, X3, f1, f2,
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
        s, g = flat.split(i)
        t, g2 = flat.split(j)
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
                        k = flat.join((cw, nest.join((av, fw, tw))))
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
    K = assemble(der.U.tensor(der.f), lambda u1, u2, f1, f2: H.mul(
        H.S(H.e(u2)), H.e(f1)).tensor(H.mul(H.S(H.e(u1)), H.e(f2))))

    h_action = legmul_from_function(
        H.basis, M.basis, M.basis,
        lambda i, m: M.lact(H.S(H.S(H.e(i))), M.e(m)), field)
    prod = FlatSpace(qs.algebra.factors, field)
    r_action = _forward_action(
        M, K, [{k1: H.e(k1) for k1 in range(H.dim)}], qs.basis,
        lambda a, p, h: prod.join((a, p)))
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

    left = legmul_from_function(
        H.basis, N.basis, N.basis,
        lambda i, m: N.lact(H.Sinv(H.Sinv(H.e(i))), N.e(m)), field)
    right = legmul_from_function(
        N.basis, ca.basis, N.basis,
        lambda m, a: N.ract(N.e(m), qs.element(ca.e(a), eps)), field)

    vg_terms = list(VG.data.items())
    qt_terms = list(qt.data.items())
    sinv = {t: H.Sinv(H.e(t)) for t in range(H.dim)}
    # q~1 # (S^{-1}(V1 g1) -> (e^i o S) <- q~2), or None when the
    # functional is zero, once per (i, term)
    elems = {}
    for i in range(H.dim):
        e_i_s = precompose(dual, dual.e(i), H.antipode)
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

    coaction = map_from_function(N.basis, (N.basis, H.basis),
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
    h_action = legmul_from_function(
        H.basis, basis, basis,
        lambda i, m: _act_on(action, m, sm.flatten(
            qs.unit().tensor(H.S(H.e(i))))),
        field)

    u_elems = {}
    for u in range(qs.dim):
        u_elems[u] = assemble(H.derived.U, lambda u1, u2: sm.flatten(
            qs.act(H.e(u1), qs.e(u)).tensor(H.e(u2))))
    r_action = legmul_from_function(
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

    left = legmul_from_function(
        H.basis, basis, basis,
        lambda i, m: _act_on(action, m, sm.flatten(
            qs.element(ca.unit(), eps).tensor(H.Sinv(H.e(i))))), field)
    right = legmul_from_function(
        basis, ca.basis, basis,
        lambda m, a: _act_on(action, m, sm.flatten(
            qs.element(ca.e(a), eps).tensor(H.unit()))), field)

    coact_elems = {}
    for i in range(H.dim):
        e_i_s = precompose(dual, dual.e(i), H.antipode)
        src = der.f_inv.tensor(qt)
        coact_elems[i] = assemble(src, lambda g1, g2, q1, q2: sm.flatten(
            qs.element(ca.e(q1), dual.hit_r(
                dual.hit_l(H.Sinv(H.e(g2)), e_i_s), H.e(q2))).tensor(
                    H.Sinv(H.e(g1)))))

    def coact_col(m):
        acc = Tensor.zero((basis, H.basis), field)
        for i in range(H.dim):
            acc = acc + _act_on(action, m, coact_elems[i]).tensor(H.e(i))
        return acc

    coaction = map_from_function(basis, (basis, H.basis), coact_col,
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
    flat = FlatSpace(gsm.factors, field)
    # unit of C* as a sparse vector over the dual basis
    eps_vec = {}
    for w in range(mc.dim):
        c = mc.counit.cols.get(w, {}).get(())
        if c:
            eps_vec[w] = c

    r_action = legmul_from_function(
        basis, cb.basis, basis,
        lambda m, b: _act_on(action, m, Tensor.from_sparse(
            gsm.basis, {flat.join((u, b)): c for u, c in eps_vec.items()},
            field)),
        field)

    one_b = {b: c for (b,), c in cb.unit().data.items()}

    def coact_col(m):
        acc = Tensor.zero((mc.basis, basis), field)
        for i in range(mc.dim):
            vec = _act_on(action, m, Tensor.from_sparse(
                gsm.basis, {flat.join((i, b)): c for b, c in one_b.items()},
                field))
            acc = acc + mc.e(i).tensor(vec)
        return acc

    coaction = map_from_function(basis, (mc.basis, basis), coact_col,
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
        return assemble(src, lambda f1, f2, cm, m0: C.lact(
            H.e(f1), C.e(cm)).tensor(M.ts.lact(H.e(f2), M.e(m0))))

    coaction = map_from_function(M.basis, (C.basis, M.basis),
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
        return assemble(src, lambda g1, g2, cm, m0: C.lact(
            H.e(g1), C.e(cm)).tensor(ts.lact(H.e(g2), ts.e(m0))))

    c_coaction = map_from_function(N.basis, (C.basis, N.basis),
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
    for (i, j), vec in H.algebra.table.items():
        for k, c in vec.items():
            comul_cols.setdefault(k, {})[(i, j)] = c
    return mult, LinearMap(dual.basis, (dual.basis, dual.basis),
                           comul_cols, field)


def quasi_smash_action(qs: QuasiSmash) -> Dict:
    """The table of the left H-action of QuasiSmash, built as its
    constructor built it, with one hit_l product per (i, p)."""
    H, ca = qs.H, qs.ca
    dual = H.dual
    prod = FlatSpace(qs.algebra.factors, H.field)
    table = {}
    for i in range(H.dim):
        for p in range(H.dim):
            hit = dual.hit_l(H.e(i), dual.e(p))
            for (pp,), c in hit.data.items():
                for a in range(ca.dim):
                    f = prod.join((a, p))
                    table.setdefault((i, f), {})[prod.join((a, pp))] = c
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
    return assemble(source, builders[which])


def dual_mbia1(dual: DualView) -> VerificationReport:
    """mbia1 of check_dual_bimodule_algebra as it was before it became
    quasi_associative over H (x) H^op: per input, one convolution chain
    of hits for every pair of a term of Phi and a term of Phi^{-1}."""
    H = dual.H
    rep = VerificationReport("dual bimodule algebra %s" % H.name,
                             {"dim": H.dim, "field": H.field.name})
    n = H.dim

    def mbia1(a, b, c):
        phi, psi, xi = dual.e(a), dual.e(b), dual.e(c)
        lhs = dual.conv.mulc(dual.conv.mulc(phi, psi), xi)
        rhs = None
        for (X1, X2, X3), c1 in H.phi.data.items():
            for (x1, x2, x3), c2 in H.phi_inv.data.items():
                t1 = dual.hit_r(dual.hit_l(H.e(X1), phi), H.e(x1))
                t2 = dual.hit_r(dual.hit_l(H.e(X2), psi), H.e(x2))
                t3 = dual.hit_r(dual.hit_l(H.e(X3), xi), H.e(x3))
                term = dual.conv.mulc(t1, dual.conv.mulc(t2, t3)).scale(
                    c1 * c2)
                rhs = term if rhs is None else rhs + term
        return lhs, rhs

    check_quantified(
        rep, "mbia1",
        ((a, b, c) for a in range(n) for b in range(n) for c in range(n)),
        mbia1)
    return rep


# ----------------------------------------------------------------------
# per-term Sweedler sums


def sw_sop(H: QuasiHopfAlgebra, x: Tensor) -> Tensor:
    """(S (x) S)(Delta^op(x)) of a one-leg tensor."""
    return H.delta(x).permute((1, 0)).map_leg(0, H.antipode).map_leg(1, H.antipode)


def p_right(H: QuasiHopfAlgebra, x_inv: Tensor) -> Tensor:
    """sum x1 (x) x2 beta S(x3) in A (x) H, from x_inv = sum x1 (x) x2
    (x) x3 in A (x) H (x) H: p_R from Phi^{-1} (A = H), and p~ of a right
    comodule algebra from Phi_rho^{-1}."""
    A = x_inv.spaces[0]
    return assemble(x_inv, lambda x1, x2, x3: Tensor.basis_vector(
        A, x1, H.field).tensor(H.mul(H.e(x2), H.beta, H.S(H.e(x3)))))


def q_right(H: QuasiHopfAlgebra, X: Tensor) -> Tensor:
    """sum X1 (x) S^{-1}(alpha X3) X2 in A (x) H, from X = sum X1 (x) X2
    (x) X3 in A (x) H (x) H: q_R from Phi (A = H), and q~ of a right
    comodule algebra from Phi_rho."""
    A = X.spaces[0]
    return assemble(X, lambda X1, X2, X3: Tensor.basis_vector(
        A, X1, H.field).tensor(H.mul(H.Sinv(H.mul(H.alpha, H.e(X3))),
                                   H.e(X2))))


def _element(build):
    """A derived element: build(H, der) on its first read, then kept."""
    return cached_property(lambda der: build(der.H, der))


class DerivedElements:
    """The canonical elements built from a quasi-Hopf algebra: the
    antipode twist f (with gamma, delta), p_R, q_R, p_L, q_L and the
    auxiliary elements U and V. H.derived holds the instance that every
    construction over H shares. Each element is built on its first read,
    from H and the elements it needs, and kept."""

    def __init__(self, H: QuasiHopfAlgebra):
        self.H = H

    # gamma = sum S(A2) alpha A3 (x) S(A1) alpha A4
    # with A = (Phi (x) 1)(Delta (x) id (x) id)(Phi^{-1})
    gamma = _element(lambda H, der: assemble(
        H.tmul(H.phi.tensor(H.unit()), H.phi_inv.map_leg(0, H.comul)),
        lambda a1, a2, a3, a4: H.mul(
            H.S(H.e(a2)), H.alpha, H.e(a3)).tensor(H.mul(
                H.S(H.e(a1)), H.alpha, H.e(a4)))))
    # delta = sum B1 beta S(B4) (x) B2 beta S(B3)
    # with B = (Delta (x) id (x) id)(Phi)(Phi^{-1} (x) 1)
    delta = _element(lambda H, der: assemble(
        H.tmul(H.phi.map_leg(0, H.comul), H.phi_inv.tensor(H.unit())),
        lambda b1, b2, b3, b4: H.mul(
            H.e(b1), H.beta, H.S(H.e(b4))).tensor(H.mul(
                H.e(b2), H.beta, H.S(H.e(b3))))))

    # f = sum (S(x)S)(Delta^op(x1)) gamma Delta(x2 beta S(x3))
    f = _element(lambda H, der: assemble(
        H.phi_inv, lambda x1, x2, x3: H.tmulc(
            sw_sop(H, H.e(x1)), der.gamma,
            H.delta(H.mul(H.e(x2), H.beta, H.S(H.e(x3)))))))
    # f^{-1} = sum Delta(S(x1) alpha x2) delta (S(x)S)(Delta^op(x3))
    f_inv = _element(lambda H, der: assemble(
        H.phi_inv, lambda x1, x2, x3: H.tmulc(
            H.delta(H.mul(H.S(H.e(x1)), H.alpha, H.e(x2))),
            der.delta, sw_sop(H, H.e(x3)))))

    # p_R = sum x1 (x) x2 beta S(x3),  q_R = sum X1 (x) S^{-1}(alpha X3) X2
    p_R = _element(lambda H, der: p_right(H, H.phi_inv))
    q_R = _element(lambda H, der: q_right(H, H.phi))
    # p_L = sum X2 S^{-1}(X1 beta) (x) X3, q_L = sum S(x1) alpha x2 (x) x3
    p_L = _element(lambda H, der: assemble(
        H.phi, lambda X1, X2, X3: H.mul(
            H.e(X2), H.Sinv(H.mul(H.e(X1), H.beta))).tensor(H.e(X3))))
    q_L = _element(lambda H, der: assemble(
        H.phi_inv, lambda x1, x2, x3: H.mul(
            H.S(H.e(x1)), H.alpha, H.e(x2)).tensor(H.e(x3))))

    # U = sum g1 S(q_R 2) (x) g2 S(q_R 1)
    U = _element(lambda H, der: assemble(
        der.f_inv.tensor(der.q_R), lambda g1, g2, q1, q2: H.mul(
            H.e(g1), H.S(H.e(q2))).tensor(H.mul(H.e(g2), H.S(H.e(q1))))))
    # V = sum S^{-1}(f2 p_R 2) (x) S^{-1}(f1 p_R 1)
    V = _element(lambda H, der: assemble(
        der.f.tensor(der.p_R), lambda f1, f2, p1, p2: H.Sinv(
            H.mul(H.e(f2), H.e(p2))).tensor(H.Sinv(H.mul(H.e(f1), H.e(p1))))))


def _ref_core_identities(H: QuasiHopfAlgebra, rep) -> None:
    """verify_core_identities as it was, writing its records into rep,
    on the derived elements above."""
    der = DerivedElements(H)
    n = H.dim
    one = H.unit()
    one2 = H.unit_pow(2)
    f, f_inv = der.f, der.f_inv
    p_R, q_R, p_L, q_L = der.p_R, der.q_R, der.p_L, der.q_L
    U, V = der.U, der.V

    check_equal(rep, "f-inv", H.tmul(f, f_inv) + H.tmul(f_inv, f), one2 + one2)

    # (ca): f Delta(S(h)) f^{-1} = (S (x) S)(Delta^op(h))
    delta_op = LinearMap(H.basis, (H.basis,) * 2, {
        i: {(b, a): c for (a, b), c in col.items()}
        for i, col in H.comul.cols.items()}, H.field)
    sop = H.antipode.compose(H.antipode.compose(delta_op), 1)
    rep.check_same("ca", sandwich(H.comul.compose(H.antipode), f,
                                  (H.leg(),) * 2, f_inv, (H.leg(),) * 2), sop)

    # (gdf): f Delta(alpha) = gamma,  Delta(beta) f^{-1} = delta
    check_equal(rep, "gdf-a", H.tmul(f, H.delta(H.alpha)), der.gamma)
    check_equal(rep, "gdf-b", H.tmul(H.delta(H.beta), f_inv), der.delta)

    # (pf): Phi_f = (S (x) S (x) S)(X3 (x) X2 (x) X1)
    phi_f = H.tmulc(one.tensor(f), f.map_leg(1, H.comul), H.phi,
                    f_inv.map_leg(0, H.comul), f_inv.tensor(one))
    pf_rhs = H.phi.permute((2, 1, 0))
    for leg in range(3):
        pf_rhs = pf_rhs.map_leg(leg, H.antipode)
    check_equal(rep, "pf", phi_f, pf_rhs)

    # (qr1): Delta(h1) p_R [1 (x) S(h2)] = p_R [h (x) 1]
    #        [1 (x) S^{-1}(h2)] q_R Delta(h1) = (h (x) 1) q_R
    check_quantified(rep, "qr1-a", ((i,) for i in range(n)), lambda i: (
        assemble(H.delta(H.e(i)), lambda a, b: H.tmulc(
            H.delta(H.e(a)), p_R, one.tensor(H.S(H.e(b))))),
        H.tmul(p_R, H.e(i).tensor(one))))
    check_quantified(rep, "qr1-b", ((i,) for i in range(n)), lambda i: (
        assemble(H.delta(H.e(i)), lambda a, b: H.tmulc(
            one.tensor(H.Sinv(H.e(b))), q_R, H.delta(H.e(a)))),
        H.tmul(H.e(i).tensor(one), q_R)))

    # (ql1): Delta(h2) p_L [S^{-1}(h1) (x) 1] = p_L (1 (x) h)
    #        [S(h1) (x) 1] q_L Delta(h2) = (1 (x) h) q_L
    check_quantified(rep, "ql1-a", ((i,) for i in range(n)), lambda i: (
        assemble(H.delta(H.e(i)), lambda a, b: H.tmulc(
            H.delta(H.e(b)), p_L, H.Sinv(H.e(a)).tensor(one))),
        H.tmul(p_L, one.tensor(H.e(i)))))
    check_quantified(rep, "ql1-b", ((i,) for i in range(n)), lambda i: (
        assemble(H.delta(H.e(i)), lambda a, b: H.tmulc(
            H.S(H.e(a)).tensor(one), q_L, H.delta(H.e(b)))),
        H.tmul(one.tensor(H.e(i)), q_L)))

    # (pqr): Delta(q_R1) p_R [1 (x) S(q_R2)] = 1 (x) 1
    #        [1 (x) S^{-1}(p_R2)] q_R Delta(p_R1) = 1 (x) 1
    check_equal(rep, "pqr-a", assemble(q_R, lambda a, b: H.tmulc(
        H.delta(H.e(a)), p_R, one.tensor(H.S(H.e(b))))), one2)
    check_equal(rep, "pqr-b", assemble(p_R, lambda a, b: H.tmulc(
        one.tensor(H.Sinv(H.e(b))), q_R, H.delta(H.e(a)))), one2)

    # (pql): [S(p_L1) (x) 1] q_L Delta(p_L2) = 1 (x) 1
    #        Delta(q_L2) p_L [S^{-1}(q_L1) (x) 1] = 1 (x) 1
    check_equal(rep, "pql-a", assemble(p_L, lambda a, b: H.tmulc(
        H.S(H.e(a)).tensor(one), q_L, H.delta(H.e(b)))), one2)
    check_equal(rep, "pql-b", assemble(q_L, lambda a, b: H.tmulc(
        H.delta(H.e(b)), p_L, H.Sinv(H.e(a)).tensor(one))), one2)

    # (qr2): (q_R (x) 1)(Delta (x) id)(q_R) Phi^{-1}
    #   = [1 (x) S^{-1}(X3) (x) S^{-1}(X2)][1 (x) S^{-1}(f2) (x) S^{-1}(f1)]
    #     (id (x) Delta)(q_R Delta(X1))
    lhs = H.tmulc(q_R.tensor(one), q_R.map_leg(0, H.comul), H.phi_inv)
    rhs = assemble(H.phi.tensor(f), lambda X1, X2, X3, f1, f2: H.tmulc(
        one.tensor(H.Sinv(H.e(X3))).tensor(H.Sinv(H.e(X2))),
        one.tensor(H.Sinv(H.e(f2))).tensor(H.Sinv(H.e(f1))),
        H.tmul(q_R, H.delta(H.e(X1))).map_leg(1, H.comul)))
    check_equal(rep, "qr2", lhs, rhs)

    # (pr1): Phi (Delta (x) id)(p_R)(p_R (x) 1)
    #   = (id (x) Delta)(Delta(x1) p_R)(1 (x) f^{-1})(1 (x) S(x3) (x) S(x2))
    lhs = H.tmulc(H.phi, p_R.map_leg(0, H.comul), p_R.tensor(one))
    rhs = assemble(H.phi_inv, lambda x1, x2, x3: H.tmulc(
        H.tmul(H.delta(H.e(x1)), p_R).map_leg(1, H.comul),
        one.tensor(f_inv),
        one.tensor(H.S(H.e(x3))).tensor(H.S(H.e(x2)))))
    check_equal(rep, "pr1", lhs, rhs)

    # (lq): sum S(x1) q_L1 x2_1 (x) q_L2 x2_2 (x) x3
    #     = sum q_L1 X1 (x) (q_L2)_1 X2 (x) (q_L2)_2 X3
    lhs = assemble(H.phi_inv.map_leg(1, H.comul),
                   lambda x1, x21, x22, x3: assemble(q_L, lambda a, b: H.mul(
                       H.S(H.e(x1)), H.e(a), H.e(x21)).tensor(
                       H.mul(H.e(b), H.e(x22))).tensor(H.e(x3))))
    rhs = H.tmul(q_L.map_leg(1, H.comul), H.phi)
    check_equal(rep, "lq", lhs, rhs)

    # (u1): U[1 (x) S(h)] = Delta(S(h1)) U (h2 (x) 1)
    check_quantified(rep, "u1", ((i,) for i in range(n)), lambda i: (
        H.tmul(U, one.tensor(H.S(H.e(i)))),
        assemble(H.delta(H.e(i)), lambda a, b: H.tmulc(
            H.delta(H.S(H.e(a))), U, H.e(b).tensor(one)))))

    # (u2): Phi^{-1} (id (x) Delta)(U)(1 (x) U)
    #     = (Delta (x) id)(Delta(S(X1)) U)(X2 (x) X3 (x) 1)
    lhs = H.tmulc(H.phi_inv, U.map_leg(1, H.comul), one.tensor(U))
    rhs = assemble(H.phi, lambda X1, X2, X3: H.tmul(
        H.tmul(H.delta(H.S(H.e(X1))), U).map_leg(0, H.comul),
        H.e(X2).tensor(H.e(X3)).tensor(one)))
    check_equal(rep, "u2", lhs, rhs)

    # (v1): [1 (x) S^{-1}(h)] V = (h2 (x) 1) V Delta(S^{-1}(h1))
    check_quantified(rep, "v1", ((i,) for i in range(n)), lambda i: (
        H.tmul(one.tensor(H.Sinv(H.e(i))), V),
        assemble(H.delta(H.e(i)), lambda a, b: H.tmulc(
            H.e(b).tensor(one), V, H.delta(H.Sinv(H.e(a)))))))

    # (v2): (Delta (x) id)(V) Phi^{-1}
    #     = (X2 (x) X3 (x) 1)(1 (x) V)(id (x) Delta)(V Delta(S^{-1}(X1)))
    lhs = H.tmul(V.map_leg(0, H.comul), H.phi_inv)
    rhs = assemble(H.phi, lambda X1, X2, X3: H.tmulc(
        H.e(X2).tensor(H.e(X3)).tensor(one),
        one.tensor(V),
        H.tmul(V, H.delta(H.Sinv(H.e(X1)))).map_leg(1, H.comul)))
    check_equal(rep, "v2", lhs, rhs)

    # auxiliary scalar-type identities used in the round-trip proofs
    check_equal(rep, "fpre-a", assemble(f_inv, lambda g1, g2: H.mul(
        H.e(g1), H.S(H.mul(H.e(g2), H.alpha)))), H.beta)
    check_equal(rep, "fpre-b", assemble(f, lambda f1, f2: H.mul(
        H.Sinv(H.e(f2)), H.beta, H.e(f1))), H.Sinv(H.alpha))
    # (fpre-c): Drinfeld's f1 beta S(f2) = S(alpha) under S^{-1}, an
    # anti-algebra map: S^{-1}(S(f2)) S^{-1}(f1 beta) = f2 S^{-1}(f1 beta)
    # on the left, S^{-1}(S(alpha)) = alpha on the right
    check_equal(rep, "fpre-c", assemble(f, lambda f1, f2: H.mul(
        H.e(f2), H.Sinv(H.mul(H.e(f1), H.beta)))), H.alpha)
    check_equal(rep, "fpre-d", assemble(f_inv, lambda g1, g2: H.mul(
        H.S(H.e(g1)), H.alpha, H.e(g2))), H.S(H.beta))

    # (f3): sum g2_2 U2 (x) g1 S(g2_1 U1) = sum p_L2 (x) S(p_L1)
    lhs = assemble(f_inv.map_leg(1, H.comul).tensor(U),
                   lambda g1, g21, g22, u1, u2: H.mul(
                       H.e(g22), H.e(u2)).tensor(H.mul(
                           H.e(g1), H.S(H.mul(H.e(g21), H.e(u1))))))
    rhs = assemble(p_L, lambda a, b: H.e(b).tensor(H.S(H.e(a))))
    check_equal(rep, "f3", lhs, rhs)

    # (f4): sum S(p_L2) f1 F1_1 (x) S^{-1}(F2) S(p_L1) f2 F1_2 = q_R
    lhs = assemble(p_L.tensor(f).tensor(f.map_leg(0, H.comul)),
                   lambda p1, p2, f1, f2, F11, F12, F2: H.mul(
                       H.S(H.e(p2)), H.e(f1), H.e(F11)).tensor(H.mul(
                           H.Sinv(H.e(F2)), H.S(H.e(p1)), H.e(f2), H.e(F12))))
    check_equal(rep, "f4", lhs, q_R)

    # (f5): sum S(g2_2 U2) f1 F1_1 (p_R1)_1 (x)
    #           S^{-1}(F2 p_R2) g1 S(g2_1 U1) f2 F1_2 (p_R1)_2 = 1 (x) 1
    # Assembled from precombined pieces (same sum by linearity):
    # A = sum S(g2_2 U2) (x) g1 S(g2_1 U1), and
    # Z = (Delta (x) S^{-1})(f p_R) so Z = sum (F1 p_R1)_1 (x) (F1 p_R1)_2
    # (x) S^{-1}(F2 p_R2), using that Delta is an algebra map.
    A5 = assemble(f_inv.map_leg(1, H.comul).tensor(U),
                  lambda g1, g21, g22, u1, u2: H.S(H.mul(
                      H.e(g22), H.e(u2))).tensor(H.mul(
                          H.e(g1), H.S(H.mul(H.e(g21), H.e(u1))))))
    Z5 = H.tmul(f, p_R).map_leg(0, H.comul).map_leg(2, H.antipode_inv)
    lhs = assemble(A5.tensor(f).tensor(Z5),
                   lambda a1, a2, f1, f2, z1, z2, z3: H.mul(
                       H.e(a1), H.e(f1), H.e(z1)).tensor(H.mul(
                           H.e(z3), H.e(a2), H.e(f2), H.e(z2))))
    check_equal(rep, "f5", lhs, one2)

    # (f6): sum F1 f1_1 p_R1 (x) f2 S^{-1}(F2 f1_2 p_R2) = sum S(q_L2) (x) q_L1
    lhs = assemble(f.tensor(f.map_leg(0, H.comul)).tensor(p_R),
                   lambda F1, F2, f11, f12, f2, p1, p2: H.mul(
                       H.e(F1), H.e(f11), H.e(p1)).tensor(H.mul(
                           H.e(f2), H.Sinv(H.mul(H.e(F2), H.e(f12), H.e(p2))))))
    rhs = assemble(q_L, lambda a, b: H.S(H.e(b)).tensor(H.e(a)))
    check_equal(rep, "f6", lhs, rhs)

    # (f7): sum S(G1) q_L1 G2_1 g1 (x) q_L2 G2_2 g2 = sum S(p_R2) (x) S(p_R1)
    lhs = assemble(f_inv.map_leg(1, H.comul).tensor(q_L).tensor(f_inv),
                   lambda G1, G21, G22, a, b, g1, g2: H.mul(
                       H.S(H.e(G1)), H.e(a), H.e(G21), H.e(g1)).tensor(H.mul(
                           H.e(b), H.e(G22), H.e(g2))))
    rhs = assemble(p_R, lambda a, b: H.S(H.e(b)).tensor(H.S(H.e(a))))
    check_equal(rep, "f7", lhs, rhs)

    # (f8): sum S^{-1}(F1 f1_1 p_R1) U2_2 g2 (x)
    #           S(U1) f2 S^{-1}(F2 f1_2 p_R2) U2_1 g1 = 1 (x) 1
    # Precombined: P = sum S^{-1}(F1 f1_1 p_R1) (x) S^{-1}(F2 f1_2 p_R2)
    # (x) f2 built leg-wise in H^3, and
    # Q = sum U2_2 g2 (x) S(U1) (x) U2_1 g1.
    P8 = H.tmulc(f.tensor(one), f.map_leg(0, H.comul), p_R.tensor(one))
    P8 = P8.map_leg(0, H.antipode_inv).map_leg(1, H.antipode_inv)
    Q8 = assemble(U.map_leg(1, H.comul).tensor(f_inv),
                  lambda u1, u21, u22, g1, g2: H.mul(
                      H.e(u22), H.e(g2)).tensor(H.S(H.e(u1))).tensor(H.mul(
                          H.e(u21), H.e(g1))))
    lhs = assemble(P8.tensor(Q8),
                   lambda w1, w2, w3, q1, q2, q3: H.mul(
                       H.e(w1), H.e(q1)).tensor(H.mul(
                           H.e(q2), H.e(w3), H.e(w2), H.e(q3))))
    check_equal(rep, "f8", lhs, one2)


def _ref_mbia2(dual: DualView, rep) -> None:
    """mbia2 of check_dual_bimodule_algebra as it was, one H.assemble
    per Sweedler sum and input, writing its record into rep."""
    H = dual.H
    n = H.dim

    def mbia2(i, a, b):
        h, phi, psi = H.e(i), dual.e(a), dual.e(b)
        d = H.delta(h)
        lhs1 = dual.hit_l(h, dual.conv.mulc(phi, psi))
        lhs2 = dual.hit_r(dual.conv.mulc(phi, psi), h)
        if not d.data:
            # Delta(h) = 0: both Sweedler sums are empty, so zero
            zero = Tensor.zero((dual.basis,), H.field)
            return _both(lhs1, lhs2, zero, zero)
        rhs1 = assemble(d, lambda h1, h2: dual.conv.mulc(
            dual.hit_l(H.e(h1), phi), dual.hit_l(H.e(h2), psi)))
        rhs2 = assemble(d, lambda h1, h2: dual.conv.mulc(
            dual.hit_r(phi, H.e(h1)), dual.hit_r(psi, H.e(h2))))
        return _both(lhs1, lhs2, rhs1, rhs2)

    check_quantified(
        rep, "mbia2",
        ((i, a, b) for i in range(n) for a in range(n) for b in range(n)),
        mbia2)


def _ref_tilde_identities(ca: RightComoduleAlgebra, rep) -> None:
    """verify_tilde_identities as it was, writing its records into rep,
    on the derived elements and the p~ and q~ formulas above."""
    H = ca.H
    der = DerivedElements(H)
    n = ca.dim
    one = H.unit()
    one_a = ca.unit()
    pt = p_right(H, ca.phi_rho_inv)
    qt = q_right(H, ca.phi_rho)
    unit_ah = one_a.tensor(one)

    check_quantified(
        rep, "tpqr1", ((a,) for a in range(n)),
        lambda a: (assemble(ca.coact(ca.e(a)), lambda a0, a1: ca.mmul(
            ca.coact(ca.e(a0)), pt, one_a.tensor(H.S(H.e(a1))))),
            ca.mmul(pt, ca.e(a).tensor(one))))
    check_quantified(
        rep, "tpqr1a", ((a,) for a in range(n)),
        lambda a: (assemble(ca.coact(ca.e(a)), lambda a0, a1: ca.mmul(
            one_a.tensor(H.Sinv(H.e(a1))), qt, ca.coact(ca.e(a0)))),
            ca.mmul(ca.e(a).tensor(one), qt)))
    check_equal(
        rep, "tpqr2",
        assemble(qt, lambda q1, q2: ca.mmul(
            ca.coact(ca.e(q1)), pt, one_a.tensor(H.S(H.e(q2))))),
        unit_ah)
    check_equal(
        rep, "tpqr2a",
        assemble(pt, lambda p1, p2: ca.mmul(
            one_a.tensor(H.Sinv(H.e(p2))), qt, ca.coact(ca.e(p1)))),
        unit_ah)

    # Phi_rho (rho (x) id)(p~)(p~ (x) 1)
    #   = sum (id (x) Delta)(rho(x1) p~)(1_A (x) g1 S(x3) (x) g2 S(x2))
    lhs = ca.mmul(ca.phi_rho, pt.map_leg(0, ca.coaction), pt.tensor(one))
    rhs = assemble(
        ca.phi_rho_inv.tensor(der.f_inv),
        lambda x1, x2, x3, g1, g2: ca.mmul(
            ca.mmul(ca.coact(ca.e(x1)), pt).map_leg(1, H.comul),
            one_a.tensor(H.mul(H.e(g1), H.S(H.e(x3)))).tensor(
                H.mul(H.e(g2), H.S(H.e(x2))))))
    check_equal(rep, "tpr2", lhs, rhs)

    # (q~ (x) 1)(rho (x) id)(q~) Phi_rho^{-1}
    #   = sum (1_A (x) S^{-1}(f2 X3) (x) S^{-1}(f1 X2))
    #         (id (x) Delta)(q~ rho(X1))
    lhs = ca.mmul(qt.tensor(one), qt.map_leg(0, ca.coaction), ca.phi_rho_inv)
    rhs = assemble(
        ca.phi_rho.tensor(der.f),
        lambda X1, X2, X3, f1, f2: ca.mmul(
            one_a.tensor(H.Sinv(H.mul(H.e(f2), H.e(X3)))).tensor(
                H.Sinv(H.mul(H.e(f1), H.e(X2)))),
            ca.mmul(qt, ca.coact(ca.e(X1))).map_leg(1, H.comul)))
    check_equal(rep, "tqr2", lhs, rhs)

    # sum X1_<1> p~2 S(X2) (x) X1_<0> p~1 (x) X3
    #   = sum x2 S(x3_1 pL1) (x) x1 (x) x3_2 pL2
    lhs = assemble(ca.phi_rho, lambda X1, X2, X3: assemble(
        ca.coact(ca.e(X1)).tensor(pt),
        lambda a0, a1, p1, p2: H.mul(H.e(a1), H.e(p2), H.S(H.e(X2))).tensor(
            ca.algebra.mul(ca.e(a0), ca.e(p1))).tensor(H.e(X3))))
    rhs = assemble(
        ca.phi_rho_inv.map_leg(2, H.comul).tensor(der.p_L),
        lambda x1, x2, x31, x32, l1, l2: H.mul(
            H.e(x2), H.S(H.mul(H.e(x31), H.e(l1)))).tensor(
                ca.e(x1)).tensor(H.mul(H.e(x32), H.e(l2))))
    check_equal(rep, "tprr", lhs, rhs)


# ----------------------------------------------------------------------
# per-column assemble builders


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
    flat = FlatSpace((H.basis, A.basis), field)
    nA, nH = A.dim, H.dim
    hmult, amult = H.algebra.table, A.table

    left = {}
    for h in range(nH):
        for k in range(nH):
            vec = hmult.get((h, k))
            if vec:
                for a in range(nA):
                    left[(h, flat.join((k, a)))] = {
                        flat.join((t, a)): c for t, c in vec.items()}
    left_action = LegMul(H.basis, flat.basis, flat.basis, left, field)

    right = {}
    for k in range(nH):
        for a in range(nA):
            m = flat.join((k, a))
            for a2 in range(nA):
                vec = amult.get((a, a2))
                if vec:
                    right[(m, a2)] = {flat.join((k, t)): c
                                      for t, c in vec.items()}
    right_action = LegMul(flat.basis, A.basis, flat.basis, right, field)

    src = der.q_L.tensor(ca.phi_rho.map_leg(2, H.comul)).tensor(der.f_inv)
    W = assemble(src, lambda q1, q2, X1, X2, X31, X32, g1, g2:
                 H.Sinv(H.mul(H.e(q2), H.e(X32), H.e(g2))).tensor(
                     ca.e(X1)).tensor(
                         H.mul(H.Sinv(H.mul(H.e(q1), H.e(X31), H.e(g1))),
                               H.e(X2))))

    cols = {}
    for k in range(nH):
        for a in range(nA):
            src2 = H.delta(H.e(k)).tensor(ca.coact(ca.e(a))).tensor(W)
            t = assemble(src2, lambda k1, k2, a0, a1, w1, w2, w3:
                         H.mul(H.e(k1), H.e(w1)).tensor(
                             A.mul(A.e(w2), A.e(a0))).tensor(
                                 H.mul(H.e(k2), H.e(w3), H.e(a1))))
            cols[flat.join((k, a))] = dict(flat.pack(t).data)
    coaction = LinearMap(flat.basis, (flat.basis, H.basis), cols, field)
    return TwoSidedHopfModule(ca, flat.basis, left_action, right_action,
                              coaction, name="H(x)" + ca.name)


def module_isomorphism(ca: RightComoduleAlgebra
                       ) -> Tuple[LinearMap, LinearMap]:
    """The mutually inverse maps between the canonical modules:
    theta(a (x) h) = sum h S^{-1}(a_(1) p~2) (x) a_(0) p~1 and
    theta^{-1}(h (x) a) = sum q~1 a_(0) (x) h q~2 a_(1)."""
    H, A = ca.H, ca.algebra
    field = H.field
    flatV = FlatSpace((A.basis, H.basis), field)
    flatU = FlatSpace((H.basis, A.basis), field)
    pt, qt = ca.p_tilde(), ca.q_tilde()

    cols = {}
    for a in range(A.dim):
        for h in range(H.dim):
            src = ca.coact(ca.e(a)).tensor(pt)
            t = assemble(src, lambda a0, a1, p1, p2:
                         H.mul(H.e(h), H.Sinv(H.mul(H.e(a1), H.e(p2)))).tensor(
                             A.mul(A.e(a0), A.e(p1))))
            cols[flatV.join((a, h))] = dict(flatU.pack(t).data)
    theta = LinearMap(flatV.basis, (flatU.basis,), cols, field)

    cols = {}
    for h in range(H.dim):
        for a in range(A.dim):
            src = qt.tensor(ca.coact(ca.e(a)))
            t = assemble(src, lambda q1, q2, a0, a1:
                         A.mul(A.e(q1), A.e(a0)).tensor(
                             H.mul(H.e(h), H.e(q2), H.e(a1))))
            cols[flatU.join((h, a))] = dict(flatV.pack(t).data)
    theta_inv = LinearMap(flatU.basis, (flatV.basis,), cols, field)
    return theta, theta_inv


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
    and x = Phi^{-1}."""
    H = ba.H
    if not isinstance(H, QuasiHopfAlgebra):
        raise ValueError("the crossed coaction needs antipode data")
    dual = H.dual
    field = H.field
    A = ba.algebra
    nH = H.dim
    if HHop.dim != nH * nH:
        raise ValueError("H (x) H^op basis does not match the flat layout")

    pair = FlatSpace((H.basis, H.basis), field)

    def pack_pair(t: Tensor) -> Tensor:
        return Tensor((HHop.basis,) + t.spaces[2:],
                      {(pair.join(idx[:2]),) + idx[2:]: c
                       for idx, c in t.data.items()}, field)

    eps = dual.eps_functional()
    nest = smash_index(qs, sm)

    cols = {}
    for g in range(sm.dim):
        a, p, h = nest.split(g)
        src = ba.left.coact(A.e(a)).tensor(ba.phi_mid_inv).tensor(
            H.phi_inv).tensor(H.delta(H.e(h)))

        def builder(am, a0, w1, w2, w3, y1, y2, y3, h1, h2):
            hhleg = H.mul(H.e(am), H.e(w1)).tensor(
                H.S(H.mul(H.e(y3), H.e(h2))))
            func = dual.hit_r(dual.hit_l(H.e(y1), dual.e(p)), H.e(w3))
            if not func.data:
                return Tensor.zero((HHop.basis, sm.basis), field)
            body = sm.flatten(qs.element(A.mul(A.e(a0), A.e(w2)),
                                         func).tensor(
                                             H.mul(H.e(y2), H.e(h1))))
            return pack_pair(hhleg).tensor(body)

        cols[g] = dict(assemble(src, builder).data)
    coaction = LinearMap(sm.basis, (HHop.basis, sm.basis), cols, field)

    src = ba.left.phi_lam.tensor(H.derived.f_inv).tensor(H.phi_inv)
    phi_w = assemble(src, lambda X1, X2, X3, g1, g2, x1, x2, x3:
                     pack_pair(H.e(X1).tensor(
                         H.mul(H.e(g1), H.S(H.e(x3))))).tensor(
                     pack_pair(H.e(X2).tensor(
                         H.mul(H.e(g2), H.S(H.e(x2)))))).tensor(
                     sm.flatten(qs.element(A.e(X3), eps).tensor(
                         H.e(x1)))))
    return LeftComoduleAlgebra(HHop, sm, coaction, phi_w,
                               name=sm.basis.name)


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
    nest = smash_index(qs, sm)

    def evaluate(g, g2):
        a, p, h = nest.split(g)
        a2, q, h2 = nest.split(g2)
        src = H.phi_inv.tensor(ba.right.coact(A.e(a2))).tensor(
            ba.right.phi_rho_inv).tensor(H.delta(H.e(h)))

        def builder(x1, x2, x3, a20, a21, r1, r2, r3, h1, h2b):
            pfun = dual.hit_r(dual.hit_l(H.e(x1), dual.e(p)),
                              H.mul(H.e(a21), H.e(r2)))
            qfun = dual.hit_r(
                dual.hit_l(H.mul(H.e(x2), H.e(h1)), dual.e(q)),
                H.e(r3))
            fun = dual.conv.mulc(pfun, qfun)
            if not fun.data:
                return Tensor.zero((sm.basis,), field)
            return sm.flatten(qs.element(
                A.mulc(A.e(a), A.e(a20), A.e(r1)), fun).tensor(
                    H.mul(H.e(x3), H.e(h2b), H.e(h2))))

        return assemble(src, builder)

    return legmul_from_function(sm.basis, sm.basis, sm.basis, evaluate, field)


class SweedlerHomSmash:
    """products.HomSmash as it was before verify_hom_smash compared
    tables: nu and nu^{-1} of single elements and maps, star as two
    sweedler sums per pair of maps, unit and act one column per basis
    vector (map_from_function)."""

    def __init__(self, ca: RightComoduleAlgebra):
        self.ca = ca
        self.H = ca.H

    def nu(self, t: Tensor) -> LinearMap:
        ca = self.ca
        if t.spaces != (ca.basis, self.H.dual.basis):
            raise ValueError("expected an element of A (x) H*")
        cols: Dict[int, Dict[Tuple[int, ...], object]] = {}
        for (a, p), c in t.data.items():
            cols.setdefault(p, {})[(a,)] = c
        return LinearMap(self.H.basis, (ca.basis,), cols, ca.field)

    def nu_inv(self, w: LinearMap) -> Tensor:
        ca, dual = self.ca, self.H.dual
        out = Tensor.zero((ca.basis, dual.basis), ca.field)
        for i in range(self.H.dim):
            img = Tensor((ca.basis,), dict(w.cols.get(i, {})), ca.field)
            out = out + img.tensor(dual.e(i))
        return out

    def star(self, v: LinearMap, w: LinearMap) -> LinearMap:
        """v * w, summed over the graph of Delta and Phi_rho^{-1}: first
        to e_k (x) k_1 (x) x1 (x) x2 (x) w(x3 k_2), then, with rho
        applied to the last leg, to sum e_k (x) v(w1 x2 k_1) w0 x1."""
        H, ca = self.H, self.ca
        m = H.leg()
        inner = sweedler(H.comul.graph().tensor(ca.phi_rho_inv),
                         (0, 1, 3, 4, (w, (m, 5, 2))))
        return LinearMap.from_graph(sweedler(
            inner.map_leg(4, ca.coaction),
            (0, (ca.algebra, (v, (m, 5, 3, 1)), 4, 2))))

    def unit(self) -> LinearMap:
        H, ca = self.H, self.ca
        return map_from_function(
            H.basis, (ca.basis,),
            lambda k: ca.unit().scale(H.eps(H.e(k))), ca.field)

    def act(self, h: Tensor, v: LinearMap) -> LinearMap:
        H = self.H
        return map_from_function(
            H.basis, (self.ca.basis,),
            lambda k: H.mul(H.e(k), h).map_leg(0, v), self.ca.field)


def _map_tensor(f: LinearMap) -> Tensor:
    """A linear map into one based space, such as an endomorphism of H or
    a map H -> A, as a two-leg tensor (image, argument)."""
    data = {}
    for j, col in f.cols.items():
        for (i,), c in col.items():
            data[(i, j)] = c
    return Tensor((f.codomain[0], f.domain), data, f.field)


def verify_hom_smash(ca: RightComoduleAlgebra) -> VerificationReport:
    """nu is a bijection A (x) H* -> Hom(H, A) carrying the quasi-smash
    product, its unit and its left H-action to the transported
    structures on Hom(H, A)."""
    H = ca.H
    rep = VerificationReport("quasi-smash of %s inside Hom(H, A)" % ca.name,
                             {"dim": ca.dim, "field": H.field.name})
    dual = H.dual
    hs = SweedlerHomSmash(ca)
    qs = quasi_smash(ca)
    flat = FlatSpace(qs.algebra.factors, H.field)
    nA, nH = ca.dim, H.dim

    nu_table = {(a, p): hs.nu(ca.e(a).tensor(dual.e(p)))
                for a in range(nA) for p in range(nH)}

    check_quantified(
        rep, "nu-inv-left", ((a, p) for a in range(nA) for p in range(nH)),
        lambda a, p: (hs.nu_inv(nu_table[(a, p)]),
                      ca.e(a).tensor(dual.e(p))))

    def hom_basis(i, k):
        return LinearMap(H.basis, (ca.basis,), {k: {(i,): H.field.one()}},
                         H.field)

    check_quantified(
        rep, "nu-inv-right", ((i, k) for i in range(nA) for k in range(nH)),
        lambda i, k: (_map_tensor(hs.nu(hs.nu_inv(hom_basis(i, k)))),
                      _map_tensor(hom_basis(i, k))))

    def nu_of(t: Tensor) -> LinearMap:
        return hs.nu(qs.parts(t))

    def mult_probe(a, p, b, q):
        qa = qs.algebra
        prod = qa.mul(qa.e(flat.join((a, p))), qa.e(flat.join((b, q))))
        return (_map_tensor(nu_of(prod)),
                _map_tensor(hs.star(nu_table[(a, p)], nu_table[(b, q)])))

    check_quantified(
        rep, "nu-multiplicative",
        ((a, p, b, q) for a in range(nA) for p in range(nH)
         for b in range(nA) for q in range(nH)), mult_probe)

    check_equal(rep, "nu-unit", _map_tensor(nu_of(qs.unit())),
                _map_tensor(hs.unit()))

    check_quantified(
        rep, "nu-equivariant",
        ((h, a, p) for h in range(nH) for a in range(nA) for p in range(nH)),
        lambda h, a, p: (
            _map_tensor(nu_of(qs.act(H.e(h), qs.element(ca.e(a), dual.e(p))))),
            _map_tensor(hs.act(H.e(h), nu_table[(a, p)]))))
    return rep


def transport_module(M: TwoSidedHopfModule, iso: LinearMap,
                     iso_inv: LinearMap, name: str = "") -> TwoSidedHopfModule:
    """hopfmod.transport_module as it was, one from_function entry per
    pair of basis vectors for each action."""
    ca, H = M.ca, M.H
    basis = iso.codomain[0]
    field = M.field

    def through(t: Tensor) -> Tensor:
        return t.map_leg(0, iso)

    left = legmul_from_function(
        H.basis, basis, basis,
        lambda i, m: through(M.lact(H.e(i), iso_inv.column(m))), field)
    right = legmul_from_function(
        basis, ca.basis, basis,
        lambda m, a: through(M.ract(iso_inv.column(m), ca.e(a))), field)
    coaction = iso.compose(M.coaction.compose(iso_inv))
    return TwoSidedHopfModule(ca, basis, left, right, coaction,
                              name=name or M.name + "~")


class HomSmash(SweedlerHomSmash):
    """SweedlerHomSmash with star as it was, one assemble per column
    and a nested one per term."""

    def star(self, v: LinearMap, w: LinearMap) -> LinearMap:
        H, ca = self.H, self.ca

        def col(k):
            src = ca.phi_rho_inv.tensor(H.delta(H.e(k)))

            def builder(x1, x2, x3, k1, k2):
                t = H.mul(H.e(x3), H.e(k2)).map_leg(0, w)
                ct = ca.coact(t)
                if not ct.data:
                    return Tensor.zero((ca.basis,), ca.field)
                return assemble(ct, lambda w0, w1: ca.algebra.mulc(
                    H.mul(H.e(w1), H.e(x2), H.e(k1)).map_leg(0, v),
                    ca.e(w0), ca.e(x1)))

            return assemble(src, builder)

        return map_from_function(H.basis, (ca.basis,), col, ca.field)


def tensor_with(self, other: "QuasiBialgebra") -> "QuasiBialgebra":
    """Componentwise tensor product quasi-bialgebra on H (x) K."""
    b1, b2 = self.basis, other.basis
    pair = FlatSpace((b1, b2), self.field)
    b = pair.basis

    def flat(i, j):
        return pair.join((i, j))

    mult = {}
    for (i1, j1), v1 in self.algebra.table.items():
        for (i2, j2), v2 in other.algebra.table.items():
            key = (flat(i1, i2), flat(j1, j2))
            vec = {}
            for k1, c1 in v1.items():
                for k2, c2 in v2.items():
                    vec[flat(k1, k2)] = c1 * c2
            mult[key] = vec
    unit = Tensor((b,), {
        (flat(i1, i2),): c1 * c2
        for (i1,), c1 in self.algebra.unit.data.items()
        for (i2,), c2 in other.algebra.unit.data.items()
    }, self.field)
    alg = FinAlgebra(b, mult, unit, self.field)

    comul_cols = {}
    for i1 in range(b1.dim):
        col1 = self.comul.cols.get(i1, {})
        for i2 in range(b2.dim):
            col2 = other.comul.cols.get(i2, {})
            col = {}
            for (a1, c1k), s1 in col1.items():
                for (a2, c2k), s2 in col2.items():
                    col[(flat(a1, a2), flat(c1k, c2k))] = s1 * s2
            comul_cols[flat(i1, i2)] = col
    comul = LinearMap(b, (b, b), comul_cols, self.field)

    counit_cols = {}
    for i1 in range(b1.dim):
        s1 = self.counit.cols.get(i1, {}).get((), self.field.zero())
        for i2 in range(b2.dim):
            s2 = other.counit.cols.get(i2, {}).get((), self.field.zero())
            counit_cols[flat(i1, i2)] = {(): s1 * s2}
    counit = LinearMap(b, (), counit_cols, self.field)

    def pair_up(t1: Tensor, t2: Tensor) -> Tensor:
        out = Tensor.zero((b, b, b), self.field)
        for idx1, c1 in t1.data.items():
            for idx2, c2 in t2.data.items():
                key = tuple(flat(a, x) for a, x in zip(idx1, idx2))
                out.data[key] = out.data.get(key, self.field.zero()) + c1 * c2
        return Tensor((b, b, b), out.data, self.field)

    phi = pair_up(self.phi, other.phi)
    phi_inv = pair_up(self.phi_inv, other.phi_inv)
    return QuasiBialgebra(alg, comul, counit, phi, phi_inv,
                          name="%s(x)%s" % (self.name, other.name))


# ----------------------------------------------------------------------
# hand-indexed two-sided hits


def two_sided_hits(left: LegMul, right: LegMul):
    """(hits, den) for a left action `left` and a right action `right`
    on one space: hits[(u, s, v)] holds the (w, numerator) pairs, over
    den, of the coefficient of e_s in v . e_w . u. Read over w, it is
    the functional u -> e^s <- v on that space."""
    (L, dl), (R, dr) = left.lifted(), right.lifted()
    hits: Dict[Tuple[int, int, int], list] = {}
    for (w, u), row in R.items():
        for v in range(left.left.dim):
            for s, n in _times(L, row, v, left=True).items():
                if n:
                    hits.setdefault((u, s, v), []).append((w, n))
    return {key: tuple(vec) for key, vec in hits.items()}, dl * dr


def quasi_smash_hit_action(qs: QuasiSmash) -> Dict:
    """The table of the left H-action of QuasiSmash as its constructor
    regrouped the table of h -> phi, by hand through FlatSpace.join."""
    ca, dual = qs.ca, qs.H.dual
    prod = FlatSpace(qs.algebra.factors, qs.H.field)
    table = {}
    for (i, p), hit in dual.hit_l_leg.table.items():
        for pp, c in hit.items():
            for a in range(ca.dim):
                f = prod.join((a, p))
                table.setdefault((i, f), {})[prod.join((a, pp))] = c
    return table


def mbia1_tables(dual: DualView) -> Tuple[LegMul, Tensor]:
    """The action of H (x) H^op on H^* and the paired reassociator
    sum (X1 (x) x1) (x) (X2 (x) x2) (x) (X3 (x) x3) that mbia1 compared
    through quasi_associative, built as check_dual_bimodule_algebra
    built them: the hits of two_sided_hits regrouped by the flat pair."""
    H = dual.H
    field = H.field
    pair = FlatSpace((H.basis, H.basis), field)
    hits, den = two_sided_hits(H.leg(), H.leg())
    table = {(pair.join((u, v)), s): dict(vec)
             for (u, s, v), vec in hits.items()}
    act = LegMul(pair.basis, dual.basis, dual.basis,
                 _lowered(field, table, den), field)
    phi2 = Tensor((pair.basis,) * 3, {
        tuple(pair.join(uv) for uv in zip(X, x)): c1 * c2
        for X, c1 in H.phi.data.items() for x, c2 in H.phi_inv.data.items()},
        field)
    return act, phi2


class RowSpan:
    """An incrementally built reduced row echelon span.

    Rows are kept fully reduced with unit pivots, so membership testing
    and coordinate extraction are exact and canonical.
    """

    def __init__(self, field: Field = QQ):
        self.field = field
        self.rows: List[Dict[int, object]] = []
        self.pivots: List[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Dict[int, object]) -> Dict[int, object]:
        """Residual of vec modulo the span (vec is not modified)."""
        residual = dict(vec)
        for piv, row in zip(self.pivots, self.rows):
            c = residual.get(piv)
            if c:
                vec_sub_scaled(residual, row, c)
        return residual

    def coordinates(self, vec: Dict[int, object]) -> Optional[List[object]]:
        """Coefficients of vec against the span rows, or None if vec is
        not in the span. A pivot that vec lacks gets the one zero made
        per call."""
        residual = dict(vec)
        coords = []
        zero = self.field.zero()
        for piv, row in zip(self.pivots, self.rows):
            c = residual.get(piv, zero)
            coords.append(c)
            if c:
                vec_sub_scaled(residual, row, c)
        if residual:
            return None
        return coords

    def add(self, vec: Dict[int, object]) -> bool:
        """Add a vector to the span. Returns True if the rank grew."""
        residual = self.reduce(vec)
        if not residual:
            return False
        piv = min(residual)
        inv = self.field.one() / residual[piv]
        row = {col: v * inv for col, v in residual.items()}
        # back-substitute into existing rows to stay fully reduced
        for other in self.rows:
            c = other.get(piv)
            if c:
                vec_sub_scaled(other, row, c)
        self.rows.append(row)
        self.pivots.append(piv)
        return True


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
            for t, ct in prod.table.get((i, g), {}).items():
                s = acc.get(t, field.zero()) + c * ct
                if s:
                    acc[t] = s
                elif t in acc:
                    del acc[t]
        return acc

    changed = True
    while changed:
        changed = False
        for row in [dict(r) for r in span.rows]:
            for g in range(dim):
                prod_vec = right_mul(row, g)
                if prod_vec and span.add(prod_vec):
                    changed = True

    basis = Basis(tuple("m%d" % i for i in range(span.rank)),
                  "cyclic(seed=%d)" % seed)
    table = {}
    for m, row in enumerate(span.rows):
        for g in range(dim):
            coords = span.coordinates(right_mul(row, g))
            if coords is None:
                raise ArithmeticError("cyclic module is not closed")
            table[(m, g)] = {j: c for j, c in enumerate(coords) if c}
    return LegMul(basis, prod.basis, basis, _clean_table(table), field)


# ----------------------------------------------------------------------
# per-column elimination


def solve_linear(rows: List[Vec], rhs: List[object], field: Field = QQ) -> Optional[Vec]:
    """Solve the sparse system rows[i] . y = rhs[i].

    Returns a solution vector (free variables set to zero) or None if the
    system is inconsistent. The returned solution has been verified by
    substitution into every equation.
    """
    work = [{col: c for col, c in r.items() if c} for r in rows]
    aug = list(rhs)
    pivot_of_row: List[int] = []
    used_rows: List[int] = []
    for i in range(len(work)):
        row, b = work[i], aug[i]
        for j, piv in zip(used_rows, pivot_of_row):
            c = row.get(piv)
            if c:
                vec_sub_scaled(row, work[j], c)
                b = b - c * aug[j]
        if not row:
            if b:
                return None
            continue
        piv = min(row)
        inv = field.one() / row[piv]
        work[i] = {col: v * inv for col, v in row.items()}
        aug[i] = b * inv
        used_rows.append(i)
        pivot_of_row.append(piv)
    # back substitution: read off pivot variables, free variables are zero
    solution: Vec = {}
    for j, piv in reversed(list(zip(used_rows, pivot_of_row))):
        val = aug[j]
        for col, c in work[j].items():
            if col != piv and col in solution:
                val = val - c * solution[col]
        if val:
            solution[piv] = val
    # substitution check against the original system
    for row, b in zip(rows, rhs):
        acc = field.zero()
        for col, c in row.items():
            y = solution.get(col)
            if y:
                acc = acc + c * y
        if acc != b:
            raise ArithmeticError("substitution check failed after elimination")
    return solution



def invert_matrix_map(apply_fn, dim: int, field: Field = QQ):
    """Invert a linear endomorphism given by apply_fn(j) -> column Vec.

    Returns a list of columns of the inverse (each a Vec), or None if the
    map is singular.
    """
    # rows[a][b] = coefficient a of image of basis vector b
    rows: List[Vec] = [{} for _ in range(dim)]
    for b in range(dim):
        for a, c in apply_fn(b).items():
            rows[a][b] = c
    columns = []
    for target in range(dim):
        rhs = [field.one() if a == target else field.zero() for a in range(dim)]
        sol = solve_linear(rows, rhs, field)
        if sol is None:
            return None
        columns.append(sol)
    return columns


def invert_linear_map(f: LinearMap) -> Optional[LinearMap]:
    """Inverse of an endomorphism with a single codomain leg."""
    if f.codomain != (f.domain,):
        raise ValueError("only endomorphisms can be inverted")
    dim = f.domain.dim

    def apply_fn(j):
        return {k[0]: c for k, c in f.cols.get(j, {}).items()}

    cols = invert_matrix_map(apply_fn, dim, f.field)
    if cols is None:
        return None
    return LinearMap(
        f.domain,
        (f.domain,),
        {j: {(k,): c for k, c in col.items()} for j, col in enumerate(cols)},
        f.field,
    )
