import copy
import hashlib
import pathlib
import random
from fractions import Fraction
from typing import Dict

import pytest

from qhopf import (Basis, FinAlgebra, Fp, HeisenbergDouble,
                   LeftComoduleAlgebra, LinearMap, PrimeField, QQ,
                   QuasiHopfAlgebra, RightComoduleAlgebra, Tensor,
                   VerificationReport, canonical_first_module,
                   canonical_left_comodule, canonical_right_comodule,
                   check_left_module_algebra, cli, corpus,
                   cyclic_group_algebra, generalized_smash, is_gauge,
                   module_isomorphism,
                   quasi_smash, smash_product,
                   specfile as sf, twist, two_sided_crossed,
                   transport_module, verify_crossed_decomposition,
                   verify_heisenberg_double, verify_hom_smash)
from qhopf import products
from qhopf.algebra import _contract, _lift_map
from qhopf.products import _same_table
from qhopf.report import scalar_str

import reference_builders as ref
from reference_builders import (FlatSpace, assemble, check_equal,
                                check_quantified, left_hit, map_from_function,
                                pair_legs, right_hit, smash_index)
from test_cli import fixed_twist
from test_flat_sums import _skewed
from test_report import _mutant as _table_mutant


def _materialized(prod) -> FinAlgebra:
    assert isinstance(prod, FinAlgebra)
    return prod


@pytest.mark.parametrize("key", ("z2", "z3", "z2_quasi"))
def test_quasi_smash_is_module_algebra(all_corpus, key):
    H = all_corpus[key]
    qs = quasi_smash(canonical_right_comodule(H))
    rep = check_left_module_algebra(qs)
    assert rep.passed, [r.tag for r in rep.records if not r.passed]
    # the carrier is associative up to the reassociator acting through
    # the module structure, so strict associativity holds exactly when
    # the reassociator is trivial
    strict = qs.algebra.is_associative() is None
    assert strict == (H.phi == H.unit_pow(3))
    assert qs.algebra.unit_laws_hold() is None
    assert qs.dim == H.dim * H.dim


@pytest.mark.parametrize("key", ("z2", "z3", "z2_quasi"))
def test_smash_product_is_algebra(all_corpus, key):
    H = all_corpus[key]
    qs = quasi_smash(canonical_right_comodule(H))
    prod = smash_product(qs)
    alg = _materialized(prod)
    assert alg.is_associative() is None
    assert alg.unit_laws_hold() is None
    assert alg.dim == H.dim ** 3


@pytest.mark.parametrize("key", ("z2", "z2_quasi"))
def test_generalized_smash_is_algebra(all_corpus, key):
    H = all_corpus[key]
    qs = quasi_smash(canonical_right_comodule(H))
    cb = canonical_left_comodule(H)
    prod = generalized_smash(qs, cb)
    alg = _materialized(prod)
    assert alg.is_associative() is None
    assert alg.unit_laws_hold() is None


@pytest.mark.parametrize("key", ("z2", "z2_quasi"))
def test_two_sided_crossed_is_algebra(all_corpus, key):
    H = all_corpus[key]
    rca = canonical_right_comodule(H)
    lcb = canonical_left_comodule(H)
    prod = two_sided_crossed(rca, lcb)
    alg = _materialized(prod)
    assert alg.is_associative() is None
    assert alg.unit_laws_hold() is None
    assert alg.dim == H.dim ** 3


def test_product_algebra_flatten_round_trip(all_corpus):
    H = all_corpus["z2_quasi"]
    field = H.field
    prod = two_sided_crossed(canonical_right_comodule(H),
                             canonical_left_comodule(H))
    # keys list the factor index tuples in basis order, flat inverts
    # them, and both agree with the row-major arithmetic of FlatSpace
    rows = FlatSpace(prod.factors, field)
    assert rows.basis == prod.basis
    assert prod.keys == [rows.split(i) for i in range(prod.dim)]
    assert prod.flat == {key: i for i, key in enumerate(prod.keys)}
    e = Tensor.basis_vector(prod.basis, rows.join((1, 0, 1)), field)
    assert prod.flatten(prod.unflatten(e)) == e
    # unflatten carries a trailing leg through unchanged
    trailing = e.tensor(H.e(1)) + Tensor.basis_vector(
        prod.basis, rows.join((0, 1, 1)), field).tensor(H.e(0)).scale(
        field.from_int(3))
    parts = prod.unflatten(trailing)
    assert parts.spaces == prod.factors + (H.basis,)
    assert rows.pack(parts) == trailing
    with pytest.raises(ValueError):
        prod.flatten(parts)
    with pytest.raises(ValueError):
        prod.unflatten(parts)
    # the (a, p, h) of (A # H*) # H, read through the keys of sm and of
    # A # H*, is smash_index's row-major split, label by label
    qs = quasi_smash(canonical_right_comodule(H))
    sm = smash_product(qs)
    idx = smash_index(qs, sm)
    assert idx.basis.labels == sm.basis.labels
    for g, (u, h) in enumerate(sm.keys):
        a, p, h2 = idx.split(g)
        assert qs.algebra.keys[u] + (h,) == (a, p, h2)
        assert sm.flat[qs.algebra.flat[a, p], h2] == g


@pytest.mark.parametrize("key", ("z2", "z2_quasi", "z2z2_twisted"))
def test_heisenberg_double(all_corpus, key):
    rep = verify_heisenberg_double(all_corpus[key])
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


def _composition_element(H):
    """E = sum x3 X3_2 (x) S^{-1}(S(x1 X2) alpha x2 X3_1) (x) S^{-1}(X1),
    with Phi^{-1} = x1 (x) x2 (x) x3 and Phi = X1 (x) X2 (x) X3, summed
    one term at a time."""
    return assemble(
        H.phi_inv.tensor(H.phi.map_leg(2, H.comul)),
        lambda x1, x2, x3, X1, X2, X31, X32: H.mul(H.e(x3), H.e(X32)).tensor(
            H.Sinv(H.mul(H.S(H.mul(H.e(x1), H.e(X2))), H.alpha,
                         H.e(x2), H.e(X31)))).tensor(H.Sinv(H.e(X1))))


def _compose_by_terms(H, E, u, v):
    """The product on End(H), (u o v)(h) = sum u(v(h e1) e2) e3, summed
    one term of the composition element E at a time: the reference for
    the staged product of HeisenbergDouble (_staged_compose)."""
    cols = {}
    for k in range(H.dim):
        acc = Tensor.zero((H.basis,), H.field)
        for (e1, e2, e3), c in E.data.items():
            inner = H.mul(H.mul(H.e(k), H.e(e1)).map_leg(0, v), H.e(e2))
            acc = acc + H.mul(inner.map_leg(0, u), H.e(e3)).scale(c)
        cols[k] = dict(acc.data)
    return LinearMap(H.basis, (H.basis,), cols, H.field)


def _staged_compose(hd, u, v):
    """u o v through the stages of HeisenbergDouble: sum W_k[key] G[key]
    (_contract) with W = _right_stage(v) and G = _left_stage(u), each
    entry lowered once. verify_heisenberg_double forms the same sums on
    the basis maps mu(e_i # e^a)."""
    (U, du), (V, dv) = _lift_map(u), _lift_map(v)
    G = hd._left_stage(U)
    return hd._endo(dict(enumerate(
        _contract(w, G) for w in hd._right_stage(V))),
        du * dv * hd._dW * hd._dh)


@pytest.mark.parametrize("key", ("z2_quasi", "z2z2_twisted"))
def test_grouped_compose_matches_term_sum(all_corpus, key):
    H = all_corpus[key]
    hd = HeisenbergDouble(H)
    E = _composition_element(H)
    n = H.dim
    endos = [LinearMap(H.basis, (H.basis,), {l: {(k,): H.field.one()}},
                       H.field) for k in range(n) for l in range(n)]
    for u in endos:
        for v in endos:
            got = _staged_compose(hd, u, v)
            want = _compose_by_terms(H, E, u, v)
            assert got.cols == want.cols, (u.cols, v.cols)


def _mu_by_terms(H, t):
    """mu pairing e^a against the second leg of the whole core for every
    term (i, a): the reference for the sliced HeisenbergDouble.mu."""
    dual = H.dual
    cols = {}
    for k in range(H.dim):
        core = assemble(H.delta(H.e(k)).tensor(H.derived.p_L),
                        lambda k1, k2, l1, l2: H.mul(H.e(k1), H.e(l1)).tensor(
                            H.mul(H.e(k2), H.e(l2))))
        acc = Tensor.zero((H.basis,), H.field)
        for (i, a), c in t.data.items():
            red = pair_legs(dual.e(a).tensor(core), 0, 2)
            acc = acc + H.mul(H.e(i), red).scale(c)
        cols[k] = dict(acc.data)
    return LinearMap(H.basis, (H.basis,), cols, H.field)


@pytest.mark.parametrize("key", ("z2_quasi", "z2z2_twisted"))
def test_sliced_mu_matches_term_sum(all_corpus, key):
    H = all_corpus[key]
    hd = HeisenbergDouble(H)
    spaces = (H.basis, H.dual.basis)
    n = H.dim
    elements = [Tensor(spaces, {(i, a): H.field.one()}, H.field)
                for i in range(n) for a in range(n)]
    # one element with every term, with distinct coefficients
    elements.append(Tensor(spaces, {(i, a): H.field.from_int(i * n + a + 1)
                                    for i in range(n) for a in range(n)},
                           H.field))
    for t in elements:
        assert hd.mu(t).cols == _mu_by_terms(H, t).cols, t.data


# ----------------------------------------------------------------------
# the Heisenberg double before its lifted tables, kept as the reference:
# HeisenbergDouble and verify_heisenberg_double as they were when each
# product was summed one Tensor term at a time, renamed and otherwise
# unchanged


def _map_tensor(f: LinearMap) -> Tensor:
    """A linear map into one based space, such as an endomorphism of H or
    a map H -> A, as a two-leg tensor (image, argument)."""
    data = {}
    for j, col in f.cols.items():
        for (i,), c in col.items():
            data[(i, j)] = c
    return Tensor((f.codomain[0], f.domain), data, f.field)


class _ReferenceDouble:
    """The quasi-smash product H (x) H* realized inside End(H).

    mu(h # phi)(h') = sum phi(h'_2 pL2) h h'_1 pL1 is bijective with
    inverse mu^{-1}(u) = sum_i u(qL2 (e_i)_2) S^{-1}(qL1 (e_i)_1) # e^i;
    the transported product on End(H) is

        (u o v)(h) = sum u(v(h x3 X3_2) S^{-1}(S(x1 X2) alpha x2 X3_1))
                     S^{-1}(X1),

    the unit is h |-> h S^{-1}(beta), and the transported left H-action
    is (h . u)(h') = u(h' h_2) S^{-1}(h_1)."""

    def __init__(self, H: QuasiHopfAlgebra):
        self.H = H
        der = H.derived
        n = H.dim
        # per basis argument k, the core sum (e_k)_1 pL1 (x) (e_k)_2 pL2
        # grouped by its second leg: k -> a -> sum c e_x over the core
        # terms c e_x (x) e_a, which is e^a paired with that leg
        self._mu_slices: Dict[int, Dict[int, Tensor]] = {}
        for k in range(n):
            core = assemble(H.delta(H.e(k)).tensor(der.p_L),
                            lambda k1, k2, l1, l2: H.mul(H.e(k1), H.e(l1)).tensor(
                                H.mul(H.e(k2), H.e(l2))))
            by_a: Dict[int, dict] = {}
            for (x, a), c in core.data.items():
                by_a.setdefault(a, {})[(x,)] = c
            self._mu_slices[k] = {a: Tensor((H.basis,), vec, H.field)
                                  for a, vec in by_a.items()}
        # per dual index i: sum qL2 (e_i)_2 (x) S^{-1}(qL1 (e_i)_1)
        # (argument leg, left-multiplier leg)
        self._inv_core = {
            i: assemble(der.q_L.tensor(H.delta(H.e(i))),
                        lambda q1, q2, i1, i2: H.mul(H.e(q2), H.e(i2)).tensor(
                            H.Sinv(H.mul(H.e(q1), H.e(i1)))))
            for i in range(n)
        }
        # composition element, with phi^{-1} = x1 (x) x2 (x) x3 and
        # phi = X1 (x) X2 (x) X3:
        #   E = sum x3 X3_2 (x) S^{-1}(S(x1 X2) alpha x2 X3_1) (x) S^{-1}(X1)
        self._compose_elt = assemble(
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
        if t.spaces != (H.basis, H.dual.basis):
            raise ValueError("expected an element of H (x) H*")
        cols = {}
        for k in range(H.dim):
            slices = self._mu_slices[k]
            acc = Tensor.zero((H.basis,), H.field)
            for (i, a), c in t.data.items():
                red = slices.get(a)
                if red is not None:
                    acc = acc + H.mul(H.e(i), red).scale(c)
            cols[k] = dict(acc.data)
        return LinearMap(H.basis, (H.basis,), cols, H.field)

    def mu_inv(self, u: LinearMap) -> Tensor:
        H, dual = self.H, self.H.dual
        out = Tensor.zero((H.basis, dual.basis), H.field)
        for i in range(H.dim):
            core = self._inv_core[i]
            vec = Tensor.zero((H.basis,), H.field)
            for (arg, lft), c in core.data.items():
                img = u.cols.get(arg)
                if not img:
                    continue
                for (r,), c2 in img.items():
                    vec = vec + H.mul(H.e(r), H.e(lft)).scale(c * c2)
            out = out + vec.tensor(dual.e(i))
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
        return map_from_function(
            H.basis, (H.basis,),
            lambda k: H.mul(H.e(k), H.Sinv(H.beta)), H.field)

    def act(self, h: Tensor, u: LinearMap) -> LinearMap:
        H = self.H
        return map_from_function(
            H.basis, (H.basis,),
            lambda k: assemble(H.delta(h), lambda h1, h2: H.mul(
                H.mul(H.e(k), H.e(h2)).map_leg(0, u), H.Sinv(H.e(h1)))),
            H.field)


def _reference_verify(H: QuasiHopfAlgebra) -> VerificationReport:
    """mu is a bijection H (x) H* -> End(H); it carries the quasi-smash
    product, its unit and its left H-action to the transported
    structures on End(H)."""
    rep = VerificationReport("double of %s in End(H)" % H.name,
                             {"dim": H.dim, "field": H.field.name})
    dual = H.dual
    hd = _ReferenceDouble(H)
    qs = quasi_smash(canonical_right_comodule(H))
    flat = FlatSpace(qs.algebra.factors, H.field)
    n = H.dim

    def basis_elt(i, a):
        return H.e(i).tensor(dual.e(a))

    mu_table = {(i, a): hd.mu(basis_elt(i, a))
                for i in range(n) for a in range(n)}

    check_quantified(
        rep, "mu-inv-left", ((i, a) for i in range(n) for a in range(n)),
        lambda i, a: (hd.mu_inv(mu_table[(i, a)]), basis_elt(i, a)))

    def endo(k, l):
        return LinearMap(H.basis, (H.basis,), {l: {(k,): H.field.one()}},
                         H.field)

    check_quantified(
        rep, "mu-inv-right", ((k, l) for k in range(n) for l in range(n)),
        lambda k, l: (_map_tensor(hd.mu(hd.mu_inv(endo(k, l)))),
                      _map_tensor(endo(k, l))))

    def mu_of(t: Tensor) -> LinearMap:
        return hd.mu(qs.parts(t))

    def mult_probe(i, a, j, b):
        prod = qs.algebra.mul(qs.algebra.e(flat.join((i, a))),
                              qs.algebra.e(flat.join((j, b))))
        return (_map_tensor(mu_of(prod)),
                _map_tensor(hd.compose(mu_table[(i, a)],
                                           mu_table[(j, b)])))

    check_quantified(
        rep, "mu-multiplicative",
        ((i, a, j, b) for i in range(n) for a in range(n)
         for j in range(n) for b in range(n)), mult_probe)

    check_equal(rep, "mu-unit",
                     _map_tensor(mu_of(qs.unit())),
                     _map_tensor(hd.unit()))

    def equiv_probe(h, i, a):
        acted = qs.act(H.e(h), qs.element(H.e(i), dual.e(a)))
        return (_map_tensor(mu_of(acted)),
                _map_tensor(hd.act(H.e(h), mu_table[(i, a)])))

    check_quantified(
        rep, "mu-equivariant",
        ((h, i, a) for h in range(n) for i in range(n) for a in range(n)),
        equiv_probe)

    check_quantified(
        rep, "unit-laws", ((i, a) for i in range(n) for a in range(n)),
        lambda i, a: (
            _map_tensor(hd.compose(hd.unit(), mu_table[(i, a)])) +
            _map_tensor(hd.compose(mu_table[(i, a)], hd.unit())),
            _map_tensor(mu_table[(i, a)]).scale(H.field.from_int(2))))
    return rep


def _mutant(H, which, col=0):
    """H with one coefficient bumped by one: the first of column col of
    the comultiplication or of the antipode, as the benchmark's
    verify-sweep mutants are built (there with col = 0)."""
    f = H.comul if which == "comul" else H.antipode
    cols = {i: dict(c) for i, c in f.cols.items()}
    idx = next(iter(cols[col]))
    cols[col][idx] = cols[col][idx] + H.field.one()
    f = LinearMap(f.domain, f.codomain, cols, H.field)
    comul, antipode = (f, H.antipode) if which == "comul" else (H.comul, f)
    return QuasiHopfAlgebra(H.algebra, comul, H.counit, H.phi, antipode,
                            H.alpha, H.beta, phi_inv=H.phi_inv,
                            name="%s-mut-%s" % (H.name, which))


# (field, corpus entry, mutant or None, column of the mutant). The z3
# mutants fail at later inputs and indices than the z2_quasi ones, which
# fail every check at its first inputs.
HEISENBERG_CASES = (
    [("Q", key, None, 0) for key in corpus()]
    + [("GF(7)", "z2_quasi", None, 0), ("GF(7)", "z3", None, 0),
       ("Q", "z2_quasi", "comul", 0), ("Q", "z2_quasi", "antipode", 0),
       ("Q", "z3", "comul", 2), ("GF(7)", "z3", "antipode", 1)])


@pytest.mark.parametrize("field_name,key,which,col", HEISENBERG_CASES)
def test_heisenberg_matches_per_input_reference(all_corpus, field_name, key,
                                                which, col):
    H = (corpus(PrimeField(7)) if field_name == "GF(7)" else all_corpus)[key]
    if which is not None:
        H = _mutant(H, which, col)
    got = verify_heisenberg_double(H)
    want = _reference_verify(H)
    assert got.to_json() == want.to_json()
    assert got.passed == (which is None)


@pytest.mark.parametrize("field_name,key", (("Q", "z2_quasi"),
                                            ("Q", "z2z2_twisted"),
                                            ("Q", "s3"), ("GF(7)", "z3")))
def test_double_maps_match_reference(all_corpus, field_name, key):
    """mu^{-1}, the unit and the action on End(H), which the suite reaches
    only through the tables, agree with the per-term reference."""
    H = (corpus(PrimeField(7)) if field_name == "GF(7)" else all_corpus)[key]
    hd, ref = HeisenbergDouble(H), _ReferenceDouble(H)
    n = H.dim
    assert hd.unit().cols == ref.unit().cols
    endos = [LinearMap(H.basis, (H.basis,), {l: {(k,): H.field.one()}},
                       H.field) for k in range(n) for l in range(n)]
    endos.append(hd.mu(Tensor(
        (H.basis, H.dual.basis), {(i, a): H.field.from_int(i * n + a + 1)
                                  for i in range(n) for a in range(n)},
        H.field)))
    for u in endos:
        assert hd.mu_inv(u) == ref.mu_inv(u), u.cols
        for h in range(n):
            assert hd.act(H.e(h), u).cols == ref.act(H.e(h), u).cols, (h, u.cols)


@pytest.mark.parametrize("key", ("z2", "z2_quasi", "z2z2_twisted"))
def test_hom_smash(all_corpus, key):
    rep = verify_hom_smash(canonical_right_comodule(all_corpus[key]))
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


def _smash_mutant(qs, rng):
    """qs with seeded changes to its product table, its unit and its
    H-action: a quasi-smash product that nu no longer carries to the
    structures on Hom(H, A), so that both verifiers below fail."""
    field = qs.H.field
    out = copy.copy(qs)
    unit = qs.algebra.unit + Tensor(qs.algebra.unit.spaces, {
        (rng.randrange(qs.dim),): field.one()}, field)
    # a copy of the product algebra, keys and factors kept, built again
    # on the changed table and unit
    out.algebra = copy.copy(qs.algebra)
    FinAlgebra.__init__(out.algebra, qs.basis, _table_mutant(
        qs.algebra, rng, 2).table, unit, field)
    out.action = _table_mutant(qs.action, rng, 2)
    return out


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
def test_hom_smash_matches_per_input_reference(field, subgroup_comodule,
                                               monkeypatch):
    """verify_hom_smash, whose checks compare tables on every basis input
    at once, against a verbatim copy of the per-input version it
    replaced (reference_builders.verify_hom_smash), records compared as
    JSON: on z2, z2_quasi, z3 and k<a>, on seeded mutants of Delta and S
    (through the canonical comodule algebra) and of rho, and with seeded
    mutants of the quasi-smash product in both, which fail every check
    but nu-inv-left and nu-inv-right. On the same comodule algebras,
    transport_module's actions against the per-entry builders they
    replaced (reference_builders.transport_module)."""
    rng = random.Random(5)
    entries = corpus(field)
    cas = []
    for key in ("z2", "z2_quasi", "z3"):
        H = entries[key]
        cas.append(canonical_right_comodule(H))
        cas += [canonical_right_comodule(_mutant(H, which,
                                                 rng.randrange(H.dim)))
                for which in ("comul", "antipode")]
    ka = subgroup_comodule(field)
    cas.append(ka)
    for base in (ka, cas[6]):
        cas += [RightComoduleAlgebra(base.H, base.algebra,
                                     _skewed(base.coaction, rng, count),
                                     base.phi_rho, base.phi_rho_inv,
                                     name=base.name) for count in (1, 2)]
    for ca in cas:
        assert verify_hom_smash(ca).to_json() == \
            ref.verify_hom_smash(ca).to_json(), ca.name
        V = canonical_first_module(ca)
        theta, theta_inv = module_isomorphism(ca)
        got = transport_module(V, theta, theta_inv)
        want = ref.transport_module(V, theta, theta_inv)
        assert (got.left_action.table, got.right_action.table) == \
            (want.left_action.table, want.right_action.table), ca.name
    failed = set()
    for ca in cas:
        bad = _smash_mutant(quasi_smash(ca), rng)
        for module in (products, ref):
            monkeypatch.setattr(module, "quasi_smash", lambda _: bad)
        got = verify_hom_smash(ca)
        assert got.to_json() == ref.verify_hom_smash(ca).to_json(), ca.name
        failed |= {r.tag for r in got.records if not r.passed}
        monkeypatch.undo()
    assert failed == {"nu-multiplicative", "nu-unit", "nu-equivariant"}


def test_crossed_decomposition(all_corpus):
    rep = verify_crossed_decomposition(all_corpus["z2_quasi"])
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


def test_crossed_decomposition_builds_few_fractions(monkeypatch):
    """On the fixed twist of k[Z/3] each product table has 17,496
    nonzero entries but 34 distinct values; lowering shares one Fraction
    per value instead of building one per entry (35,791 when it did)."""
    HF = twist(*fixed_twist(3, QQ))
    built = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(None)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(QQ, "_shared", {})
    monkeypatch.setattr("qhopf.fields.Fraction", Counting)
    assert verify_crossed_decomposition(HF).passed
    assert len(built) <= 64


# ----------------------------------------------------------------------
# the staged builders against the term-by-term evaluators they replace


def _pairwise(factors, pair_evaluator, unit, field):
    """The FinAlgebra of a product, built straight from an evaluator of
    single pairs that returns each product as a tensor over the factor
    legs, in field arithmetic."""
    space = FlatSpace(factors, field)
    keys = [space.split(i) for i in range(space.dim)]
    mult = {}
    for i, key1 in enumerate(keys):
        for j, key2 in enumerate(keys):
            t = pair_evaluator(key1, key2)
            assert t.spaces == space.factors
            vec = {space.join(k): c for k, c in t.data.items() if c}
            if vec:
                mult[(i, j)] = vec
    return FinAlgebra(space.basis, mult, space.pack(unit), field)


def _quasi_smash_by_terms(ca, dual):
    H = ca.H

    def evaluator(key1, key2):
        (a, p), (a2, q) = key1, key2
        src = ca.coact(ca.e(a2)).tensor(ca.phi_rho_inv)
        pp, qq = dual.e(p), dual.e(q)
        return assemble(src, lambda a0, a1, x1, x2, x3: ca.algebra.mulc(
            ca.e(a), ca.e(a0), ca.e(x1)).tensor(dual.conv.mulc(
                dual.hit_r(pp, H.mul(H.e(a1), H.e(x2))),
                dual.hit_r(qq, H.e(x3)))))

    return _pairwise((ca.basis, dual.basis), evaluator,
                     ca.unit().tensor(dual.eps_functional()), H.field)


def _smash_by_terms(ma):
    H = ma.H
    field = H.field
    zero = field.zero()
    hmult = H.algebra.table
    amult = ma.algebra.table
    act = ma.action.table
    dcols = H.comul.cols
    phi_data = list(H.phi_inv.data.items())
    factors = (ma.basis, H.basis)

    def act_mul(left, hx, a2):
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

    def evaluator(key1, key2):
        (a, h), (a2, h2) = key1, key2
        out = {}
        for (h1, hh), c0 in dcols.get(h, {}).items():
            for (x1, x2, x3), c1 in phi_data:
                left = act.get((x1, a))
                if not left:
                    continue
                hx = hmult.get((x2, h1))
                if not hx:
                    continue
                avec = act_mul(left, hx, a2)
                if not avec:
                    continue
                hvec = {}
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
        return Tensor(factors, out, field)

    return _pairwise(factors, evaluator, ma.unit().tensor(H.unit()), field)


def _generalized_smash_by_terms(ma, cb):
    H = ma.H
    field = H.field
    zero = field.zero()
    hmult = H.algebra.table
    amult = ma.algebra.table
    bmult = cb.algebra.table
    act = ma.action.table
    ccols = cb.coaction.cols
    phi_data = list(cb.phi_lam_inv.data.items())
    factors = (ma.basis, cb.basis)

    merged_cache, avec_cache, bvec_cache = {}, {}, {}

    def merged_left(a, b):
        got = merged_cache.get((a, b))
        if got is not None:
            return got
        acc = {}
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
                        acc[k] = acc.get(k, zero) + c01 * cla * ch
        got = merged_cache[(a, b)] = list(acc.items())
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
        out = {}
        for (la, hidx, x3, b0), c0 in merged_left(a, b):
            avec = avec_for(la, hidx, a2)
            bvec = bvec_for(x3, b0, b2)
            for aa, caa in avec.items():
                cx = c0 * caa
                for bb, cbb in bvec.items():
                    key = (aa, bb)
                    out[key] = out.get(key, zero) + cx * cbb
        return Tensor(factors, out, field)

    return _pairwise(factors, evaluator, ma.unit().tensor(cb.unit()), field)


def _two_sided_by_terms(rca, lcb, dual):
    H = rca.H
    field = H.field
    nH = H.dim
    A, B = rca.algebra, lcb.algebra
    core = {}
    for j in range(nH):
        for k in range(nH):
            src = rca.phi_rho_inv.tensor(lcb.phi_lam_inv)
            ej, ek = dual.e(j), dual.e(k)
            core[(j, k)] = assemble(src, lambda x1, x2, x3, y1, y2, y3:
                                    rca.e(x1).tensor(dual.conv.mulc(
                                        dual.hit_l(H.e(y1), dual.hit_r(ej, H.e(x2))),
                                        dual.hit_l(H.e(y2), dual.hit_r(ek, H.e(x3))))
                                    ).tensor(lcb.e(y3)))
    factors = (A.basis, dual.basis, B.basis)
    amult, bmult = A.table, B.table
    zero = field.zero()
    dcols = dual.comul.cols
    rhit, lhit = {}, {}
    for j in range(nH):
        for a in range(A.dim):
            vec = right_hit(rca, dual.e(j), rca.e(a)).data
            if vec:
                rhit[(j, a)] = {i: c for (i,), c in vec.items()}
    for b in range(B.dim):
        for k in range(nH):
            vec = left_hit(lcb, lcb.e(b), dual.e(k)).data
            if vec:
                lhit[(b, k)] = {i: c for (i,), c in vec.items()}

    def evaluator(key1, key2):
        (a, j, b), (a2, k, b2) = key1, key2
        out = {}
        for (j1, j2), c1 in dcols.get(j, {}).items():
            hv = rhit.get((j1, a2))
            if not hv:
                continue
            apart = {}
            for t, ct in hv.items():
                for r, cr in amult.get((a, t), {}).items():
                    apart[r] = apart.get(r, zero) + ct * cr
            for (k1, k2), c2 in dcols.get(k, {}).items():
                hw = lhit.get((b, k2))
                if not hw:
                    continue
                bsuffix = {}
                for t, ct in hw.items():
                    for r, cr in bmult.get((t, b2), {}).items():
                        bsuffix[r] = bsuffix.get(r, zero) + ct * cr
                c12 = c1 * c2
                for (x1, m, y3), c3 in core[(j2, k1)].data.items():
                    c123 = c12 * c3
                    for ai, c4 in apart.items():
                        avec = amult.get((ai, x1), {})
                        c1234 = c123 * c4
                        for bi, c5 in bsuffix.items():
                            base = c1234 * c5
                            for ar, ca_ in avec.items():
                                cba = base * ca_
                                for br, cb_ in bmult.get((y3, bi), {}).items():
                                    key = (ar, m, br)
                                    out[key] = out.get(key, zero) + cba * cb_
        return Tensor(factors, out, field)

    unit = A.unit.tensor(dual.eps_functional()).tensor(B.unit)
    return _pairwise(factors, evaluator, unit, field)


def _twisted_z3():
    H = cyclic_group_algebra(3)
    f = H.field.from_int
    x = Tensor((H.basis,), {(0,): f(-1), (1,): f(1)}, H.field)
    y = Tensor((H.basis,), {(0,): f(-2), (1,): f(1), (2,): f(1)}, H.field)
    F = H.unit().tensor(H.unit()) + x.tensor(y)
    assert is_gauge(H, F)
    return twist(H, F)


STAGED_CASES = (
    [("Q", key) for key in corpus()]
    + [("GF(7)", "z2_quasi"), ("GF(7)", "z3"), ("GF(7)", "s3"),
       ("Q", "z3_twisted")])


@pytest.mark.parametrize("field_name,key", STAGED_CASES)
def test_staged_products_match_term_sums(all_corpus, field_name, key):
    if key == "z3_twisted":
        H = _twisted_z3()
    elif field_name == "GF(7)":
        H = corpus(PrimeField(7))[key]
    else:
        H = all_corpus[key]
    rca, lcb = canonical_right_comodule(H), canonical_left_comodule(H)
    qs = quasi_smash(rca)
    pairs = (
        (qs.algebra, _quasi_smash_by_terms(rca, H.dual)),
        (smash_product(qs), _smash_by_terms(qs)),
        (generalized_smash(qs, lcb), _generalized_smash_by_terms(qs, lcb)),
        (two_sided_crossed(rca, lcb), _two_sided_by_terms(rca, lcb, H.dual)),
    )
    # the builders sum lifted integers; every entry they lower is a
    # scalar of the field's own type, as the references' are
    scalar = Fraction if field_name == "Q" else Fp
    for got, want in pairs:
        assert got.table == want.table, got.name
        assert got.unit == want.unit, got.name
        assert all(type(c) is scalar for vec in got.table.values()
                   for c in vec.values()), got.name


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
def test_two_sided_crossed_over_subalgebras_matches_term_sum(field):
    """A >< H* >< B for A = B = k<b> in k[Z/2 x Z/2], b = e_2 of H: the
    coactions e_i -> e_i (x) e_2i and e_i -> e_2i (x) e_i put a
    different index on the H-leg than on the A-leg, so hit tables read
    from the wrong leg of a coaction do not pass by accident (with H
    itself, rho = Delta = g (x) g is symmetric)."""
    H = corpus(field)["z2z2"]
    one = field.one()
    b = Basis(("e", "b"), "k<b>")
    unit = Tensor((b,), {(0,): one}, field)
    alg = FinAlgebra(b, {(i, j): {i ^ j: one} for i in (0, 1)
                         for j in (0, 1)}, unit, field)
    phi = unit.tensor(H.unit()).tensor(H.unit())
    rca = RightComoduleAlgebra(H, alg, LinearMap(
        b, (b, H.basis), {i: {(i, 2 * i): one} for i in (0, 1)}, field),
        phi, name="k<b>")
    lcb = LeftComoduleAlgebra(H, alg, LinearMap(
        b, (H.basis, b), {i: {(2 * i, i): one} for i in (0, 1)}, field),
        phi.permute((1, 2, 0)), name="k<b>")
    got = two_sided_crossed(rca, lcb)
    want = _two_sided_by_terms(rca, lcb, H.dual)
    assert got.table == want.table
    assert got.unit == want.unit


def test_crossed_decomposition_reports_first_difference(all_corpus):
    H = all_corpus["z2_quasi"]
    rca, lcb = canonical_right_comodule(H), canonical_left_comodule(H)
    qs = quasi_smash(rca)
    gsm = generalized_smash(qs, lcb)
    sm = smash_product(qs)
    assert gsm.table == sm.table
    # bump one coefficient of a copy of the table, in the second of two
    # differing pairs, so the report must name the lexicographically
    # first one
    mult = {key: dict(vec) for key, vec in gsm.table.items()}
    first, second = sorted(mult)[5], sorted(mult)[9]
    k1, k2 = sorted(mult[first])[0], sorted(mult[second])[-1]
    one = H.field.one()
    mult[second][k2] = mult[second][k2] + one
    mult[first][k1] = mult[first][k1] + one
    bumped = FinAlgebra(gsm.basis, mult, gsm.unit, H.field)
    rep = VerificationReport("bumped")
    _same_table(rep, "gsm-vs-crossed", bumped, sm)
    rec, unit_rec = rep.records
    assert rec.tag == "gsm-vs-crossed" and not rec.passed
    assert unit_rec.tag == "gsm-vs-crossed-unit" and unit_rec.passed
    ce = rec.counterexample
    assert ce["inputs"] == list(first)
    assert ce["index"] == [k1]
    f = H.field
    assert ce["lhs"] == scalar_str(f, mult[first][k1])
    assert ce["rhs"] == scalar_str(f, sm.table[first][k1])
    assert ce["lhs"] != ce["rhs"]
    # the untouched products still coincide, with no pair scanned
    rep2 = VerificationReport("equal")
    _same_table(rep2, "gsm-vs-crossed", gsm, sm)
    assert [r.passed for r in rep2.records] == [True, True]


# sha256 of the files `qhopf product` writes, recorded before the product
# builders moved to lifted integers; the inputs are read by relative path,
# so the provenance in each file names the same inputs on every run
PRODUCT_SHA256 = {
    "z2_quasi": {
        "quasi-smash": "edb918033886c8a1c3bd8c2b4b5333a8"
                       "d120e7c204027bdb7166902499a147a5",
        "smash": "f88fa508b8b7563dbcee527dfeaffa8a"
                 "238d5b989b9955d36a69aeb3dc004b3d",
        "generalized-smash": "fde5fb97603cc0a6f2b44aed1cc010d0"
                             "e0c9d53fe038ea7eb0a7f030735c8597",
        "two-sided": "1d629703c9572b5c8807be4c389d2510"
                     "6e156e92415a9f3067cc8b15f1df0c40",
    },
    "z3_twisted": {
        "quasi-smash": "e72b08f4abdb9a014cb9cf11b83fbaf5"
                       "5f1b8fe044f0bd51f0e0a701c809ddd1",
        "smash": "09f586740dfbbe8e075e0a05113ffb03"
                 "eb13204cd00e444cc24e7474c30a36bb",
        "generalized-smash": "dc25fbcf33779faa055104d4fcfb736d"
                             "1cf00af7e311fc5bee80644761002fa6",
        "two-sided": "66c519ee5c1f983116113ad4e047fd76"
                     "fa9ee4bf2fd3a21d466ee23ef1c8918d",
    },
}


@pytest.mark.parametrize("key", sorted(PRODUCT_SHA256))
def test_product_files_unchanged(all_corpus, key, tmp_path, monkeypatch):
    H = _twisted_z3() if key == "z3_twisted" else all_corpus[key]
    monkeypatch.chdir(tmp_path)
    pathlib.Path("ca.json").write_text(
        sf.serialize(sf.to_doc(canonical_right_comodule(H))))
    pathlib.Path("lcb.json").write_text(
        sf.serialize(sf.to_doc(canonical_left_comodule(H))))
    runs = (("quasi-smash", ["ca.json"], "qs.json"),
            ("smash", ["qs.json"], "sm.json"),
            ("generalized-smash", ["qs.json", "lcb.json"], "gsm.json"),
            ("two-sided", ["ca.json", "lcb.json"], "ts.json"))
    assert sorted(kind for kind, _, _ in runs) == sorted(cli.PRODUCT_KINDS)
    digests = {}
    for kind, inputs, out in runs:
        assert cli.main(["product", kind, *inputs, "--out", out]) == 0, kind
        digests[kind] = hashlib.sha256(
            pathlib.Path(out).read_bytes()).hexdigest()
    assert digests == PRODUCT_SHA256[key]
