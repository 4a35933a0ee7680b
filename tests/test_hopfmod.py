import random

import pytest

import qhopf.hopfmod as hopfmod
from qhopf import (LegMul, LinearMap, PrimeField, QQ, RelativeHopfModule,
                   Tensor, TwoSidedHopfModule, canonical_first_module,
                   canonical_right_comodule, canonical_second_module,
                   check_relative_hopf_module, corpus, cyclic_right_submodule,
                   module_isomorphism, quasi_smash, relative_from_smash_module,
                   relative_from_two_sided, seeded_cyclic_module,
                   smash_action_from_two_sided, smash_product,
                   transport_module, twist, two_sided_from_relative,
                   verify_canonical_modules, verify_module_correspondence)
from qhopf.algebra import _clean_table

import reference_builders as ref
from reference_builders import (RowSpan, assemble, legmul_from_function,
                                map_from_function, precompose, smash_index)
from test_cli import fixed_twist
from test_lifted_builders import _crossed_chain


@pytest.mark.parametrize("key", ("z2", "z3", "z2_quasi"))
def test_canonical_modules(all_corpus, key):
    rep = verify_canonical_modules(canonical_right_comodule(all_corpus[key]))
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


@pytest.mark.parametrize("key", ("z2_quasi", "z3"))
def test_module_correspondence(all_corpus, key):
    rep = verify_module_correspondence(all_corpus[key], seeds=(0, 1, 2))
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


def test_seeded_cyclic_module_deterministic(hq):
    ca = canonical_right_comodule(hq)
    qs = quasi_smash(ca)
    sm = smash_product(qs)
    n1 = seeded_cyclic_module(qs, sm, 7)
    n2 = seeded_cyclic_module(qs, sm, 7)
    assert n1.basis.labels == n2.basis.labels
    for m in range(n1.dim):
        for u in range(qs.dim):
            assert n1.ract(n1.e(m), qs.e(u)) == n2.ract(n2.e(m), qs.e(u))
        for i in range(hq.dim):
            assert n1.lact(hq.e(i), n1.e(m)) == n2.lact(hq.e(i), n2.e(m))
    n3 = seeded_cyclic_module(qs, sm, 8)
    assert check_relative_hopf_module(n1).passed
    assert check_relative_hopf_module(n3).passed


def _cyclic_action_by_calls(prod, seed):
    """The cyclic submodule as a closure that solves for coordinates on
    every call, through the reference RowSpan: the reference for the
    table cyclic_right_submodule builds. Returns the basis labels and
    act(m, g)."""
    field = prod.field
    rng = random.Random(seed)
    vec = {}
    while not vec:
        vec = {i: field.from_int(c) for i in range(prod.dim)
               for c in [rng.randint(-2, 2)] if c}
    span = RowSpan(field)
    span.add(vec)

    def right_mul(w, g):
        acc = {}
        for i, c in w.items():
            ig = prod.mul(prod.e(i), prod.e(g))
            for (t,), ct in ig.data.items():
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
            for g in range(prod.dim):
                prod_vec = right_mul(row, g)
                if prod_vec and span.add(prod_vec):
                    changed = True
    rows = [dict(r) for r in span.rows]

    def act(m, g):
        coords = span.coordinates(right_mul(rows[m], g))
        assert coords is not None
        return {j: c for j, c in enumerate(coords) if c}

    return tuple("m%d" % i for i in range(span.rank)), act


@pytest.mark.parametrize("key", ("z2_quasi", "z3"))
def test_cyclic_table_matches_per_call_coordinates(all_corpus, key):
    sm = smash_product(quasi_smash(canonical_right_comodule(all_corpus[key])))
    for seed in (0, 1, 2):
        action = cyclic_right_submodule(sm, seed)
        labels, act = _cyclic_action_by_calls(sm, seed)
        assert action.left.labels == labels
        assert (action.right, action.out) == (sm.basis, action.left)
        assert action.table == {(m, g): act(m, g)
                                for m in range(len(labels))
                                for g in range(sm.dim) if act(m, g)}


def _cyclic_inputs(field, nongroup):
    """Smash products (A # H*) # H of the canonical comodule algebra over
    z2_quasi, z3, the non-group basis of k[Z/3] and a gauge twist of
    k[Z/3] with a dense Phi, and the final algebra of the crossed-module
    chain over z2."""
    entries = corpus(field)
    algebras = (entries["z2_quasi"], entries["z3"], nongroup(field),
                twist(*fixed_twist(3, field)))
    prods = {H.name: smash_product(quasi_smash(canonical_right_comodule(H)))
             for H in algebras}
    prods["z2-final"] = _crossed_chain(entries["z2"])[-1]
    return prods


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
def test_cyclic_module_matches_two_pass_reference(field, nongroup):
    """One closing pass gives the basis labels and the whole table of the
    two-pass reference (closure, then a table pass over the final rows),
    on every input and seeds 0 to 4."""
    for name, prod in _cyclic_inputs(field, nongroup).items():
        for seed in range(5):
            got = cyclic_right_submodule(prod, seed)
            want = ref.cyclic_right_submodule(prod, seed)
            assert (got.left, got.right, got.out) == (
                want.left, want.right, want.out), (name, seed)
            assert got.left.labels == want.left.labels, (name, seed)
            assert got.table == want.table, (name, seed)


def test_cyclic_module_reads_each_product_once(monkeypatch):
    """Over GF(7), the cyclic module of z3 at seed 0 calls coordinates
    rank * dim times in the pass that closes the span, every one of them
    in it, and at most dim * (1 + rank) times in all; a second full pass
    over the final rows would exceed it. Only a vector that grows the
    span is added: rank adds in all, the seed's included."""
    sm = smash_product(quasi_smash(canonical_right_comodule(
        corpus(PrimeField(7))["z3"])))
    calls = {"coordinates": [], "add": []}
    for name in calls:
        def counted(span, vec, name=name,
                    method=getattr(hopfmod.RowSpan, name)):
            out = method(span, vec)
            calls[name].append(out)
            return out

        monkeypatch.setattr(hopfmod.RowSpan, name, counted)
    action = cyclic_right_submodule(sm, 0)
    rank, dim = action.left.dim, sm.dim
    coords = calls["coordinates"]
    assert 1 < rank
    assert len(coords) <= dim * (1 + rank)
    assert all(c is not None for c in coords[-rank * dim:])
    assert calls["add"] == [True] * rank


# ----------------------------------------------------------------------
# the staged functors against their term-by-term sums


def _relative_action_by_terms(M, qs):
    """The right quasi-smash action of relative_from_two_sided, one
    builder call per Sweedler term and table entry:
    m (a # phi) = sum phi(S^{-1}(K2 m_(1) a_(1) p~2)) (K1 m_(0))(a_(0) p~1)."""
    ca, H = M.ca, M.H
    der = H.derived
    field = M.field
    pt = ca.p_tilde()
    K = assemble(der.U.tensor(der.f), lambda u1, u2, f1, f2: H.mul(
        H.S(H.e(u2)), H.e(f1)).tensor(H.mul(H.S(H.e(u1)), H.e(f2))))

    def r_col(m, u):
        a, p = qs.algebra.keys[u]
        src = K.tensor(M.e(m).map_leg(0, M.coaction)).tensor(
            ca.coact(ca.e(a))).tensor(pt)

        def builder(k1, k2, m0, m1, a0, a1, p1, p2):
            scalar = H.Sinv(H.mul(H.e(k2), H.e(m1), H.e(a1),
                                  H.e(p2))).data.get((p,))
            if not scalar:
                return Tensor.zero((M.basis,), field)
            return M.ract(M.lact(H.e(k1), M.e(m0)),
                          ca.algebra.mul(ca.algebra.e(a0),
                                         ca.algebra.e(p1))).scale(scalar)

        return assemble(src, builder)

    return legmul_from_function(M.basis, qs.basis, M.basis, r_col, field)


def _smash_action_by_terms(M, qs, sm):
    """smash_action_from_two_sided, one builder call per Sweedler term
    and table entry:
    m ((a # phi) # h) = sum phi(S^{-1}(f2 m_(1) a_(1) p~2))
                            S(h) f1 (m_(0) a_(0) p~1)."""
    ca, H = M.ca, M.H
    der = H.derived
    field = M.field
    pt = ca.p_tilde()
    nest = smash_index(qs, sm)

    def act(m, g):
        a, p, h = nest.split(g)
        src = der.f.tensor(M.e(m).map_leg(0, M.coaction)).tensor(
            ca.coact(ca.e(a))).tensor(pt)

        def builder(f1, f2, m0, m1, a0, a1, p1, p2):
            scalar = H.Sinv(H.mul(H.e(f2), H.e(m1), H.e(a1),
                                  H.e(p2))).data.get((p,))
            if not scalar:
                return Tensor.zero((M.basis,), field)
            return M.ract(M.lact(H.mul(H.S(H.e(h)), H.e(f1)), M.e(m0)),
                          ca.algebra.mul(ca.algebra.e(a0),
                                         ca.algebra.e(p1))).scale(scalar)

        return assemble(src, builder)

    return legmul_from_function(M.basis, sm.basis, M.basis, act, field)


def _coaction_by_terms(N, ca):
    """The coaction of two_sided_from_relative, with every factor formed
    again for each m, i and term:
    rho(m) = sum_i [S^{-1}(V2 g2) . m] . (q~1 # S^{-1}(V1 g1) ->
             (e^i o S) <- q~2) (x) e_i."""
    qs, H = N.qs, N.H
    der, dual = H.derived, H.dual
    field = N.field
    qt = ca.q_tilde()
    VG = H.tmul(der.V, der.f_inv)

    def coact_col(m):
        acc = Tensor.zero((N.basis, H.basis), field)
        for i in range(H.dim):
            e_i_s = precompose(dual, dual.e(i), H.antipode)
            vec = Tensor.zero((N.basis,), field)
            for (t1, t2), c1 in VG.data.items():
                m1 = N.lact(H.Sinv(H.e(t2)), N.e(m))
                if not m1.data:
                    continue
                for (q1, q2), c2 in qt.data.items():
                    func = dual.hit_r(
                        dual.hit_l(H.Sinv(H.e(t1)), e_i_s), H.e(q2))
                    if not func.data:
                        continue
                    u = qs.element(ca.e(q1), func)
                    vec = vec + N.ract(m1, u).scale(c1 * c2)
            acc = acc + vec.tensor(H.e(i))
        return acc

    return map_from_function(N.basis, (N.basis, H.basis), coact_col,
                                   field)


def _changed(f, rng, count):
    """f with count coefficients changed at seeded random positions, each
    by a nonzero amount (an entry may become zero or appear)."""
    field = f.field
    if isinstance(f, LegMul):
        table = {k: dict(v) for k, v in f.table.items()}
        keys = [(i, j) for i in range(f.left.dim) for j in range(f.right.dim)]
        outs = list(range(f.out.dim))
    else:
        table = {k: dict(v) for k, v in f.cols.items()}
        keys = list(range(f.domain.dim))
        outs = sorted(k for col in f.cols.values() for k in col)
    for key in rng.sample(keys, count):
        row = table.setdefault(key, {})
        idx = rng.choice(sorted(row) if row and rng.random() < 0.7 else outs)
        row[idx] = row.get(idx, field.zero()) + field.from_int(
            rng.choice((-2, -1, 1, 2, 3)))
    if isinstance(f, LegMul):
        # LegMul takes its table cleaned of the entries that became zero
        return LegMul(f.left, f.right, f.out, _clean_table(table), field)
    return LinearMap(f.domain, f.codomain, table, field)


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
@pytest.mark.parametrize("key", ("z2_quasi", "z3"))
def test_staged_functors_match_term_sums(key, field):
    """Both forward functors and the backward coaction agree with their
    term-by-term sums on every module the modules suite builds, and on
    seeded mutants that are not modules."""
    ca = canonical_right_comodule(corpus(field)[key])
    qs = quasi_smash(ca)
    sm = smash_product(qs)
    V = canonical_first_module(ca)
    theta, theta_inv = module_isomorphism(ca)
    relatives = [relative_from_smash_module(qs, sm, sm)] + \
        [seeded_cyclic_module(qs, sm, seed) for seed in (0, 1, 2)]
    two_sided = [V, canonical_second_module(ca),
                 transport_module(V, theta, theta_inv)] + \
        [two_sided_from_relative(N, ca) for N in relatives]

    rng = random.Random(11)
    for trial in range(6):
        M = two_sided[trial % 2]
        left, coaction = M.left_action, M.coaction
        if trial % 3 != 1:
            left = _changed(left, rng, 1 + trial % 3)
        if trial % 3 != 2:
            coaction = _changed(coaction, rng, 1 + (trial + 1) % 3)
        two_sided.append(TwoSidedHopfModule(ca, M.basis, left,
                                            M.right_action, coaction))
        N = relatives[trial % len(relatives)]
        relatives.append(RelativeHopfModule(
            qs, N.basis, _changed(N.h_action, rng, 1 + trial % 3),
            _changed(N.r_action, rng, 1 + (trial + 2) % 3)))

    for M in two_sided:
        N = relative_from_two_sided(M, qs)
        assert N.r_action.table == _relative_action_by_terms(M, qs).table
        assert smash_action_from_two_sided(M, qs, sm).table == \
            _smash_action_by_terms(M, qs, sm).table
        relatives.append(N)
    for N in relatives:
        assert two_sided_from_relative(N, ca).coaction.cols == \
            _coaction_by_terms(N, ca).cols
