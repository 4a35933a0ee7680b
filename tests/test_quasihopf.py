import random
from fractions import Fraction

import pytest

from qhopf import (DerivedElements, DualView, FinAlgebra, LinearMap,
                   NotGaugeError, PrimeField, QuasiHopfAlgebra, QQ, Tensor,
                   check_dual_bimodule_algebra, check_quasibialgebra,
                   check_quasihopf, corpus, cyclic_group_algebra,
                   invert_in_tensor_algebra, is_gauge, klein_twist,
                   normalize_alpha_beta, quasi_z2, twist, twisted_klein,
                   verify_core_identities, verify_heisenberg_double)
from qhopf.report import CheckRecord, scalar_str

from reference_builders import assemble, dual_mbia1, first_difference
from test_report import _mutant

F = Fraction

CORPUS_KEYS = ("z2", "z3", "z2z2", "s3", "z2_quasi", "z2z2_twisted")


# ----------------------------------------------------------------------
# axiom checks on the corpus


@pytest.mark.parametrize("key", CORPUS_KEYS)
def test_corpus_passes_axioms(all_corpus, key):
    H = all_corpus[key]
    rep = check_quasibialgebra(H)
    assert rep.passed, [r.tag for r in rep.records if not r.passed]
    rep = check_quasihopf(H)
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


def test_nontrivial_reassociators(all_corpus):
    for key in ("z2_quasi", "z2z2_twisted"):
        H = all_corpus[key]
        assert H.phi != H.unit_pow(3)
    for key in ("z2", "z3", "z2z2", "s3"):
        H = all_corpus[key]
        assert H.phi == H.unit_pow(3)


# ----------------------------------------------------------------------
# frozen reassociator oracles, computed here with plain Fractions


def test_quasi_z2_reassociator_oracle(hq):
    # with p = (e - x)/2: Phi = 1 - 2 p(x)p(x)p, so the coefficient at
    # basis triple (i, j, k) is [ijk == 000] - (-1)^(i+j+k)/4
    for i in range(2):
        for j in range(2):
            for k in range(2):
                expect = F(1 if (i, j, k) == (0, 0, 0) else 0) \
                    - F(-1 if (i + j + k) % 2 else 1, 4)
                assert hq.phi.coeff((i, j, k)) == expect
    assert hq.phi == hq.phi_inv  # this reassociator is an involution


def test_twisted_klein_reassociator_oracle():
    H = twisted_klein()
    # independent oracle: in the character picture the twisted
    # reassociator is (-1)^(xi1 (chi1 psi2 + chi2 psi1)); transform to the
    # group basis, where index g is the bit vector of the group element
    # and e_chi = (1/4) sum_g (-1)^(chi.g) g.
    def dot(x, y):
        return bin(x & y).count("1") & 1

    for g in range(4):
        for h in range(4):
            for k in range(4):
                acc = F(0)
                for chi in range(4):
                    for psi in range(4):
                        for xi in range(4):
                            exp = (xi & 1) * ((chi & 1) * ((psi >> 1) & 1)
                                              + ((chi >> 1) & 1) * (psi & 1))
                            sign = (exp + dot(chi, g) + dot(psi, h)
                                    + dot(xi, k)) & 1
                            acc += F(-1 if sign else 1, 64)
                assert H.phi.coeff((g, h, k)) == acc


# ----------------------------------------------------------------------
# single-coefficient mutations must be caught with a counterexample


def _mutate_phi(H):
    Hm = object.__new__(QuasiHopfAlgebra)
    Hm.__dict__ = dict(H.__dict__)
    bump = Tensor(H.phi.spaces, {(0, 0, 0): H.field.one()}, H.field)
    Hm.phi = H.phi + bump
    return Hm


def _mutate_comul(H):
    cols = {i: dict(col) for i, col in H.comul.cols.items()}
    idx = next(iter(cols[0]))
    cols[0] = dict(cols[0])
    cols[0][idx] = cols[0][idx] + H.field.one()
    comul = LinearMap(H.basis, (H.basis, H.basis), cols, H.field)
    return QuasiHopfAlgebra(H.algebra, comul, H.counit, H.phi, H.antipode,
                            H.alpha, H.beta, phi_inv=H.phi_inv, name=H.name)


def _mutate_antipode(H):
    cols = {i: dict(col) for i, col in H.antipode.cols.items()}
    idx = next(iter(cols[0]))
    cols[0][idx] = cols[0][idx] + H.field.one()
    s = LinearMap(H.basis, (H.basis,), cols, H.field)
    return QuasiHopfAlgebra(H.algebra, H.comul, H.counit, H.phi, s,
                            H.alpha, H.beta, phi_inv=H.phi_inv, name=H.name)


@pytest.mark.parametrize("mutate", [_mutate_phi, _mutate_comul,
                                    _mutate_antipode],
                         ids=["phi", "comul", "antipode"])
def test_mutations_detected_on_quasi_entry(hq, mutate):
    rep = check_quasihopf(mutate(hq))
    failing = [r for r in rep.records if not r.passed]
    assert failing
    assert any(r.counterexample for r in failing)


def test_supplied_bad_phi_inverse_rejected(hq):
    bad_inv = hq.phi_inv + hq.unit_pow(3)
    with pytest.raises(ValueError):
        QuasiHopfAlgebra(hq.algebra, hq.comul, hq.counit, hq.phi,
                         hq.antipode, hq.alpha, hq.beta, phi_inv=bad_inv)


def test_noninvertible_phi_rejected(hq):
    zero3 = Tensor(hq.phi.spaces, {}, hq.field)
    with pytest.raises(ValueError):
        QuasiHopfAlgebra(hq.algebra, hq.comul, hq.counit, zero3,
                         hq.antipode, hq.alpha, hq.beta)


# ----------------------------------------------------------------------
# gauge twisting


def test_identity_twist_is_fixpoint(all_corpus):
    for H in all_corpus.values():
        F1 = H.unit().tensor(H.unit())
        assert is_gauge(H, F1)
        HF = twist(H, F1)
        assert HF.phi.data == H.phi.data
        assert HF.phi_inv.data == H.phi_inv.data
        assert HF.comul.cols == H.comul.cols
        assert HF.alpha.data == H.alpha.data
        assert HF.beta.data == H.beta.data
        assert HF.algebra.mult == H.algebra.mult


def test_twist_round_trip(all_corpus):
    from qhopf import invert_in_tensor_algebra
    H = all_corpus["z2z2"]
    Fw = klein_twist()
    HF = twist(H, Fw)
    rep = check_quasihopf(HF)
    assert rep.passed
    Fw_inv = invert_in_tensor_algebra((H.algebra, H.algebra), Fw)
    back = twist(HF, Fw_inv)
    assert back.phi.data == H.phi.data
    assert back.comul.cols == H.comul.cols
    assert back.alpha.data == H.alpha.data
    assert back.beta.data == H.beta.data


def test_non_gauge_rejected(all_corpus):
    H = all_corpus["z2"]
    # counit-normalized but not invertible: 1(x)1 minus its own support
    zero = Tensor((H.basis, H.basis), {}, H.field)
    assert not is_gauge(H, zero)
    with pytest.raises(NotGaugeError):
        twist(H, zero)
    # invertible but wrong counit normalization
    doubled = H.unit().tensor(H.unit()).scale(H.field.from_int(2))
    assert not is_gauge(H, doubled)
    with pytest.raises(NotGaugeError):
        twist(H, doubled)


def seeded_gauge(H, rng):
    """A counital gauge twist F = 1(x)1 + x(x)y with small integer
    coefficients, eps(x) = eps(y) = 0 and x, y supported on the unit and
    on every other basis element (on one other, seeded, when dim > 4, so
    that the m^3-unknown solve it is checked against stays short)."""
    one = H.unit()
    (u,), = one.data
    others = [i for i in range(H.dim) if i != u]
    size = len(others) if H.dim <= 4 else 1
    while True:
        vecs = []
        for _ in range(2):
            coeffs = {i: rng.randint(-2, 2) for i in rng.sample(others, size)}
            coeffs[u] = -sum(coeffs.values())
            vecs.append(Tensor((H.basis,), {(i,): H.field.from_int(c)
                                            for i, c in coeffs.items()},
                               H.field))
        F = one.tensor(one) + vecs[0].tensor(vecs[1])
        if is_gauge(H, F):
            return F


TWIST_CASES = CORPUS_KEYS + ("k[Z/2]", "k[Z/3]", "k[Z/4]")


@pytest.mark.parametrize("key", TWIST_CASES)
def test_closed_form_phi_inverse_matches_solve(all_corpus, key):
    H = (cyclic_group_algebra(int(key[4])) if key.startswith("k[Z/")
         else all_corpus[key])
    HF = twist(H, seeded_gauge(H, random.Random("closed-form:" + key)))
    assert HF.phi_inv == invert_in_tensor_algebra((H.algebra,) * 3, HF.phi)


def test_twist_refuses_comul_that_is_not_an_algebra_map():
    # Delta(1) = 2 (1 (x) 1): the closed-form inverse of the twisted
    # reassociator fails the constructor's two-sided check
    H = _mutate_comul(cyclic_group_algebra(3))
    F = seeded_gauge(H, random.Random("comul-mutant"))
    with pytest.raises(ValueError, match="comultiplication is not an "
                                         "algebra map") as info:
        twist(H, F)
    assert not isinstance(info.value, NotGaugeError)


def test_group_like_gauge_keeps_trivial_reassociator():
    # F = 1 - 2 p(x)p on k[Z/2] is a gauge transformation whose twisted
    # reassociator stays trivial: the deformation of quasi_z2 is not a
    # twist of the group algebra
    H = cyclic_group_algebra(2)
    p = (H.e(0) - H.e(1)).scale(F(1, 2))
    Fw = H.unit().tensor(H.unit()) - p.tensor(p).scale(F(2))
    assert is_gauge(H, Fw)
    HF = twist(H, Fw)
    assert HF.phi == H.unit_pow(3)
    hq = quasi_z2()
    assert HF.phi != hq.phi


# ----------------------------------------------------------------------
# derived elements and identity suites


def test_core_identities_on_quasi_entries(all_corpus):
    for key in ("z2_quasi", "z2z2_twisted"):
        rep = verify_core_identities(all_corpus[key])
        assert rep.passed, [r.tag for r in rep.records if not r.passed]


def test_antipode_twist_relates_phi_to_reversed_phi(hq):
    # twisting by the derived element f turns the reassociator into
    # (S(x)S(x)S) of the reversed reassociator
    der = DerivedElements(hq)
    HF = twist(hq, der.f)
    expected = hq.phi.permute((2, 1, 0))
    for leg in range(3):
        expected = expected.map_leg(leg, hq.antipode)
    assert HF.phi == expected


def test_derived_twist_element_invertible(hq):
    der = DerivedElements(hq)
    unit2 = hq.unit().tensor(hq.unit())
    assert hq.tmul(der.f, der.f_inv) == unit2
    assert hq.tmul(der.f_inv, der.f) == unit2
    assert der.f.map_leg(0, hq.counit) == hq.unit()
    assert der.f.map_leg(1, hq.counit) == hq.unit()


DERIVED_FIELDS = ("f", "f_inv", "gamma", "delta", "p_R", "q_R", "p_L", "q_L",
                  "U", "V")


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_dual_and_derived_cached_per_object(field):
    for key in ("z2_quasi", "z2z2_twisted"):
        H = corpus(field)[key]
        assert H.dual is H.dual
        assert H.derived is H.derived
        assert H.dual.H is H and H.derived.H is H
        fresh = DerivedElements(H)
        for name in DERIVED_FIELDS:
            assert getattr(H.derived, name) == getattr(fresh, name), (key, name)
        assert H.dual.conv.mult == DualView(H).conv.mult
    # a copy of the object dictionary with another Phi, made after the
    # derived elements were built, must not reuse them
    Hm = _mutate_phi(H)
    assert Hm.derived.H is Hm and Hm.dual.H is Hm
    assert Hm.derived is not H.derived
    fresh = DerivedElements(Hm)
    for name in DERIVED_FIELDS:
        assert getattr(Hm.derived, name) == getattr(fresh, name), name
    assert any(getattr(Hm.derived, name) != getattr(H.derived, name)
               for name in DERIVED_FIELDS)


@pytest.mark.parametrize("key", ("z2_quasi", "z2z2_twisted"))
def test_derived_elements_built_on_first_read(key):
    """The Heisenberg double reads p_L and q_L only, so verifying it on
    a fresh H builds neither the twist f nor U."""
    H = corpus(QQ)[key]
    assert verify_heisenberg_double(H).passed
    built = {name for name in DERIVED_FIELDS if name in vars(H.derived)}
    assert built == {"p_L", "q_L"}
    # U is built from f^{-1} and q_R, and f^{-1} from delta
    assert H.derived.U == DerivedElements(H).U
    built = {name for name in DERIVED_FIELDS if name in vars(H.derived)}
    assert built == {"p_L", "q_L", "delta", "f_inv", "q_R", "U"}


def test_dual_bimodule_algebra(all_corpus):
    for key in ("z2", "z3", "z2_quasi", "z2z2_twisted"):
        rep = check_dual_bimodule_algebra(DualView(all_corpus[key]))
        assert rep.passed


def test_normalized_alpha_beta_still_quasi_hopf(hq):
    Hn = normalize_alpha_beta(hq)
    rep = check_quasihopf(Hn)
    assert rep.passed
    assert Hn.eps(Hn.alpha) == Hn.field.one()


def test_antipode_inverse(all_corpus):
    H = all_corpus["s3"]
    for i in range(H.dim):
        assert H.Sinv(H.S(H.e(i))) == H.e(i)
        assert H.S(H.Sinv(H.e(i))) == H.e(i)


def test_assemble_accumulates_without_touching_terms(hq):
    """The references' assemble adds each term into a fresh
    accumulator: the tensors the builder returns are unchanged, the sum
    equals the one made with +, and a zero source or a term of another
    shape is refused."""
    terms = {i: hq.mul(hq.e(i), hq.alpha) for i in range(hq.dim)}
    before = {i: dict(t.data) for i, t in terms.items()}
    source = hq.phi
    assert len(source.data) > len({idx[0] for idx in source.data}) > 1
    got = assemble(source, lambda i, j, k: terms[i])
    want = Tensor.zero((hq.basis,), hq.field)
    for (i, j, k), c in source.data.items():
        want = want + terms[i].scale(c)
    assert got == want
    assert {i: t.data for i, t in terms.items()} == before
    with pytest.raises(ValueError):
        assemble(Tensor.zero(source.spaces, hq.field),
                 lambda i, j, k: terms[i])
    seen = []

    def builder(i, j, k):
        seen.append(i)
        return terms[i] if len(seen) == 1 else terms[i].tensor(hq.e(0))

    with pytest.raises(ValueError):
        assemble(source, builder)


# ----------------------------------------------------------------------
# records that join two identities: q5, q6 and mbia2


FIELDS = pytest.mark.parametrize("field", (QQ, PrimeField(7)),
                                 ids=("Q", "GF7"))


def _record(rep, tag):
    return {r.tag: r for r in rep.records}[tag]


@FIELDS
def test_q5_fails_when_only_its_scalars_cancel(field):
    """On k[Z/2] with S(g) = -g, sum S(g1) alpha g2 = -1 while
    eps(g) alpha = 1, and sum g1 beta S(g2) = -1 while eps(g) beta = 1.
    The tensor product of the two sides is 1 (x) 1 either way; compared
    one identity at a time, q5 fails at the first."""
    H = corpus(field)["z2"]
    one = field.one()
    minus = LinearMap(H.basis, (H.basis,),
                      {0: {(0,): one}, 1: {(1,): -one}}, field)
    Hm = QuasiHopfAlgebra(H.algebra, H.comul, H.counit, H.phi, minus,
                          H.alpha, H.beta, H.phi_inv, name="z2-minus-S")
    rec = _record(check_quasihopf(Hm), "q5")
    assert rec.as_dict() == _ref_q5(Hm).as_dict()
    assert rec.counterexample == {"index": [0, 0], "inputs": [1],
                                  "lhs": scalar_str(field, -one),
                                  "rhs": "1"}


@FIELDS
def test_q6_fails_when_only_its_scalars_cancel(field):
    """On k[Z/2] with Phi = 2 (1 (x) 1 (x) 1) and Phi^{-1} = 1/2 (1 (x)
    1 (x) 1), sum X1 beta S(X2) alpha X3 = 2 and sum S(x1) alpha x2 beta
    S(x3) = 1/2: their tensor product is 1 (x) 1, and q6 must still
    fail."""
    H = corpus(field)["z2"]
    one = H.unit()
    spaces = (H.basis,) * 3
    two, half = field.from_int(2), field.one() / field.from_int(2)
    phi = Tensor(spaces, {(0, 0, 0): two}, field)
    phi_inv = Tensor(spaces, {(0, 0, 0): half}, field)
    Hm = QuasiHopfAlgebra(H.algebra, H.comul, H.counit, phi, H.antipode,
                          one, one, phi_inv, name="z2-scaled-phi")
    rec = _record(check_quasihopf(Hm), "q6")
    assert not rec.passed
    assert rec.counterexample == {"index": [0, 0], "lhs": "2", "rhs": "1"}


def _per_identity(tag, inputs_iter, pair_fn):
    """The record of a check whose pair_fn returns the sides of two
    identities, ((lhs1, rhs1), (lhs2, rhs2)), scanned one identity at a
    time: it fails at the first inputs where either identity fails.
    Where lhs1 (x) lhs2 and rhs1 (x) rhs2 differ, it reports their first
    difference, as the scan that compared only them did; where they
    agree, the first differing index of the first identity that fails,
    led by 0 or 1."""
    for inputs in inputs_iter:
        (l1, r1), (l2, r2) = sides = pair_fn(*inputs)
        diff = first_difference(l1.tensor(l2), r1.tensor(r2))
        for which, (lhs, rhs) in enumerate(sides):
            if diff is None:
                diff = first_difference(lhs, rhs)
                if diff is not None:
                    diff["index"] = [which] + diff["index"]
        if diff is not None:
            diff["inputs"] = list(inputs)
            return CheckRecord(tag, False, diff)
    return CheckRecord(tag, True)


def _ref_q5(H):
    def sides(i):
        h = H.e(i)
        d = H.delta(h)
        eh = H.eps(h)
        rhs_a, rhs_b = H.alpha.scale(eh), H.beta.scale(eh)
        if not d.data:
            zero = Tensor.zero((H.basis,), H.field)
            return (zero, rhs_a), (zero, rhs_b)
        return ((assemble(d, lambda a, b: H.mul(H.S(H.e(a)), H.alpha,
                                                H.e(b))), rhs_a),
                (assemble(d, lambda a, b: H.mul(H.e(a), H.beta,
                                                H.S(H.e(b)))), rhs_b))

    return _per_identity("q5", ((i,) for i in range(H.dim)), sides)


def _ref_mbia2(dual):
    H = dual.H
    n = H.dim

    def sides(i, a, b):
        h, phi, psi = H.e(i), dual.e(a), dual.e(b)
        d = H.delta(h)
        # an empty Sweedler sum is zero
        rhs1 = rhs2 = Tensor.zero((dual.basis,), H.field)
        if d.data:
            rhs1 = assemble(d, lambda h1, h2: dual.conv.mulc(
                dual.hit_l(H.e(h1), phi), dual.hit_l(H.e(h2), psi)))
            rhs2 = assemble(d, lambda h1, h2: dual.conv.mulc(
                dual.hit_r(phi, H.e(h1)), dual.hit_r(psi, H.e(h2))))
        return ((dual.hit_l(h, dual.conv.mulc(phi, psi)), rhs1),
                (dual.hit_r(dual.conv.mulc(phi, psi), h), rhs2))

    return _per_identity("mbia2", ((i, a, b) for i in range(n)
                                   for a in range(n) for b in range(n)),
                         sides)


def _mult_mutant(H, rng):
    """H with one coefficient of a product e_i e_j changed, i, j > 0:
    for a group algebra with trivial Phi the unit and the supplied
    inverse of Phi still check."""
    field = H.field
    mult = {k: dict(v) for k, v in H.algebra.mult.items()}
    row = mult.setdefault((rng.randrange(1, H.dim), rng.randrange(1, H.dim)),
                          {})
    k = rng.randrange(H.dim)
    row[k] = row.get(k, field.zero()) + field.from_int(
        rng.choice((-2, -1, 1, 2, 3)))
    mult = {key: {k: c for k, c in v.items() if c}
            for key, v in mult.items()}
    return QuasiHopfAlgebra(
        FinAlgebra(H.basis, {key: v for key, v in mult.items() if v},
                   H.algebra.unit, field),
        H.comul, H.counit, H.phi, H.antipode, H.alpha, H.beta, H.phi_inv,
        name=H.name)


@FIELDS
def test_q5_and_mbia2_match_per_identity_scans(field):
    """q5 and mbia2 on seeded mutants of the comultiplication (of z2, z3
    and z2_quasi) and of the multiplication (of z2 and z3), against
    scans that check each of their two identities on its own after the
    tensor product of both."""
    rng = random.Random(21)
    mutants = []
    for key in ("z2", "z3", "z2_quasi"):
        H = corpus(field)[key]
        for trial in range(6):
            comul = _mutant(H.comul, rng, min(1 + trial % 3, H.dim))
            mutants.append(QuasiHopfAlgebra(
                H.algebra, comul, H.counit, H.phi, H.antipode, H.alpha,
                H.beta, H.phi_inv, name=H.name))
        if key != "z2_quasi":
            mutants += [_mult_mutant(H, rng) for _ in range(6)]
    failures = {"q5": 0, "mbia2": 0}
    zero_columns = 0
    for Hm in mutants:
        zero_columns += not all(Hm.comul.cols.get(i) for i in range(Hm.dim))
        records = [(_record(check_quasihopf(Hm), "q5"), _ref_q5(Hm)),
                   (_record(check_dual_bimodule_algebra(DualView(Hm)),
                            "mbia2"), _ref_mbia2(DualView(Hm)))]
        for got, want in records:
            assert got.as_dict() == want.as_dict()
            failures[got.tag] += not got.passed
    assert min(failures.values()) >= 10
    assert zero_columns


def _phi_mutant(H, rng):
    """H with one seeded coefficient of Phi changed and Phi^{-1} kept,
    copied past the constructor's two-sided check."""
    Hm = object.__new__(QuasiHopfAlgebra)
    Hm.__dict__ = dict(H.__dict__)
    idx = tuple(rng.randrange(H.dim) for _ in range(3))
    Hm.phi = H.phi + Tensor(H.phi.spaces, {idx: H.field.from_int(
        rng.choice((-2, -1, 1, 2, 3)))}, H.field)
    return Hm


@FIELDS
def test_mbia1_matches_per_pair_scan(field):
    """mbia1 as the quasi-associativity of H^* over H (x) H^op against
    the per-pair scan it replaced (reference_builders.dual_mbia1),
    records compared whole, counterexamples included: on the corpus, and
    on seeded mutants of the comultiplication, the multiplication (not
    of z2_quasi, whose supplied Phi^{-1} would then fail its check) and
    Phi with Phi^{-1} kept."""
    rng = random.Random(16)
    entries = corpus(field)
    mutants = []
    for key in ("z2", "z3", "z2z2", "s3", "z2_quasi"):
        H = entries[key]
        for trial in range(3):
            comul = _mutant(H.comul, rng, min(1 + trial, H.dim))
            mutants.append(QuasiHopfAlgebra(
                H.algebra, comul, H.counit, H.phi, H.antipode, H.alpha,
                H.beta, H.phi_inv, name=H.name))
            mutants.append(_phi_mutant(H, rng))
            if key != "z2_quasi":
                mutants.append(_mult_mutant(H, rng))
    passed = []
    for Hm in list(entries.values()) + mutants:
        got = _record(check_dual_bimodule_algebra(DualView(Hm)), "mbia1")
        assert got.as_dict() == dual_mbia1(DualView(Hm)).records[0].as_dict()
        passed.append(got.passed)
    assert all(passed[:len(entries)])
    assert passed[len(entries):].count(False) >= 10
