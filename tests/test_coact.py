import pytest

from qhopf import (LeftComoduleAlgebra, LinearMap, NotInvertibleError,
                   PrimeField, QQ, RightComoduleAlgebra, Tensor,
                   canonical_bicomodule, canonical_left_comodule,
                   canonical_module_coalgebra, canonical_right_comodule,
                   check_bicomodule_algebra, check_left_comodule_algebra,
                   check_right_comodule_algebra,
                   check_right_module_coalgebra, corpus,
                   verify_tilde_identities)

from reference_builders import right_hit

CORPUS_KEYS = ("z2", "z3", "z2z2", "s3", "z2_quasi", "z2z2_twisted")


@pytest.mark.parametrize("key", CORPUS_KEYS)
def test_canonical_right_comodule(all_corpus, key):
    rep = check_right_comodule_algebra(
        canonical_right_comodule(all_corpus[key]))
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


@pytest.mark.parametrize("key", CORPUS_KEYS)
def test_canonical_left_comodule(all_corpus, key):
    rep = check_left_comodule_algebra(
        canonical_left_comodule(all_corpus[key]))
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


@pytest.mark.parametrize("key", ("z2", "z3", "z2_quasi", "z2z2_twisted"))
def test_canonical_bicomodule(all_corpus, key):
    rep = check_bicomodule_algebra(canonical_bicomodule(all_corpus[key]))
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


@pytest.mark.parametrize("key", ("z2", "z3", "z2z2", "s3"))
def test_canonical_module_coalgebra_over_hopf_seed(all_corpus, key):
    rep = check_right_module_coalgebra(
        canonical_module_coalgebra(all_corpus[key]))
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


@pytest.mark.parametrize("key", ("z2_quasi", "z2z2_twisted", "z3"))
def test_tilde_identities(all_corpus, key):
    rep = verify_tilde_identities(canonical_right_comodule(all_corpus[key]))
    assert rep.passed, [r.tag for r in rep.records if not r.passed]


def test_corrupted_coaction_detected(hq):
    # replace the coaction by a counit-broken map: rho(e_0) gains a term
    cols = {i: dict(col) for i, col in hq.comul.cols.items()}
    cols[0][(1, 1)] = cols[0].get((1, 1), hq.field.zero()) + hq.field.one()
    bad = LinearMap(hq.basis, (hq.basis, hq.basis), cols, hq.field)
    ca = RightComoduleAlgebra(hq, hq.algebra, bad, hq.phi, hq.phi_inv)
    rep = check_right_comodule_algebra(ca)
    failing = [r for r in rep.records if not r.passed]
    assert failing
    assert any(r.counterexample for r in failing)


def test_corrupted_reassociator_rejected(hq):
    bump = Tensor((hq.basis, hq.basis, hq.basis),
                  {(0, 0, 0): hq.field.one()}, hq.field)
    with pytest.raises(ValueError):
        # stale inverse no longer matches the perturbed reassociator
        RightComoduleAlgebra(hq, hq.algebra, hq.comul, hq.phi + bump,
                             hq.phi_inv)


def test_comodule_reassociator_inverse_messages(hq):
    """The comodule algebras check a supplied inverse, or solve for a
    missing one, through H's function and in H's words."""
    field, one = hq.field, hq.field.one()
    spaces = (hq.basis,) * 3
    bump = Tensor(spaces, {(0, 0, 0): one}, field)
    with pytest.raises(ValueError) as exc:
        RightComoduleAlgebra(hq, hq.algebra, hq.comul, hq.phi + bump,
                             hq.phi_inv)
    assert str(exc.value) == ("supplied right reassociator inverse fails "
                              "the two-sided check")
    # (1 (x) 1 (x) 1 + g (x) g (x) g) / 2 is an idempotent: singular
    half = one / field.from_int(2)
    singular = Tensor(spaces, {(0, 0, 0): half, (1, 1, 1): half}, field)
    with pytest.raises(NotInvertibleError) as exc:
        RightComoduleAlgebra(hq, hq.algebra, hq.comul, singular)
    assert str(exc.value) == "right reassociator is not invertible"
    with pytest.raises(NotInvertibleError) as exc:
        LeftComoduleAlgebra(hq, hq.algebra, hq.comul, singular)
    assert str(exc.value) == "left reassociator is not invertible"


def test_hit_is_counit_normalized(hq):
    """eps |> a = a, by the reference right_hit and by the slices of
    rho(a) by H-leg that two_sided_crossed reads as e^j |> a."""
    ca = canonical_right_comodule(hq)
    eps = Tensor((hq.basis.dual(),),
                 {(i,): hq.eps(hq.e(i)) for i in range(hq.dim)}, hq.field)
    for i in range(hq.dim):
        assert right_hit(ca, eps, ca.e(i)) == ca.e(i)
        sliced = Tensor.zero((ca.basis,), hq.field)
        for (a0, j), c in ca.coaction.cols[i].items():
            sliced = sliced + ca.e(a0).scale(c * hq.eps(hq.e(j)))
        assert sliced == ca.e(i)


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
def test_tilde_elements_take_p_R_and_q_R_formulas(field, subgroup_comodule):
    """p~ and q~ are formed as p_R and q_R are, from the reassociator of
    the comodule algebra: for rho = Delta they are p_R and q_R, and for
    k<a> in k[Z2 x Z2] (Phi_rho = 1, alpha = beta = 1) they are
    1_A (x) beta and 1_A (x) S^{-1}(alpha), on the legs (k<a>, H)."""
    for H in corpus(field).values():
        ca = canonical_right_comodule(H)
        assert (ca.p_tilde(), ca.q_tilde()) == (H.derived.p_R,
                                               H.derived.q_R)
    ca = subgroup_comodule(field)
    H = ca.H
    assert ca.p_tilde() == ca.unit().tensor(H.beta)
    assert ca.q_tilde() == ca.unit().tensor(H.Sinv(H.alpha))
