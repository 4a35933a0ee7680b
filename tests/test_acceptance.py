"""Acceptance gate: nine exact, zero-tolerance criteria over the built-in
corpus, each reported as a single pass/fail line with its runtime budget.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import io
import time
from contextlib import redirect_stdout

from qhopf import (DerivedElements, LinearMap, QuasiHopfAlgebra, Tensor,
                   check_quasibialgebra, check_quasihopf, cli, corpus,
                   hopf_seeds, is_gauge, twist, verify_classical_agreement,
                   verify_core_identities, verify_crossed_decomposition,
                   verify_crossed_module_description,
                   verify_heisenberg_double, verify_module_correspondence)

ALL = corpus()
SEEDS = hopf_seeds()


def _report(num: int, ok: bool, t0: float, budget: float, detail=""):
    elapsed = time.perf_counter() - t0
    in_budget = elapsed < budget
    verdict = "PASS" if (ok and in_budget) else "FAIL"
    print("criterion %d: %s (%.2fs of %.0fs budget)%s"
          % (num, verdict, elapsed, budget,
             " -- " + str(detail) if detail and verdict == "FAIL" else ""))
    assert ok, detail
    assert in_budget, "criterion %d exceeded %.0fs budget: %.2fs" % (
        num, budget, elapsed)


def _failing(rep):
    return [r.tag for r in rep.records if not r.passed]


# ----------------------------------------------------------------------
# mutation helpers: one coefficient of Phi, Delta or S


def _mutate_phi(H):
    Hm = object.__new__(QuasiHopfAlgebra)
    Hm.__dict__ = dict(H.__dict__)
    bump = Tensor(H.phi.spaces, {(0, 0, 0): H.field.one()}, H.field)
    Hm.phi = H.phi + bump
    return Hm


def _mutate_comul(H):
    cols = {i: dict(col) for i, col in H.comul.cols.items()}
    idx = next(iter(cols[0]))
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


# ----------------------------------------------------------------------


def test_criterion_1_axiom_suites():
    t0 = time.perf_counter()
    ok, detail = True, ""
    for key, H in ALL.items():
        rep = check_quasibialgebra(H)
        if not rep.passed:
            ok, detail = False, "%s bialgebra: %s" % (key, _failing(rep))
            break
        rep = check_quasihopf(H)
        if not rep.passed:
            ok, detail = False, "%s hopf: %s" % (key, _failing(rep))
            break
        for label, mutate in (("phi", _mutate_phi), ("comul", _mutate_comul),
                              ("antipode", _mutate_antipode)):
            bad = check_quasihopf(mutate(H))
            failing = [r for r in bad.records if not r.passed]
            if not failing or not any(r.counterexample for r in failing):
                ok = False
                detail = "%s mutation of %s not detected" % (label, key)
                break
        if not ok:
            break
    _report(1, ok, t0, 5.0, detail)


def test_criterion_2_twist_engine():
    t0 = time.perf_counter()
    ok, detail = True, ""
    # nontrivial twisted reassociator still satisfying the pentagon suite
    HF = ALL["z2z2_twisted"]
    if HF.phi == HF.unit_pow(3):
        ok, detail = False, "twisted reassociator is trivial"
    rep = check_quasihopf(HF)
    qtags = {r.tag: r.passed for r in rep.records}
    for tag in ("q1", "q2", "q3", "q4", "q5", "q6"):
        if not qtags.get(tag, False):
            ok, detail = False, "twisted algebra fails %s" % tag
    # identity twist is a field-by-field fixpoint
    for key, H in ALL.items():
        one2 = H.unit().tensor(H.unit())
        HI = twist(H, one2)
        if not (HI.phi.data == H.phi.data
                and HI.comul.cols == H.comul.cols
                and HI.alpha.data == H.alpha.data
                and HI.beta.data == H.beta.data
                and HI.algebra.table == H.algebra.table):
            ok, detail = False, "identity twist moved %s" % key
    # the antipode twist element: the closed-form reassociator equals the
    # one the twist engine computes from the same element
    for key, H in ALL.items():
        der = DerivedElements(H)
        if not is_gauge(H, der.f):
            ok, detail = False, "derived twist of %s is not a gauge" % key
            continue
        closed = H.phi.permute((2, 1, 0))
        for leg in range(3):
            closed = closed.map_leg(leg, H.antipode)
        if twist(H, der.f).phi != closed:
            ok, detail = False, "twist-engine mismatch on %s" % key
    _report(2, ok, t0, 2.0, detail)


def test_criterion_3_identity_suite():
    t0 = time.perf_counter()
    ok, detail = True, ""
    for key, H in ALL.items():
        rep = verify_core_identities(H)
        if not rep.passed:
            ok, detail = False, "%s: %s" % (key, _failing(rep))
            break
    _report(3, ok, t0, 10.0, detail)


def test_criterion_4_heisenberg_double():
    t0 = time.perf_counter()
    ok, detail = True, ""
    for key, H in ALL.items():
        rep = verify_heisenberg_double(H)
        if not rep.passed:
            ok, detail = False, "%s: %s" % (key, _failing(rep))
            break
    _report(4, ok, t0, 5.0, detail)


def test_criterion_5_crossed_product_decomposition():
    t0 = time.perf_counter()
    ok, detail = True, ""
    for key, H in ALL.items():
        rep = verify_crossed_decomposition(H)
        if not rep.passed:
            ok, detail = False, "%s: %s" % (key, _failing(rep))
            break
    _report(5, ok, t0, 60.0, detail)


def test_criterion_6_module_category_isomorphism():
    t0 = time.perf_counter()
    ok, detail = True, ""
    for key in ("z2_quasi", "z3"):
        rep = verify_module_correspondence(ALL[key], seeds=(0, 1, 2, 3, 4))
        if not rep.passed:
            ok, detail = False, "%s: %s" % (key, _failing(rep))
            break
    _report(6, ok, t0, 30.0, detail)


def test_criterion_7_crossed_module_description():
    t0 = time.perf_counter()
    rep = verify_crossed_module_description(ALL["z2_quasi"], seeds=(0, 1, 2))
    tags = {r.tag for r in rep.records}
    ok, detail = rep.passed, _failing(rep)
    for needed in ("crossed-coact/lca1", "crossed-coact/lca2",
                   "crossed-coact/lca3", "crossed-coact/lca4",
                   "final-direct"):
        if needed not in tags:
            ok, detail = False, "missing check %s" % needed
    _report(7, ok, t0, 30.0, detail)


def test_criterion_8_classical_oracle():
    t0 = time.perf_counter()
    ok, detail = True, ""
    for key, H in SEEDS.items():
        rep = verify_classical_agreement(H)
        if not rep.passed:
            ok, detail = False, "%s: %s" % (key, _failing(rep))
            break
    # oracle budget: generous, dominated by k[S3]
    _report(8, ok, t0, 30.0, detail)


def test_criterion_9_deterministic_reports(tmp_path):
    t0 = time.perf_counter()
    d = tmp_path / "corpus"
    assert cli.main(["corpus", "--out", str(d)]) == 0

    def run_all():
        chunks = []
        for suite in ("axioms", "identities", "tilde", "dual-algebra",
                      "heisenberg", "crossed-product", "hom-smash",
                      "modules", "crossed-modules", "classical"):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(["--seed", "11", "verify", suite,
                                 str(d / "z2.json")])
            chunks.append((suite, code, buf.getvalue()))
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["--seed", "11", "verify", "modules",
                             str(d / "z2_quasi.json")])
        chunks.append(("modules-quasi", code, buf.getvalue()))
        return chunks

    first, second = run_all(), run_all()
    ok = first == second and all(code == 0 for _, code, _ in first)
    detail = "" if ok else [(s, c) for s, c, _ in first]
    _report(9, ok, t0, 120.0, detail)
