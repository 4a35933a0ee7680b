import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from qhopf import (LegMul, LinearMap, PrimeField, QQ,
                   QuasiHopfAlgebra, Tensor, cli, cyclic_group_algebra,
                   specfile as sf, twist)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    code = cli.main(["corpus", "--out", str(d)])
    assert code == 0
    return d


def test_python_m_qhopf_runs_from_a_checkout():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "qhopf", "--help"],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: qhopf")


def test_corpus_writes_six_deterministic_files(tmp_path, capsys):
    d1, d2 = tmp_path / "c1", tmp_path / "c2"
    code, out, _ = run(capsys, "corpus", "--out", str(d1))
    assert code == 0
    files = sorted(p.name for p in d1.iterdir())
    assert len(files) == 6
    code, _, _ = run(capsys, "corpus", "--out", str(d2))
    assert code == 0
    for name in files:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_check_corpus_files_pass(corpus_dir, capsys):
    for path in sorted(corpus_dir.iterdir()):
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0, path.name
        rep = json.loads(out)
        assert rep["passed"] is True
        assert rep["checks"]


def test_check_detects_mutation(corpus_dir, tmp_path, capsys):
    doc = sf.parse((corpus_dir / "z2_quasi.json").read_text())
    doc["data"]["phi"][0] = list(doc["data"]["phi"][0])
    doc["data"]["phi"][0][-2] += 1
    del doc["data"]["phi-inv"]  # keep the document self-consistent
    bad = tmp_path / "bad.json"
    bad.write_text(sf.serialize(doc))
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1
    rep = json.loads(out)
    failing = [c["tag"] for c in rep["checks"] if not c["passed"]]
    assert failing
    assert any(tag.startswith("q") for tag in failing)


def test_builders_hand_over_clean_tables(corpus_dir, capsys, monkeypatch):
    """LegMul takes its table as given, and every algebra is built
    through it, so every table that the suites build must hold no zero
    coefficient and no empty row."""
    dirty = []

    def watch(cls, attr):
        init = cls.__init__

        def checked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            table = getattr(self, attr)
            if not all(vec and all(vec.values()) for vec in table.values()):
                dirty.append((cls.__name__, suite, entry))
        monkeypatch.setattr(cls, "__init__", checked)

    watch(LegMul, "table")
    for entry in ("z2_quasi", "z3"):
        for suite in cli.SUITES:
            run(capsys, "verify", suite, str(corpus_dir / (entry + ".json")))
    assert dirty == []


def test_check_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("suite", (("check",), ("verify", "axioms")))
def test_singular_reassociator_exits_1(corpus_dir, tmp_path, capsys, suite):
    # k[Z/2] with Phi = (1 (x) 1 (x) 1 + g (x) g (x) g) / 2 and no
    # phi-inv: well formed, but Phi is singular (it is an idempotent),
    # so the input is not a quasi-bialgebra rather than malformed
    doc = json.loads((corpus_dir / "z2.json").read_text())
    doc["data"]["phi"] = [[0, 0, 0, 1, 2], [1, 1, 1, 1, 2]]
    del doc["data"]["phi-inv"]
    bad = tmp_path / "singular.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, *suite, str(bad))
    assert (code, out) == (1, "")
    assert err == "error: reassociator is not invertible\n"

    # a supplied inverse that fails its check is refused as malformed
    doc["data"]["phi-inv"] = doc["data"]["phi"]
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, *suite, str(bad))
    assert (code, out) == (2, "")
    assert err == "error: supplied reassociator inverse fails the " \
        "two-sided check\n"


def test_identity_twist_is_fixpoint(corpus_dir, tmp_path, capsys):
    src = corpus_dir / "z3.json"
    doc = sf.parse(src.read_text())
    H = sf.doc_to_quasihopf(doc)
    tw = tmp_path / "identity-twist.json"
    tw.write_text(sf.serialize(sf.twist_to_doc(
        H, H.unit().tensor(H.unit()))))
    out = tmp_path / "twisted.json"
    code, _, _ = run(capsys, "twist", str(src), str(tw), "--out", str(out))
    assert code == 0
    doc2 = sf.parse(out.read_text())
    # identical except for the header fields (name, provenance)
    for key in ("mult", "unit", "comul", "counit", "phi", "phi-inv",
                "antipode", "alpha", "beta"):
        assert doc2["data"][key] == doc["data"][key]


def test_non_gauge_twist_exits_1(corpus_dir, tmp_path, capsys):
    src = corpus_dir / "z2.json"
    H = sf.doc_to_quasihopf(sf.parse(src.read_text()))
    bad = H.unit().tensor(H.unit()).scale(H.field.from_int(2))
    tw = tmp_path / "bad-twist.json"
    tw.write_text(sf.serialize(sf.twist_to_doc(H, bad)))
    out = tmp_path / "out.json"
    code, _, err = run(capsys, "twist", str(src), str(tw), "--out", str(out))
    assert code == 1
    assert err == ("twist is not a gauge transformation "
                   "(normalization or invertibility fails)\n")
    assert not out.exists()


def test_twist_of_comul_mutant_exits_1(tmp_path, capsys):
    # k[Z/3] with Delta(e) = 2 e (x) e: Delta is not an algebra map, so
    # the input is not a quasi-bialgebra and no twisted spec is written
    H = cyclic_group_algebra(3)
    cols = {i: dict(col) for i, col in H.comul.cols.items()}
    cols[0][(0, 0)] = cols[0][(0, 0)] + H.field.one()
    bad = QuasiHopfAlgebra(H.algebra, LinearMap(H.basis, (H.basis, H.basis),
                                                cols, H.field),
                           H.counit, H.phi, H.antipode, H.alpha, H.beta,
                           name="z3_comul_mutant")
    src = tmp_path / "mutant.json"
    src.write_text(sf.serialize(sf.quasihopf_to_doc(bad)))
    one = H.unit()
    x = one - H.e(1)
    tw = tmp_path / "twist.json"
    tw.write_text(sf.serialize(sf.twist_to_doc(
        H, one.tensor(one) + x.tensor(x))))
    out = tmp_path / "out.json"
    code, stdout, err = run(capsys, "twist", str(src), str(tw),
                            "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err == ("twist failed: the twisted reassociator fails its "
                   "two-sided inverse check: the comultiplication is not "
                   "an algebra map\n")
    assert not out.exists()


def test_derive_writes_module_data(corpus_dir, tmp_path, capsys):
    out = tmp_path / "derived.json"
    code, _, _ = run(capsys, "derive", str(corpus_dir / "z2_quasi.json"),
                     "--out", str(out))
    assert code == 0
    doc = sf.parse(out.read_text())
    assert doc["kind"] == "module-data"
    for key in ("gamma", "delta", "twist-element", "twist-element-inv",
                "p-right", "q-right", "p-left", "q-left", "u-element",
                "v-element"):
        assert key in doc["data"]


def test_product_output_is_checkable(corpus_dir, tmp_path, capsys):
    src = corpus_dir / "z2_quasi.json"
    H = sf.doc_to_quasihopf(sf.parse(src.read_text()))
    from qhopf import canonical_left_comodule, canonical_right_comodule
    ca_file = tmp_path / "ca.json"
    ca_file.write_text(sf.serialize(sf.to_doc(canonical_right_comodule(H))))
    lcb_file = tmp_path / "lcb.json"
    lcb_file.write_text(sf.serialize(sf.to_doc(canonical_left_comodule(H))))
    out = tmp_path / "qs.json"
    # every product kind, each written file checked; the two-input kinds
    # read H from two files
    runs = [("quasi-smash", [ca_file], out),
            ("smash", [out], tmp_path / "sm.json"),
            ("generalized-smash", [out, lcb_file], tmp_path / "gsm.json"),
            ("two-sided", [ca_file, lcb_file], tmp_path / "ts.json")]
    for kind, inputs, written in runs:
        code, _, err = run(capsys, "product", kind,
                           *(str(p) for p in inputs), "--out", str(written))
        assert code == 0, (kind, err)
        code, outtext, _ = run(capsys, "check", str(written))
        assert code == 0, kind
        assert json.loads(outtext)["passed"] is True, kind


def test_corpus_over_characteristic_2_exits_2(tmp_path, capsys):
    out = tmp_path / "gf2"
    out.mkdir()
    code, _, err = run(capsys, "--field", "GF(2)", "corpus", "--out",
                       str(out))
    assert code == 2
    assert err.startswith("error: ")
    assert "z2_quasi" in err and "characteristic other than 2" in err
    assert "Traceback" not in err
    assert not any(out.iterdir())


def test_verify_suites_and_determinism(corpus_dir, capsys):
    src = str(corpus_dir / "z2.json")
    for suite in ("axioms", "identities", "heisenberg", "classical"):
        code, out1, _ = run(capsys, "verify", suite, src)
        assert code == 0, suite
        code, out2, _ = run(capsys, "verify", suite, src)
        assert out1 == out2
    code, out1, _ = run(capsys, "--seed", "3", "verify", "modules", src)
    assert code == 0
    code, out2, _ = run(capsys, "--seed", "3", "verify", "modules", src)
    assert out1 == out2


def test_pretty_output(corpus_dir, capsys):
    code, out, _ = run(capsys, "--pretty", "verify", "axioms",
                       str(corpus_dir / "z2_quasi.json"))
    assert code == 0
    assert "verdict: pass" in out


def _z2_with_unit_row(tmp_path, field, row):
    """The corpus file z2 over field with its unit row replaced."""
    d = tmp_path / "corpus"
    assert cli.main(["--field", field, "corpus", "--out", str(d)]) == 0
    text = (d / "z2.json").read_text()
    doc = json.loads(text)
    assert doc["data"]["unit"] == [[0, 1, 1]]
    doc["data"]["unit"] = [row]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return bad


@pytest.mark.parametrize("field, row, message", [
    ("GF(7)", [0, 1, 7], "denominator 7 is zero in GF(7) in row [0, 1, 7]"),
    ("GF(7)", [0, True, 1], "bad entry row [0, True, 1]"),
    ("Q", [0, 1, 0], "zero denominator in row [0, 1, 0]"),
    ("Q", [0, 1, False], "bad entry row [0, 1, False]"),
])
def test_malformed_entry_row_exits_2(tmp_path, capsys, field, row, message):
    bad = _z2_with_unit_row(tmp_path, field, row)
    capsys.readouterr()
    code, out, err = run(capsys, "--field", field, "check", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ("z2_quasi", "z2z2_twisted"))
def test_classical_on_valid_quasi_input_exits_3(corpus_dir, capsys, key):
    # both specs are valid; the classical oracle does not apply to them
    code, out, err = run(capsys, "verify", "classical",
                         str(corpus_dir / (key + ".json")))
    assert code == 3
    assert out == ""
    assert err == "error: the classical oracle needs a trivial reassociator\n"


def test_classical_on_malformed_input_exits_2(tmp_path, capsys):
    bad = _z2_with_unit_row(tmp_path, "Q", [0, 1, 0])
    capsys.readouterr()
    code, out, err = run(capsys, "verify", "classical", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "zero denominator" in err


def test_check_algebra_with_wrong_unit_exits_1(tmp_path, capsys):
    # k[Z/3] with g as its unit: both laws fail first at e, index 0
    H = cyclic_group_algebra(3)
    doc = sf.algebra_to_doc(H.algebra, name="z3-wrong-unit")
    doc["data"]["unit"] = [[1, 1, 1]]
    bad = tmp_path / "alg.json"
    bad.write_text(sf.serialize(doc))
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert err == ""
    checks = {c["tag"]: c for c in json.loads(out)["checks"]}
    assert checks["unit"] == {"tag": "unit", "passed": False,
                              "counterexample": {"at": [0]}}
    assert checks["associative"]["passed"] is True


@pytest.mark.parametrize("argv", [("check",), ("verify", "axioms")])
def test_comul_with_zero_column_exits_1(corpus_dir, tmp_path, capsys, argv):
    # k[Z/3] with the comul rows of g removed: Delta(g) = 0 is well
    # formed, and Delta fails to be multiplicative, first at (g, g)
    doc = json.loads((corpus_dir / "z3.json").read_text())
    comul = doc["data"]["comul"]
    doc["data"]["comul"] = [r for r in comul if r[0] != 1]
    assert len(doc["data"]["comul"]) == len(comul) - 1
    bad = tmp_path / "zero-column.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(bad))
    assert code == 1
    assert err == ""
    checks = {c["tag"]: c for c in json.loads(out)["checks"]}
    assert checks["comul-hom"]["passed"] is False
    assert checks["comul-hom"]["counterexample"]["inputs"] == [1, 1]
    assert checks["q5"]["passed"] is False


def test_dual_algebra_with_zero_comul_column_exits_1(corpus_dir, tmp_path,
                                                     capsys):
    # k[Z/3] with the comul rows of g removed, as above: the convolution
    # on H* stays associative (mbia1), but Delta(g) = 0 makes both
    # Sweedler sums of mbia2 at h = g empty, so zero, while
    # g -> (e^1 e^1) = e^{g^2} is not
    doc = json.loads((corpus_dir / "z3.json").read_text())
    doc["data"]["comul"] = [r for r in doc["data"]["comul"] if r[0] != 1]
    bad = tmp_path / "zero-column.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "dual-algebra", str(bad))
    assert code == 1
    assert err == ""
    checks = {c["tag"]: c for c in json.loads(out)["checks"]}
    assert checks["mbia1"]["passed"] is True
    assert checks["mbia2"]["passed"] is False
    assert checks["mbia2"]["counterexample"]["inputs"] == [1, 0, 0]


@pytest.mark.parametrize("field", ("Q", "GF(7)"), ids=("Q", "GF7"))
@pytest.mark.parametrize("suite, failing", [
    ("identities", ("f-inv", "qr1-a", "pqr-a", "f8")),
    ("tilde", ("tpqr1", "tpqr1a", "tpqr2", "tpqr2a"))])
def test_empty_comul_column_of_unit_exits_1(field, suite, failing, tmp_path,
                                            capsys):
    # k[Z/3] with the comul rows of 1 removed: Delta(1) = 0 is well
    # formed, and gamma, delta and the sums over Delta(1), such as qr1-a's
    # and tpqr1's at the input 1, are sums of no terms, so zero; the
    # suites report the failed identities rather than refuse the input
    d = tmp_path / "corpus"
    assert cli.main(["--field", field, "corpus", "--out", str(d)]) == 0
    capsys.readouterr()
    doc = json.loads((d / "z3.json").read_text())
    doc["data"]["comul"] = [r for r in doc["data"]["comul"] if r[0] != 0]
    bad = tmp_path / "empty-unit-column.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", suite, str(bad))
    assert (code, err) == (1, "")
    checks = {c["tag"]: c["passed"] for c in json.loads(out)["checks"]}
    assert not any(checks[tag] for tag in failing)


@pytest.mark.parametrize("field", ("Q", "GF(7)"), ids=("Q", "GF7"))
@pytest.mark.parametrize("suite, failing", [
    ("axioms", ("q6", "eps-alpha-beta")),
    ("identities", ("pqr-a", "pqr-b", "fpre-b")),
    ("tilde", ("tpqr2", "tpqr2a"))])
def test_zero_beta_exits_1(field, suite, failing, tmp_path, capsys):
    # k[Z/3] with beta = 0: a well-formed spec, not a quasi-Hopf algebra;
    # p_R, q_L and the sums with beta as a factor are zero, and the
    # suites report the failed identities rather than raise
    d = tmp_path / "corpus"
    assert cli.main(["--field", field, "corpus", "--out", str(d)]) == 0
    capsys.readouterr()
    doc = json.loads((d / "z3.json").read_text())
    doc["data"]["beta"] = []
    bad = tmp_path / "zero-beta.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", suite, str(bad))
    assert (code, err) == (1, "")
    checks = {c["tag"]: c["passed"] for c in json.loads(out)["checks"]}
    assert not any(checks[tag] for tag in failing)


@pytest.mark.parametrize("field", ("Q", "GF(7)"), ids=("Q", "GF7"))
@pytest.mark.parametrize("suite", ("identities", "tilde"))
def test_antipode_not_bijective_exits_1(field, suite, tmp_path, capsys):
    # k[Z/3] with S(g) = S(g^2) = g: a well-formed spec whose antipode is
    # not bijective. The suites need S^{-1}; they report the failed
    # antipode-bijective record that verify axioms writes, and exit 1
    # rather than refuse the input as malformed
    d = tmp_path / "corpus"
    assert cli.main(["--field", field, "corpus", "--out", str(d)]) == 0
    capsys.readouterr()
    doc = json.loads((d / "z3.json").read_text())
    rows = doc["data"]["antipode"]
    assert rows[1] == [1, 2, 1, 1]
    rows[1] = [1, 1, 1, 1]
    bad = tmp_path / "singular-antipode.json"
    bad.write_text(json.dumps(doc))
    record = {"tag": "antipode-bijective", "passed": False,
              "counterexample": {}}
    code, out, err = run(capsys, "verify", "axioms", str(bad))
    assert (code, err) == (1, "")
    assert record in json.loads(out)["checks"]
    code, out, err = run(capsys, "verify", suite, str(bad))
    assert (code, err) == (1, "")
    assert json.loads(out)["checks"] == [record]


@pytest.mark.parametrize("field", ("Q", "GF(7)"), ids=("Q", "GF7"))
@pytest.mark.parametrize("command", (
    ("verify", "modules"), ("verify", "heisenberg"),
    ("verify", "crossed-modules"), ("verify", "classical"), ("derive",)),
    ids=lambda command: command[-1])
def test_antipode_not_bijective_refused_with_exit_1(field, command, tmp_path,
                                                    capsys):
    # k[Z/2] with S(g) = 0: valid input whose antipode is not bijective.
    # The commands that need S^{-1} before they can report anything exit
    # 1, as for a reassociator without an inverse, not 2 (malformed)
    d = tmp_path / "corpus"
    assert cli.main(["--field", field, "corpus", "--out", str(d)]) == 0
    capsys.readouterr()
    doc = json.loads((d / "z2.json").read_text())
    doc["data"]["antipode"] = [[0, 0, 1, 1]]
    bad = tmp_path / "singular-antipode.json"
    bad.write_text(json.dumps(doc))
    out_file = tmp_path / "derived.json"
    argv = command + (str(bad),) + (("--out", str(out_file))
                                    if command == ("derive",) else ())
    assert run(capsys, *argv) == (1, "", "error: antipode is not bijective\n")
    assert not out_file.exists()


# Fixed counital gauge twists F = 1 (x) 1 + x (x) y of k[Z/m], as the
# coefficients of x and y on the group basis; F is invertible over Q and
# over GF(7).
FIXED_TWISTS = {3: ((-1, 1, 0), (-2, 1, 1)),
                4: ((1, -2, 0, 1), (-1, 1, 1, -1))}


def fixed_twist(m, field):
    """k[Z/m] and its gauge transformation F = 1 (x) 1 + x (x) y, with
    x and y the coefficient vectors FIXED_TWISTS[m]."""
    H = cyclic_group_algebra(m, field)
    x, y = (Tensor((H.basis,), {(i,): field.from_int(c)
                                for i, c in enumerate(v)}, field)
            for v in FIXED_TWISTS[m])
    return H, H.unit().tensor(H.unit()) + x.tensor(y)


# sha256 of the spec file `qhopf twist` writes and of the report `qhopf
# check` prints on it, recorded before mul_legs was staged leg by leg and
# before q5, q6 and the twisted alpha and beta became lifted antipode
# chains; the inputs are read by relative path, so the provenance in each
# written file names the same inputs on every run
TWIST_SHA256 = {
    "Q": {
        3: ("9b9f2abe2770cb9d72235dabf9990735"
            "0993f470cc591ea1df4aebcfc3ed0717",
            "7408823dcc0a6b7d1f994c6a0d7d83bb"
            "9ffc6c54560856f3d2539cd68b00d1f9"),
        4: ("048349677f4e2389f073e32c59ad07a8"
            "98aa7416cd2e7a0cdc7ed0ae35f86d84",
            "569b6702324d26d5abd16cf52f8811c7"
            "c056692d88b7ae99d8f0e3eb573fa224"),
    },
    "GF7": {
        3: ("fdee27abbdf9f7b34464c90745f70bdd"
            "90ab0c9c3f2b1edae19e308cb9d91550",
            "4aa8ebcbf4aaff290120447227592ae9"
            "6eb8a463f60deedffd10acb8390b7fc1"),
        4: ("2c1988d264eaa33bb0c2de16cc568fe4"
            "d82b7d1c3cb4ef2411df6865f17ae046",
            "aa31e2fe186aec7361c9c85fe4e07c39"
            "2b639675f23b4376d8229fec77497d22"),
    },
}


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
def test_twist_files_unchanged(field, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digests = {}
    for m in sorted(FIXED_TWISTS):
        H, F = fixed_twist(m, field)
        pathlib.Path("m%d.json" % m).write_text(
            sf.serialize(sf.quasihopf_to_doc(H)))
        pathlib.Path("m%d-F.json" % m).write_text(
            sf.serialize(sf.twist_to_doc(H, F)))
        out = "m%d-HF.json" % m
        code, _, err = run(capsys, "twist", "m%d.json" % m, "m%d-F.json" % m,
                           "--out", out)
        assert (code, err) == (0, "")
        code, report, err = run(capsys, "check", out)
        assert (code, err) == (0, "")
        digests[m] = tuple(hashlib.sha256(data).hexdigest() for data in (
            pathlib.Path(out).read_bytes(), report.encode("utf-8")))
    assert digests == TWIST_SHA256["Q" if field == QQ else "GF7"]


def test_dual_algebra_on_dense_twist_exits_0(tmp_path, capsys):
    # the fixed twist of k[Z/4]: F and F^{-1} have every basis pair in
    # their support, so Phi_F and Phi_F^{-1} are dense, and mbia1 runs
    # over the reassociator of H (x) H^op with a term per pair of theirs
    HF = twist(*fixed_twist(4, QQ))
    src = tmp_path / "m4-HF.json"
    src.write_text(sf.serialize(sf.quasihopf_to_doc(HF)))
    code, out, err = run(capsys, "verify", "dual-algebra", str(src))
    assert (code, err) == (0, "")
    checks = {c["tag"]: c["passed"] for c in json.loads(out)["checks"]}
    assert checks == {"mbia1": True, "mbia2": True}


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
@pytest.mark.parametrize("m", sorted(FIXED_TWISTS))
def test_identities_on_fixed_twists_exit_0(m, field, tmp_path, capsys):
    # S(alpha) != alpha on these twists, unlike on the corpus, so fpre-c
    # tells sum f2 S^{-1}(f1 beta) = alpha from the wrong S(alpha)
    HF = twist(*fixed_twist(m, field))
    assert HF.S(HF.alpha) != HF.alpha
    src = tmp_path / "HF.json"
    src.write_text(sf.serialize(sf.quasihopf_to_doc(HF)))
    code, out, err = run(capsys, "verify", "identities", str(src))
    assert (code, err) == (0, "")
    assert json.loads(out)["passed"] is True


def _comodule_files(corpus_dir, tmp_path):
    """The canonical right and left comodule algebras of z2 as spec
    files, and the quasi-smash product of the right one."""
    from qhopf import canonical_left_comodule, canonical_right_comodule
    H = sf.doc_to_quasihopf(sf.parse((corpus_dir / "z2.json").read_text()))
    ca, lcb, qs = (tmp_path / name for name in ("ca.json", "lcb.json",
                                                "qs.json"))
    ca.write_text(sf.serialize(sf.to_doc(canonical_right_comodule(H))))
    lcb.write_text(sf.serialize(sf.to_doc(canonical_left_comodule(H))))
    assert cli.main(["product", "quasi-smash", str(ca), "--out",
                     str(qs)]) == 0
    return ca, lcb, qs


@pytest.mark.parametrize("command", ("derive", "product", "twist",
                                     "corpus"))
def test_unwritable_output_exits_2(corpus_dir, tmp_path, capsys, command):
    # an --out in a directory that does not exist, and corpus --out on an
    # existing file, are refused as bad input, with no traceback
    src = corpus_dir / "z2.json"
    missing = str(tmp_path / "no" / "such" / "out.json")
    if command == "derive":
        argv = ("derive", str(src), "--out", missing)
    elif command == "product":
        ca, _, _ = _comodule_files(corpus_dir, tmp_path)
        argv = ("product", "quasi-smash", str(ca), "--out", missing)
    elif command == "twist":
        H = sf.doc_to_quasihopf(sf.parse(src.read_text()))
        tw = tmp_path / "identity-twist.json"
        tw.write_text(sf.serialize(sf.twist_to_doc(
            H, H.unit().tensor(H.unit()))))
        argv = ("twist", str(src), str(tw), "--out", missing)
    else:
        argv = ("corpus", "--out", str(src))
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    target = str(src) if command == "corpus" else missing
    assert err.startswith("error: cannot write %s: " % target)
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, count, needs", [
    ("smash", 2, "smash needs a module-algebra file, got 2 files"),
    ("quasi-smash", 3, "quasi-smash needs a right comodule-algebra file, "
                       "got 3 files"),
    ("generalized-smash", 1, "generalized-smash needs a module-algebra file "
                             "and a left comodule-algebra file, got 1 file"),
    ("two-sided", 1, "two-sided needs a right comodule-algebra file and a "
                     "left comodule-algebra file, got 1 file"),
])
def test_product_with_wrong_file_count_exits_2(corpus_dir, tmp_path, capsys,
                                               kind, count, needs):
    files = _comodule_files(corpus_dir, tmp_path)
    out = tmp_path / "out.json"
    capsys.readouterr()
    code, text, err = run(capsys, "product", kind,
                          *(str(p) for p in files[:count]), "--out", str(out))
    assert (code, text) == (2, "")
    assert err == "error: %s\n" % needs
    assert not out.exists()


def test_unknown_field_exits_2_for_every_command(corpus_dir, capsys):
    # --field picks the corpus's field; it is parsed for every command,
    # so a bad one is refused even where a spec file carries the field
    src = str(corpus_dir / "z2.json")
    for argv in (("verify", "identities", src), ("check", src)):
        code, out, err = run(capsys, "--field", "bogus", *argv)
        assert (code, out) == (2, "")
        assert err == ("error: unknown field 'bogus' (expected 'Q' or "
                       "'GF(p)')\n")


def test_large_field_exits_2(corpus_dir, capsys):
    """A prime p >= 2^31 is refused as malformed input, from --field and
    from a spec file's field entry alike, without a primality test."""
    code, out, err = run(capsys, "--field", "GF(1000000000000000003)",
                         "check", str(corpus_dir / "z2.json"))
    assert (code, out) == (2, "")
    assert err == ("error: GF(p) needs a prime p < 2^31, got "
                   "1000000000000000003\n")


def test_quasi_bialgebra_file_is_not_applicable(corpus_dir, tmp_path,
                                                capsys):
    """A quasi-bialgebra spec (a corpus entry saved without antipode
    data) is valid: check passes it, and every verify suite and derive,
    which need the antipode, exit 3 rather than 2. A file of another
    kind is still malformed input for them."""
    doc = json.loads((corpus_dir / "z2_quasi.json").read_text())
    doc["kind"] = "quasi-bialgebra"
    for key in ("antipode", "alpha", "beta"):
        del doc["data"][key]
    qb = tmp_path / "qb.json"
    qb.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", str(qb))
    assert (code, err) == (0, "")
    want = ("error: %s: a quasi-bialgebra spec file has no antipode data; "
            "this command needs a quasi-hopf one\n" % qb)
    for argv in (("verify", "axioms", str(qb)),
                 ("verify", "identities", str(qb)),
                 ("derive", str(qb), "--out", str(tmp_path / "d.json"))):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", want), argv
    H = sf.doc_to_quasihopf(sf.parse((corpus_dir / "z2.json").read_text()))
    alg = tmp_path / "alg.json"
    alg.write_text(sf.serialize(sf.algebra_to_doc(H.algebra)))
    code, out, err = run(capsys, "verify", "axioms", str(alg))
    assert (code, out) == (2, "")
    assert err == "error: %s: expected a quasi-hopf spec file\n" % alg


@pytest.mark.parametrize("where, message", [
    ("field", "error: unknown field 5 (expected 'Q' or 'GF(p)')\n"),
    ("embedded kind", "error: embedded document 'h' must be of kind "
                      "bialgebra or quasi-bialgebra or quasi-hopf\n"),
])
def test_malformed_document_fields_exit_2(corpus_dir, tmp_path, capsys,
                                          where, message):
    # a field that is not a string, and an embedded H document with no
    # kind, ended in a traceback (AttributeError, KeyError)
    H = sf.doc_to_quasihopf(sf.parse((corpus_dir / "z2.json").read_text()))
    if where == "field":
        doc = sf.quasihopf_to_doc(H)
        doc["field"] = 5
    else:
        from qhopf import canonical_right_comodule
        doc = sf.to_doc(canonical_right_comodule(H))
        del doc["h"]["kind"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(capsys, "check", str(bad)) == (2, "", message)


@pytest.mark.parametrize("kind", ("twist", "module-data"))
def test_kinds_without_object_form_are_not_checkable(corpus_dir, tmp_path,
                                                     capsys, kind):
    H = sf.doc_to_quasihopf(sf.parse((corpus_dir / "z2.json").read_text()))
    doc = (sf.twist_to_doc(H, H.unit().tensor(H.unit())) if kind == "twist"
           else sf.module_data_to_doc("data", H.field, H.basis,
                                      {"gamma": H.derived.gamma}))
    path = tmp_path / "doc.json"
    path.write_text(sf.serialize(doc))
    assert run(capsys, "check", str(path)) == (
        2, "", "error: kind %r is not checkable\n" % kind)
