import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhopf import (Basis, FinAlgebra, LeftComoduleAlgebra, LeftModuleAlgebra,
                   PrimeField, QQ, QuasiBialgebra, Tensor,
                   canonical_bicomodule, canonical_left_comodule,
                   canonical_module_coalgebra, canonical_right_comodule,
                   check_quasihopf, cli, corpus, klein_twist, quasi_smash,
                   smash_product, specfile as sf)

B = Basis(("e", "g", "h"), "B")


@pytest.mark.parametrize("key", ("z2", "z3", "z2z2", "s3", "z2_quasi",
                                 "z2z2_twisted"))
def test_quasihopf_round_trip_byte_identical(all_corpus, key):
    H = all_corpus[key]
    text = sf.serialize(sf.quasihopf_to_doc(H))
    doc = sf.parse(text)
    H2 = sf.doc_to_quasihopf(doc)
    assert sf.serialize(sf.quasihopf_to_doc(H2)) == text
    assert check_quasihopf(H2).passed


def test_missing_phi_inverse_recomputed(hq):
    doc = sf.quasihopf_to_doc(hq)
    del doc["data"]["phi-inv"]
    H2 = sf.doc_to_quasihopf(sf.parse(sf.serialize(doc)))
    assert H2.phi_inv.data == hq.phi_inv.data


def test_corrupted_phi_inverse_rejected(hq):
    doc = sf.quasihopf_to_doc(hq)
    rows = doc["data"]["phi-inv"]
    rows[0] = list(rows[0])
    rows[0][-2] += 1
    with pytest.raises(ValueError):
        sf.doc_to_quasihopf(doc)


def test_comodule_and_coalgebra_round_trips(all_corpus):
    hq = all_corpus["z2_quasi"]
    ca = canonical_right_comodule(hq)
    text = sf.serialize(sf.to_doc(ca))
    ca2 = sf.from_doc(sf.parse(text))
    assert sf.serialize(sf.to_doc(ca2)) == text

    ba = canonical_bicomodule(hq)
    text = sf.serialize(sf.to_doc(ba))
    ba2 = sf.from_doc(sf.parse(text))
    assert sf.serialize(sf.to_doc(ba2)) == text

    mc = canonical_module_coalgebra(all_corpus["z3"])
    text = sf.serialize(sf.to_doc(mc))
    mc2 = sf.from_doc(sf.parse(text))
    assert sf.serialize(sf.to_doc(mc2)) == text


def test_twist_round_trip(all_corpus):
    H = all_corpus["z2z2"]
    F = klein_twist()
    doc = sf.parse(sf.serialize(sf.twist_to_doc(H, F)))
    F2 = sf.doc_to_twist(doc, H)
    assert F2 == F
    # twist for the wrong algebra is rejected
    with pytest.raises(ValueError):
        sf.doc_to_twist(doc, all_corpus["z3"])


def test_parse_rejects_malformed_documents():
    with pytest.raises(ValueError):
        sf.parse("not json")
    with pytest.raises(ValueError):
        sf.parse(json.dumps({"format-version": 1, "kind": "nonsense"}))
    with pytest.raises(ValueError):
        sf.parse(json.dumps({"format-version": 99, "kind": "algebra"}))


def test_tensor_rows_validation():
    t = Tensor((B, B), {(0, 1): Fraction(2, 3)}, QQ)
    rows = sf.rows_from_tensor(t)
    assert sf.tensor_from_rows((B, B), rows, QQ) == t
    with pytest.raises(ValueError):
        sf.tensor_from_rows((B, B), [[0, 1, 1, 0]], QQ)  # zero denominator
    with pytest.raises(ValueError):
        sf.tensor_from_rows((B, B), [[0, 5, 1, 1]], QQ)  # index range
    with pytest.raises(ValueError):
        sf.tensor_from_rows((B, B), [[0, 1, 1, 1], [0, 1, 2, 1]], QQ)


def test_provenance_hashes_inputs():
    prov = sf.provenance("construction", {"a.json": "text"})
    assert prov["construction"] == "construction"
    assert prov["inputs"]["a.json"] == sf.file_hash("text")


@given(st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.integers(-9, 9), st.integers(1, 9)), max_size=6))
def test_tensor_rows_hypothesis_round_trip(entries):
    data = {k: Fraction(n, d) for k, (n, d) in entries.items()}
    t = Tensor((B, B), {k: v for k, v in data.items() if v}, QQ)
    rows = sf.rows_from_tensor(t)
    assert sf.tensor_from_rows((B, B), rows, QQ) == t
    # serialized rows are canonical: sorted and duplicate free
    assert rows == sorted(rows)


def test_left_module_and_plain_algebra_round_trips(all_corpus):
    H = all_corpus["z2_quasi"]
    qs = quasi_smash(canonical_right_comodule(H))
    for obj, cls in ((canonical_left_comodule(H), LeftComoduleAlgebra),
                     (qs, LeftModuleAlgebra),
                     (smash_product(qs), FinAlgebra)):
        text = sf.serialize(sf.to_doc(obj))
        back = sf.from_doc(sf.parse(text))
        assert type(back) is cls
        assert sf.serialize(sf.to_doc(back)) == text


def _malformed_message(doc, key, edit):
    doc["data"][key] = edit(doc["data"][key])
    with pytest.raises(sf.SpecError) as info:
        sf.from_doc(sf.parse(sf.serialize(doc)))
    return str(info.value)


def test_malformed_map_and_pairing_rows_name_row_and_leg(all_corpus):
    # maps and pairings are read as their graphs, so their rows are
    # refused in the tensor reader's words: leg 0 of a map's graph is its
    # input, legs 0 and 1 of a pairing's graph its two inputs
    H = all_corpus["z2"]
    first = sorted(sf.quasihopf_to_doc(H)["data"]["comul"])[0]
    assert _malformed_message(
        sf.quasihopf_to_doc(H), "comul", lambda rows: [first[1:]] + rows) \
        == "bad entry row %r (need 3 indices + num/den)" % (first[1:],)
    assert _malformed_message(
        sf.quasihopf_to_doc(H), "comul", lambda rows: rows + [first]) == \
        "duplicate index %r" % (tuple(first[:3]),)
    ma = sf.to_doc(quasi_smash(canonical_right_comodule(H)))
    bad = [0, 9, 0, 1, 1]
    assert _malformed_message(ma, "action", lambda rows: rows + [bad]) == \
        "index 9 out of range for leg 1 in row [0, 9, 0, 1, 1]"


# sha256 (first 20 hex digits) of the text of every writer of spec
# files, recorded before maps and pairings came to be written as the
# rows of their graphs: to_doc of each object kind, twist_to_doc (of the
# twist element f) and the module-data file of `qhopf derive`
WRITER_SHA256 = {
    ("Q", "z2_quasi"): {
        "quasi-hopf": "c0ea0fdaa3e0d9f4cd06",
        "quasi-bialgebra": "819820ee9b94d307745a",
        "right-comodule-algebra": "f37b4048daece149d972",
        "left-comodule-algebra": "4e9425c86d8126eda289",
        "bicomodule-algebra": "4b33c32a202d8810a382",
        "module-coalgebra": "a7f8d207bb2c784aecd1",
        "module-algebra": "092bf247bcdfefcd1cd5",
        "algebra": "a873944a8cfd17b57d21",
        "twist": "b36bdffd315189fbae28",
        "module-data": "893563bf76bb84097e32",
    },
    ("Q", "z3"): {
        "quasi-hopf": "6aae09693e28f49ffec3",
        "quasi-bialgebra": "10de3ae47739eabcc41a",
        "right-comodule-algebra": "085360dad8b5b907ea04",
        "left-comodule-algebra": "1d3274959f2156d96447",
        "bicomodule-algebra": "6b2f68fe81621cab1518",
        "module-coalgebra": "1778990fc4d6cc2f2f6d",
        "module-algebra": "3746e0c0badfaca63e49",
        "algebra": "dded8c3f4ddf21a2ebd0",
        "twist": "6ef26ddd6320e87dc0c9",
        "module-data": "2ff3919e2656a398fabc",
    },
    ("GF7", "z2_quasi"): {
        "quasi-hopf": "ba58dd2b4700c9f9b21e",
        "quasi-bialgebra": "32f7228b363f3d9de008",
        "right-comodule-algebra": "10e872020577a6e2fed9",
        "left-comodule-algebra": "168c5233c9db6a89e6d4",
        "bicomodule-algebra": "7f48c9a0edc122b85bab",
        "module-coalgebra": "530430f14544ad7be005",
        "module-algebra": "587e2126d59bd6770062",
        "algebra": "e43ccb981b6e0db3a8ad",
        "twist": "c89f8e90a5391a63ddf0",
        "module-data": "628d4930f6045aabc241",
    },
    ("GF7", "z3"): {
        "quasi-hopf": "23513f1aa6b0368877b4",
        "quasi-bialgebra": "48e549d36e05aecd164b",
        "right-comodule-algebra": "f029339b8dd18c89a3b0",
        "left-comodule-algebra": "8b31cf4ad056a6d4f065",
        "bicomodule-algebra": "c9fdaec2a74b8e18cc3d",
        "module-coalgebra": "dbf61c110bd0d43ca4de",
        "module-algebra": "71ead2abde7bd24da641",
        "algebra": "44e9a9ccab823bf90141",
        "twist": "6496d037deee029965dc",
        "module-data": "97af10d6a00355e4136b",
    },
}


@pytest.mark.parametrize("fid, key", sorted(WRITER_SHA256))
def test_writer_outputs_unchanged(fid, key, tmp_path, monkeypatch):
    H = corpus(QQ if fid == "Q" else PrimeField(7))[key]
    qs = quasi_smash(canonical_right_comodule(H))
    objs = {
        "quasi-hopf": H,
        "quasi-bialgebra": QuasiBialgebra(H.algebra, H.comul, H.counit,
                                          H.phi, H.phi_inv, name=H.name),
        "right-comodule-algebra": canonical_right_comodule(H),
        "left-comodule-algebra": canonical_left_comodule(H),
        "bicomodule-algebra": canonical_bicomodule(H),
        "module-coalgebra": canonical_module_coalgebra(H),
        "module-algebra": qs,
        "algebra": smash_product(qs),
    }
    texts = {kind: sf.serialize(sf.to_doc(obj)) for kind, obj in objs.items()}
    texts["twist"] = sf.serialize(sf.twist_to_doc(H, H.derived.f))
    # read by relative path, so the provenance names the same input
    monkeypatch.chdir(tmp_path)
    (tmp_path / "H.json").write_text(texts["quasi-hopf"])
    assert cli.main(["derive", "H.json", "--out", "der.json"]) == 0
    texts["module-data"] = (tmp_path / "der.json").read_text()
    assert {kind: hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]
            for kind, text in texts.items()} == WRITER_SHA256[fid, key]
