"""Algebra spec files: a canonical JSON format for exact structure data.

A spec file carries a format version, a field descriptor ("Q" or
"GF(p)"), a kind tag, basis labels, and sparse entry rows for each
structure map or tensor. A row is a flat integer list: the multi-index
followed by a numerator and a nonzero denominator, so exactness
survives serialization and diffs stay reviewable. Serialization is
canonical (sorted keys, sorted rows, fixed layout): parsing a canonical
file and re-serializing it is byte-identical.

Inverses that can be recomputed (reassociator inverse, antipode
inverse) are optional in the file; when present they are verified,
when absent they are derived.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import FinAlgebra, LegMul
from .coact import (BicomoduleAlgebra, LeftComoduleAlgebra,
                    LeftModuleAlgebra, RightComoduleAlgebra,
                    RightModuleCoalgebra)
from .fields import Field, parse_field
from .quasihopf import QuasiBialgebra, QuasiHopfAlgebra
from .tensor import Basis, LinearMap, Tensor

FORMAT_VERSION = 1

KINDS = ("bialgebra", "quasi-bialgebra", "quasi-hopf", "algebra",
         "module-algebra", "comodule-algebra", "module-coalgebra",
         "bicomodule-algebra", "module-data", "twist", "datum-bundle")


class SpecError(ValueError):
    """Raised for malformed or inconsistent spec files."""


# ----------------------------------------------------------------------
# rows <-> tensors and maps


def rows_from_tensor(t: Tensor) -> List[List[int]]:
    field = t.field
    rows = []
    for idx, c in t.data.items():
        num, den = field.to_pair(c)
        rows.append(list(idx) + [int(num), int(den)])
    rows.sort()
    return rows


def _entries(rows, dims: Sequence[int], field: Field, bad_row: str,
             out_of_range, duplicate):
    """(index, scalar) for each entry row of a reader: len(dims) indices
    followed by a numerator and a denominator, all of them JSON integers
    (not booleans), the denominator nonzero in field, index r in
    range(dims[r]) and no index twice; zero scalars are left out.
    bad_row is the reader's message for a malformed row, and
    out_of_range(leg, row) and duplicate(index, row) give its other
    messages."""
    seen = set()
    for row in rows:
        if not isinstance(row, list) or len(row) != len(dims) + 2 or \
                not all(type(v) is int for v in row):
            raise SpecError(bad_row % (row,))
        idx, num, den = tuple(row[:-2]), row[-2], row[-1]
        if den == 0:
            raise SpecError("zero denominator in row %r" % (row,))
        if not field.from_int(den):
            raise SpecError("denominator %d is zero in %s in row %r"
                            % (den, field.name, row))
        for leg, (i, d) in enumerate(zip(idx, dims)):
            if not 0 <= i < d:
                raise SpecError(out_of_range(leg, row))
        if idx in seen:
            raise SpecError(duplicate(idx, row))
        seen.add(idx)
        c = field.from_pair(num, den)
        if c:
            yield idx, c


def tensor_from_rows(spaces: Sequence[Basis], rows, field: Field) -> Tensor:
    data = dict(_entries(
        rows, [b.dim for b in spaces], field,
        "bad entry row %%r (need %d indices + num/den)" % len(spaces),
        lambda leg, row: "index %d out of range for leg %d in row %r"
        % (row[leg], leg, row),
        lambda idx, row: "duplicate index %r" % (idx,)))
    return Tensor(tuple(spaces), data, field)


def rows_from_linmap(f: LinearMap) -> List[List[int]]:
    field = f.field
    rows = []
    for i, col in f.cols.items():
        for idx, c in col.items():
            num, den = field.to_pair(c)
            rows.append([i] + list(idx) + [int(num), int(den)])
    rows.sort()
    return rows


def linmap_from_rows(domain: Basis, codomain: Tuple[Basis, ...], rows,
                     field: Field) -> LinearMap:
    def out_of_range(leg, row):
        if leg == 0:
            return "source index out of range in row %r" % (row,)
        return "index %d out of range for leg %d in row %r" % (
            row[leg], leg - 1, row)

    cols: Dict[int, Dict[tuple, object]] = {}
    for idx, c in _entries(
            rows, [domain.dim] + [b.dim for b in codomain], field,
            "bad map row %r", out_of_range,
            lambda idx, row: "duplicate index %r" % (row,)):
        cols.setdefault(idx[0], {})[idx[1:]] = c
    return LinearMap(domain, tuple(codomain), cols, field)


def rows_from_legmul(lm: LegMul) -> List[List[int]]:
    field = lm.field
    rows = []
    for (i, j), col in lm.table.items():
        for k, c in col.items():
            num, den = field.to_pair(c)
            rows.append([i, j, k, int(num), int(den)])
    rows.sort()
    return rows


def legmul_from_rows(left: Basis, right: Basis, out: Basis, rows,
                     field: Field) -> LegMul:
    table: Dict[Tuple[int, int], Dict[int, object]] = {}
    for (i, j, k), c in _entries(
            rows, (left.dim, right.dim, out.dim), field, "bad product row %r",
            lambda leg, row: "index out of range in row %r" % (row,),
            lambda idx, row: "duplicate index %r" % (row,)):
        table.setdefault((i, j), {})[k] = c
    return LegMul(left, right, out, table, field)


# ----------------------------------------------------------------------
# documents


def serialize(doc: dict) -> str:
    """Canonical serialization: sorted keys, one-space indentation."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def parse(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("invalid JSON: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise SpecError("spec file must be a JSON object")
    if doc.get("format-version") != FORMAT_VERSION:
        raise SpecError("unsupported format-version %r"
                        % (doc.get("format-version"),))
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SpecError("unknown kind %r" % (kind,))
    return doc


def file_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def provenance(construction: str,
               inputs: Optional[Dict[str, str]] = None) -> dict:
    doc = {"construction": construction}
    if inputs:
        doc["inputs"] = {k: file_hash(v) for k, v in inputs.items()}
    return doc


def _base_doc(kind: str, name: str, field: Field,
              basis: Basis, prov: Optional[dict]) -> dict:
    doc = {"format-version": FORMAT_VERSION, "kind": kind, "name": name,
           "field": field.name, "basis": list(basis.labels), "data": {}}
    if prov:
        doc["provenance"] = prov
    return doc


def _parse_basis(doc: dict, key: str = "basis",
                 name_key: str = "name") -> Basis:
    labels = doc.get(key)
    if not isinstance(labels, list) or not labels or \
            not all(isinstance(x, str) for x in labels):
        raise SpecError("missing or malformed %r labels" % key)
    if len(set(labels)) != len(labels):
        raise SpecError("duplicate %r labels" % key)
    return Basis(tuple(labels), str(doc.get(name_key, "")))


def _algebra(doc: dict, b: Basis, field: Field) -> FinAlgebra:
    """The algebra of a document: its "mult" and "unit" entries on b."""
    mult = legmul_from_rows(b, b, b, _data(doc, "mult"), field)
    unit = tensor_from_rows((b,), _data(doc, "unit"), field)
    return FinAlgebra(b, mult.table, unit, field)


def _data(doc: dict, key: str, required: bool = True):
    data = doc.get("data")
    if not isinstance(data, dict):
        raise SpecError("missing data section")
    rows = data.get(key)
    if rows is None:
        if required:
            raise SpecError("missing data entry %r" % key)
        return None
    if not isinstance(rows, list):
        raise SpecError("data entry %r must be a list of rows" % key)
    return rows


# -- quasi-bialgebras and quasi-Hopf algebras ---------------------------


def quasihopf_to_doc(H: QuasiBialgebra,
                     prov: Optional[dict] = None) -> dict:
    doc = _base_doc(H.kind, H.name, H.field, H.basis, prov)
    d = doc["data"]
    d["mult"] = rows_from_legmul(H.leg())
    d["unit"] = rows_from_tensor(H.algebra.unit_tensor())
    d["comul"] = rows_from_linmap(H.comul)
    d["counit"] = rows_from_linmap(H.counit)
    d["phi"] = rows_from_tensor(H.phi)
    d["phi-inv"] = rows_from_tensor(H.phi_inv)
    if isinstance(H, QuasiHopfAlgebra):
        d["antipode"] = rows_from_linmap(H.antipode)
        d["alpha"] = rows_from_tensor(H.alpha)
        d["beta"] = rows_from_tensor(H.beta)
    return doc


def doc_to_quasihopf(doc: dict) -> QuasiBialgebra:
    field = parse_field(doc.get("field", ""))
    b = _parse_basis(doc)
    algebra = _algebra(doc, b, field)
    comul = linmap_from_rows(b, (b, b), _data(doc, "comul"), field)
    counit = linmap_from_rows(b, (), _data(doc, "counit"), field)
    phi_rows = _data(doc, "phi", required=doc["kind"] != "bialgebra")
    if phi_rows is None:
        unit = algebra.unit
        phi = unit.tensor(unit).tensor(unit)
    else:
        phi = tensor_from_rows((b, b, b), phi_rows, field)
    inv_rows = _data(doc, "phi-inv", required=False)
    phi_inv = (tensor_from_rows((b, b, b), inv_rows, field)
               if inv_rows is not None else None)
    try:
        if doc["kind"] in ("bialgebra", "quasi-bialgebra"):
            return QuasiBialgebra(algebra, comul, counit, phi, phi_inv,
                                  name=str(doc.get("name", "")))
        antipode = linmap_from_rows(b, (b,), _data(doc, "antipode"), field)
        alpha = tensor_from_rows((b,), _data(doc, "alpha"), field)
        beta = tensor_from_rows((b,), _data(doc, "beta"), field)
        return QuasiHopfAlgebra(algebra, comul, counit, phi, antipode,
                                alpha, beta, phi_inv,
                                name=str(doc.get("name", "")))
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


# -- plain algebras and module algebras ---------------------------------


def algebra_to_doc(alg: FinAlgebra, name: str = "",
                   prov: Optional[dict] = None) -> dict:
    doc = _base_doc("algebra", name or alg.basis.name, alg.field,
                    alg.basis, prov)
    doc["data"]["mult"] = rows_from_legmul(alg.as_leg())
    doc["data"]["unit"] = rows_from_tensor(alg.unit_tensor())
    return doc


def doc_to_algebra(doc: dict) -> FinAlgebra:
    field = parse_field(doc.get("field", ""))
    b = _parse_basis(doc)
    return _algebra(doc, b, field)


def module_algebra_to_doc(ma: LeftModuleAlgebra,
                          prov: Optional[dict] = None) -> dict:
    doc = _base_doc("module-algebra", ma.name, ma.H.field,
                    ma.algebra.basis, prov)
    doc["h"] = quasihopf_to_doc(ma.H)
    d = doc["data"]
    d["mult"] = rows_from_legmul(ma.algebra.as_leg())
    d["unit"] = rows_from_tensor(ma.algebra.unit_tensor())
    d["action"] = rows_from_legmul(ma.action)
    return doc


def doc_to_module_algebra(doc: dict) -> LeftModuleAlgebra:
    H = doc_to_quasihopf(_subdoc(doc, "h"))
    field = H.field
    b = _parse_basis(doc)
    algebra = _algebra(doc, b, field)
    action = legmul_from_rows(H.basis, b, b, _data(doc, "action"), field)
    return LeftModuleAlgebra(H, algebra, action,
                             name=str(doc.get("name", "")))


def _subdoc(doc: dict, key: str) -> dict:
    sub = doc.get(key)
    if not isinstance(sub, dict):
        raise SpecError("missing embedded document %r" % key)
    if sub.get("format-version") != FORMAT_VERSION:
        raise SpecError("embedded document %r has bad format-version" % key)
    return sub


# -- comodule algebras ---------------------------------------------------


def comodule_algebra_to_doc(ca, prov: Optional[dict] = None) -> dict:
    if isinstance(ca, RightComoduleAlgebra):
        side = "right"
    elif isinstance(ca, LeftComoduleAlgebra):
        side = "left"
    else:
        raise SpecError("not a comodule algebra: %r" % (ca,))
    doc = _base_doc("comodule-algebra", ca.name, ca.field,
                    ca.algebra.basis, prov)
    doc["h"] = quasihopf_to_doc(ca.H)
    doc["side"] = side
    d = doc["data"]
    d["mult"] = rows_from_legmul(ca.algebra.as_leg())
    d["unit"] = rows_from_tensor(ca.algebra.unit_tensor())
    d["coaction"] = rows_from_linmap(ca.coaction)
    if side == "right":
        d["reassociator"] = rows_from_tensor(ca.phi_rho)
        d["reassociator-inv"] = rows_from_tensor(ca.phi_rho_inv)
    else:
        d["reassociator"] = rows_from_tensor(ca.phi_lam)
        d["reassociator-inv"] = rows_from_tensor(ca.phi_lam_inv)
    return doc


def doc_to_comodule_algebra(doc: dict):
    H = doc_to_quasihopf(_subdoc(doc, "h"))
    field = H.field
    b = _parse_basis(doc)
    algebra = _algebra(doc, b, field)
    side = doc.get("side")
    inv_rows = _data(doc, "reassociator-inv", required=False)
    try:
        if side == "right":
            coaction = linmap_from_rows(b, (b, H.basis),
                                        _data(doc, "coaction"), field)
            spaces = (b, H.basis, H.basis)
            phi = tensor_from_rows(spaces, _data(doc, "reassociator"), field)
            inv = (tensor_from_rows(spaces, inv_rows, field)
                   if inv_rows is not None else None)
            return RightComoduleAlgebra(H, algebra, coaction, phi, inv,
                                        name=str(doc.get("name", "")))
        if side == "left":
            coaction = linmap_from_rows(b, (H.basis, b),
                                        _data(doc, "coaction"), field)
            spaces = (H.basis, H.basis, b)
            phi = tensor_from_rows(spaces, _data(doc, "reassociator"), field)
            inv = (tensor_from_rows(spaces, inv_rows, field)
                   if inv_rows is not None else None)
            return LeftComoduleAlgebra(H, algebra, coaction, phi, inv,
                                       name=str(doc.get("name", "")))
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    raise SpecError("comodule-algebra side must be 'left' or 'right'")


# -- module coalgebras ---------------------------------------------------


def module_coalgebra_to_doc(mc: RightModuleCoalgebra,
                            prov: Optional[dict] = None) -> dict:
    doc = _base_doc("module-coalgebra", mc.name, mc.H.field, mc.basis, prov)
    doc["h"] = quasihopf_to_doc(mc.H)
    d = doc["data"]
    d["comul"] = rows_from_linmap(mc.comul)
    d["counit"] = rows_from_linmap(mc.counit)
    d["action"] = rows_from_legmul(mc.action)
    return doc


def doc_to_module_coalgebra(doc: dict) -> RightModuleCoalgebra:
    H = doc_to_quasihopf(_subdoc(doc, "h"))
    field = H.field
    b = _parse_basis(doc)
    comul = linmap_from_rows(b, (b, b), _data(doc, "comul"), field)
    counit = linmap_from_rows(b, (), _data(doc, "counit"), field)
    action = legmul_from_rows(b, H.basis, b, _data(doc, "action"), field)
    return RightModuleCoalgebra(H, b, comul, counit, action,
                                name=str(doc.get("name", "")))


# -- bicomodule algebras -------------------------------------------------


def bicomodule_algebra_to_doc(ba: BicomoduleAlgebra,
                              prov: Optional[dict] = None) -> dict:
    doc = _base_doc("bicomodule-algebra", ba.name, ba.H.field,
                    ba.algebra.basis, prov)
    doc["h"] = quasihopf_to_doc(ba.H)
    d = doc["data"]
    d["mult"] = rows_from_legmul(ba.algebra.as_leg())
    d["unit"] = rows_from_tensor(ba.algebra.unit_tensor())
    d["left-coaction"] = rows_from_linmap(ba.left.coaction)
    d["right-coaction"] = rows_from_linmap(ba.right.coaction)
    d["reassociator-left"] = rows_from_tensor(ba.left.phi_lam)
    d["reassociator-right"] = rows_from_tensor(ba.right.phi_rho)
    d["reassociator-mid"] = rows_from_tensor(ba.phi_mid)
    d["reassociator-mid-inv"] = rows_from_tensor(ba.phi_mid_inv)
    return doc


def doc_to_bicomodule_algebra(doc: dict) -> BicomoduleAlgebra:
    H = doc_to_quasihopf(_subdoc(doc, "h"))
    field = H.field
    b = _parse_basis(doc)
    algebra = _algebra(doc, b, field)
    lco = linmap_from_rows(b, (H.basis, b), _data(doc, "left-coaction"),
                           field)
    rco = linmap_from_rows(b, (b, H.basis), _data(doc, "right-coaction"),
                           field)
    phi_lam = tensor_from_rows((H.basis, H.basis, b),
                               _data(doc, "reassociator-left"), field)
    phi_rho = tensor_from_rows((b, H.basis, H.basis),
                               _data(doc, "reassociator-right"), field)
    phi_mid = tensor_from_rows((H.basis, b, H.basis),
                               _data(doc, "reassociator-mid"), field)
    inv_rows = _data(doc, "reassociator-mid-inv", required=False)
    phi_mid_inv = (tensor_from_rows((H.basis, b, H.basis), inv_rows, field)
                   if inv_rows is not None else None)
    try:
        left = LeftComoduleAlgebra(H, algebra, lco, phi_lam)
        right = RightComoduleAlgebra(H, algebra, rco, phi_rho)
        return BicomoduleAlgebra(left, right, phi_mid, phi_mid_inv,
                                 name=str(doc.get("name", "")))
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


# -- twists and bundles --------------------------------------------------


def twist_to_doc(H: QuasiBialgebra, f: Tensor,
                 prov: Optional[dict] = None) -> dict:
    doc = _base_doc("twist", "twist on %s" % H.name, H.field, H.basis, prov)
    doc["data"]["twist"] = rows_from_tensor(f)
    return doc


def doc_to_twist(doc: dict, H: QuasiBialgebra) -> Tensor:
    field = parse_field(doc.get("field", ""))
    if field != H.field:
        raise SpecError("twist field %s does not match algebra field %s"
                        % (field.name, H.field.name))
    b = _parse_basis(doc)
    if b.labels != H.basis.labels:
        raise SpecError("twist basis labels do not match the algebra")
    return tensor_from_rows((H.basis, H.basis), _data(doc, "twist"), field)


def module_data_to_doc(name: str, field: Field, basis: Basis,
                       tensors: Dict[str, Tensor],
                       prov: Optional[dict] = None) -> dict:
    doc = _base_doc("module-data", name, field, basis, prov)
    doc["legs"] = {}
    for key, t in sorted(tensors.items()):
        doc["data"][key] = rows_from_tensor(t)
        doc["legs"][key] = [s.dim for s in t.spaces]
    return doc


# ----------------------------------------------------------------------
# dispatch


def to_doc(obj, prov: Optional[dict] = None) -> dict:
    if isinstance(obj, QuasiBialgebra):
        return quasihopf_to_doc(obj, prov)
    if isinstance(obj, (RightComoduleAlgebra, LeftComoduleAlgebra)):
        return comodule_algebra_to_doc(obj, prov)
    if isinstance(obj, BicomoduleAlgebra):
        return bicomodule_algebra_to_doc(obj, prov)
    if isinstance(obj, RightModuleCoalgebra):
        return module_coalgebra_to_doc(obj, prov)
    if isinstance(obj, LeftModuleAlgebra):
        return module_algebra_to_doc(obj, prov)
    if isinstance(obj, FinAlgebra):
        return algebra_to_doc(obj, prov=prov)
    raise SpecError("cannot serialize %r" % type(obj).__name__)


def from_doc(doc: dict):
    kind = doc.get("kind")
    if kind in ("bialgebra", "quasi-bialgebra", "quasi-hopf"):
        return doc_to_quasihopf(doc)
    if kind == "algebra":
        return doc_to_algebra(doc)
    if kind == "module-algebra":
        return doc_to_module_algebra(doc)
    if kind == "comodule-algebra":
        return doc_to_comodule_algebra(doc)
    if kind == "module-coalgebra":
        return doc_to_module_coalgebra(doc)
    if kind == "bicomodule-algebra":
        return doc_to_bicomodule_algebra(doc)
    raise SpecError("kind %r has no direct object form" % (kind,))
