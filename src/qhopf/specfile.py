"""Algebra spec files: a canonical JSON format for exact structure data.

A spec file carries a format version, a field descriptor ("Q" or
"GF(p)"), a kind tag, basis labels, and sparse entry rows for each
structure map or tensor. A row is a flat integer list: the multi-index
followed by a numerator and a nonzero denominator, so exactness
survives serialization and diffs stay reviewable. A map or a pairing
is stored as its graph, inputs first, so one tensor codec reads and
writes every entry. Serialization is
canonical (sorted keys, sorted rows, fixed layout): parsing a canonical
file and re-serializing it is byte-identical.

Inverses that can be recomputed (reassociator inverse, antipode
inverse) are optional in the file; when present they are verified,
when absent they are derived.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence

from .algebra import FinAlgebra, LegMul
from .coact import (BicomoduleAlgebra, LeftComoduleAlgebra,
                    LeftModuleAlgebra, RightComoduleAlgebra,
                    RightModuleCoalgebra)
from .fields import Field, parse_field
from .quasihopf import NotInvertibleError, QuasiBialgebra, QuasiHopfAlgebra
from .tensor import Basis, LinearMap, Tensor

FORMAT_VERSION = 1

# the kinds of a quasi-bialgebra, the "h" document of a structure over H
HOPF_KINDS = ("bialgebra", "quasi-bialgebra", "quasi-hopf")


class SpecError(ValueError):
    """Raised for malformed or inconsistent spec files."""


# ----------------------------------------------------------------------
# rows <-> tensors; a map or a pairing is written and read as its graph
# (LinearMap.graph and LegMul.graph, inverted by from_graph)


def rows_from_tensor(t: Tensor) -> List[List[int]]:
    field = t.field
    rows = []
    for idx, c in t.data.items():
        num, den = field.to_pair(c)
        rows.append(list(idx) + [int(num), int(den)])
    rows.sort()
    return rows


def tensor_from_rows(spaces: Sequence[Basis], rows, field: Field) -> Tensor:
    """The tensor on spaces whose entry rows are rows: each row is
    len(spaces) indices followed by a numerator and a denominator, all
    of them JSON integers (not booleans), the denominator nonzero in
    field, index r in range(spaces[r].dim) and no index twice; zero
    scalars are left out."""
    dims = [b.dim for b in spaces]
    data = {}
    for row in rows:
        if not isinstance(row, list) or len(row) != len(dims) + 2 or \
                not all(type(v) is int for v in row):
            raise SpecError("bad entry row %r (need %d indices + num/den)"
                            % (row, len(dims)))
        idx, num, den = tuple(row[:-2]), row[-2], row[-1]
        if den == 0:
            raise SpecError("zero denominator in row %r" % (row,))
        if not field.from_int(den):
            raise SpecError("denominator %d is zero in %s in row %r"
                            % (den, field.name, row))
        for leg, (i, d) in enumerate(zip(idx, dims)):
            if not 0 <= i < d:
                raise SpecError("index %d out of range for leg %d in row %r"
                                % (i, leg, row))
        if idx in data:
            raise SpecError("duplicate index %r" % (idx,))
        data[idx] = field.from_pair(num, den)
    return Tensor(tuple(spaces), data, field)


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


def _build(make, *args, **kwargs):
    """make(*args, **kwargs), the object a reader returns: the
    constructor's refusal of the input (a ValueError) becomes a
    SpecError here. A NotInvertibleError passes unchanged: the input is
    well formed, but a structure it needs has no inverse."""
    try:
        return make(*args, **kwargs)
    except NotInvertibleError:
        raise
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def _parse_basis(doc: dict) -> Basis:
    labels = doc.get("basis")
    if not isinstance(labels, list) or not labels or \
            not all(isinstance(x, str) for x in labels):
        raise SpecError("missing or malformed 'basis' labels")
    if len(set(labels)) != len(labels):
        raise SpecError("duplicate 'basis' labels")
    return Basis(tuple(labels), str(doc.get("name", "")))


def _entry(doc: dict, key: str, spaces: Sequence[Basis], field: Field,
           required: bool = True) -> Optional[Tensor]:
    """The tensor on spaces of the data entry key, or None if the entry
    is absent and not required."""
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
    return tensor_from_rows(spaces, rows, field)


def _algebra_rows(d: dict, alg: FinAlgebra) -> None:
    """Write the "mult" and "unit" entries of alg into the data section
    d, as _algebra reads them."""
    d["mult"] = rows_from_tensor(alg.as_leg().graph())
    d["unit"] = rows_from_tensor(alg.unit_tensor())


def _algebra(doc: dict, b: Basis, field: Field) -> FinAlgebra:
    """The algebra of a document: its "mult" and "unit" entries on b."""
    mult = LegMul.from_graph(_entry(doc, "mult", (b, b, b), field))
    return FinAlgebra(b, mult.table, _entry(doc, "unit", (b,), field), field)


def _subdoc(doc: dict, key: str) -> dict:
    sub = doc.get(key)
    if not isinstance(sub, dict):
        raise SpecError("missing embedded document %r" % key)
    if sub.get("format-version") != FORMAT_VERSION:
        raise SpecError("embedded document %r has bad format-version" % key)
    if sub.get("kind") not in HOPF_KINDS:
        raise SpecError("embedded document %r must be of kind %s"
                        % (key, " or ".join(HOPF_KINDS)))
    return sub


# -- quasi-bialgebras and quasi-Hopf algebras ---------------------------


def quasihopf_to_doc(H: QuasiBialgebra,
                     prov: Optional[dict] = None) -> dict:
    doc = _base_doc(H.kind, H.name, H.field, H.basis, prov)
    d = doc["data"]
    _algebra_rows(d, H.algebra)
    d["comul"] = rows_from_tensor(H.comul.graph())
    d["counit"] = rows_from_tensor(H.counit.graph())
    d["phi"] = rows_from_tensor(H.phi)
    d["phi-inv"] = rows_from_tensor(H.phi_inv)
    if isinstance(H, QuasiHopfAlgebra):
        d["antipode"] = rows_from_tensor(H.antipode.graph())
        d["alpha"] = rows_from_tensor(H.alpha)
        d["beta"] = rows_from_tensor(H.beta)
    return doc


def doc_to_quasihopf(doc: dict) -> QuasiBialgebra:
    field = _build(parse_field, doc.get("field", ""))
    b = _parse_basis(doc)
    algebra = _algebra(doc, b, field)
    comul = LinearMap.from_graph(_entry(doc, "comul", (b, b, b), field))
    counit = LinearMap.from_graph(_entry(doc, "counit", (b,), field))
    phi = _entry(doc, "phi", (b, b, b), field,
                 required=doc["kind"] != "bialgebra")
    if phi is None:
        unit = algebra.unit
        phi = unit.tensor(unit).tensor(unit)
    phi_inv = _entry(doc, "phi-inv", (b, b, b), field, required=False)
    name = str(doc.get("name", ""))
    if doc["kind"] != "quasi-hopf":
        return _build(QuasiBialgebra, algebra, comul, counit, phi, phi_inv,
                      name=name)
    antipode = LinearMap.from_graph(_entry(doc, "antipode", (b, b), field))
    alpha = _entry(doc, "alpha", (b,), field)
    beta = _entry(doc, "beta", (b,), field)
    return _build(QuasiHopfAlgebra, algebra, comul, counit, phi, antipode,
                  alpha, beta, phi_inv, name=name)


# -- plain algebras and module algebras ---------------------------------


def algebra_to_doc(alg: FinAlgebra, name: str = "",
                   prov: Optional[dict] = None) -> dict:
    doc = _base_doc("algebra", name or alg.basis.name, alg.field,
                    alg.basis, prov)
    _algebra_rows(doc["data"], alg)
    return doc


def doc_to_algebra(doc: dict) -> FinAlgebra:
    field = _build(parse_field, doc.get("field", ""))
    return _algebra(doc, _parse_basis(doc), field)


def module_algebra_to_doc(ma: LeftModuleAlgebra,
                          prov: Optional[dict] = None) -> dict:
    doc = _base_doc("module-algebra", ma.name, ma.H.field,
                    ma.algebra.basis, prov)
    doc["h"] = quasihopf_to_doc(ma.H)
    _algebra_rows(doc["data"], ma.algebra)
    doc["data"]["action"] = rows_from_tensor(ma.action.graph())
    return doc


def doc_to_module_algebra(doc: dict) -> LeftModuleAlgebra:
    H = doc_to_quasihopf(_subdoc(doc, "h"))
    field = H.field
    b = _parse_basis(doc)
    algebra = _algebra(doc, b, field)
    action = LegMul.from_graph(_entry(doc, "action", (H.basis, b, b), field))
    return _build(LeftModuleAlgebra, H, algebra, action,
                  name=str(doc.get("name", "")))


# -- comodule algebras ---------------------------------------------------

# side -> the class of that side, the attribute of its reassociator, and
# the spaces of the graph of its coaction and of its reassociator for the
# carrier's basis a and H's basis h
COMODULE_SIDES = {
    "right": (RightComoduleAlgebra, "phi_rho",
              lambda a, h: ((a, a, h), (a, h, h))),
    "left": (LeftComoduleAlgebra, "phi_lam",
             lambda a, h: ((a, h, a), (h, h, a))),
}


def comodule_algebra_to_doc(ca, prov: Optional[dict] = None) -> dict:
    for side, (cls, phi, _) in COMODULE_SIDES.items():
        if isinstance(ca, cls):
            break
    else:
        raise SpecError("not a comodule algebra: %r" % (ca,))
    doc = _base_doc("comodule-algebra", ca.name, ca.field,
                    ca.algebra.basis, prov)
    doc["h"] = quasihopf_to_doc(ca.H)
    doc["side"] = side
    d = doc["data"]
    _algebra_rows(d, ca.algebra)
    d["coaction"] = rows_from_tensor(ca.coaction.graph())
    d["reassociator"] = rows_from_tensor(getattr(ca, phi))
    d["reassociator-inv"] = rows_from_tensor(getattr(ca, phi + "_inv"))
    return doc


def doc_to_comodule_algebra(doc: dict):
    H = doc_to_quasihopf(_subdoc(doc, "h"))
    field = H.field
    b = _parse_basis(doc)
    algebra = _algebra(doc, b, field)
    side = doc.get("side")
    if side not in tuple(COMODULE_SIDES):
        raise SpecError("comodule-algebra side must be 'left' or 'right'")
    cls, _, shapes = COMODULE_SIDES[side]
    co_spaces, phi_spaces = shapes(b, H.basis)
    coaction = LinearMap.from_graph(_entry(doc, "coaction", co_spaces, field))
    phi = _entry(doc, "reassociator", phi_spaces, field)
    inv = _entry(doc, "reassociator-inv", phi_spaces, field, required=False)
    return _build(cls, H, algebra, coaction, phi, inv,
                  name=str(doc.get("name", "")))


# -- module coalgebras ---------------------------------------------------


def module_coalgebra_to_doc(mc: RightModuleCoalgebra,
                            prov: Optional[dict] = None) -> dict:
    doc = _base_doc("module-coalgebra", mc.name, mc.H.field, mc.basis, prov)
    doc["h"] = quasihopf_to_doc(mc.H)
    d = doc["data"]
    d["comul"] = rows_from_tensor(mc.comul.graph())
    d["counit"] = rows_from_tensor(mc.counit.graph())
    d["action"] = rows_from_tensor(mc.action.graph())
    return doc


def doc_to_module_coalgebra(doc: dict) -> RightModuleCoalgebra:
    H = doc_to_quasihopf(_subdoc(doc, "h"))
    field = H.field
    b = _parse_basis(doc)
    comul = LinearMap.from_graph(_entry(doc, "comul", (b, b, b), field))
    counit = LinearMap.from_graph(_entry(doc, "counit", (b,), field))
    action = LegMul.from_graph(_entry(doc, "action", (b, H.basis, b), field))
    return _build(RightModuleCoalgebra, H, b, comul, counit, action,
                  name=str(doc.get("name", "")))


# -- bicomodule algebras -------------------------------------------------


def bicomodule_algebra_to_doc(ba: BicomoduleAlgebra,
                              prov: Optional[dict] = None) -> dict:
    doc = _base_doc("bicomodule-algebra", ba.name, ba.H.field,
                    ba.algebra.basis, prov)
    doc["h"] = quasihopf_to_doc(ba.H)
    d = doc["data"]
    _algebra_rows(d, ba.algebra)
    d["left-coaction"] = rows_from_tensor(ba.left.coaction.graph())
    d["right-coaction"] = rows_from_tensor(ba.right.coaction.graph())
    d["reassociator-left"] = rows_from_tensor(ba.left.phi_lam)
    d["reassociator-right"] = rows_from_tensor(ba.right.phi_rho)
    d["reassociator-mid"] = rows_from_tensor(ba.phi_mid)
    d["reassociator-mid-inv"] = rows_from_tensor(ba.phi_mid_inv)
    return doc


def doc_to_bicomodule_algebra(doc: dict) -> BicomoduleAlgebra:
    H = doc_to_quasihopf(_subdoc(doc, "h"))
    field = H.field
    b, h = _parse_basis(doc), H.basis
    algebra = _algebra(doc, b, field)
    lco = LinearMap.from_graph(_entry(doc, "left-coaction", (b, h, b), field))
    rco = LinearMap.from_graph(_entry(doc, "right-coaction", (b, b, h),
                                      field))
    phi_lam = _entry(doc, "reassociator-left", (h, h, b), field)
    phi_rho = _entry(doc, "reassociator-right", (b, h, h), field)
    phi_mid = _entry(doc, "reassociator-mid", (h, b, h), field)
    phi_mid_inv = _entry(doc, "reassociator-mid-inv", (h, b, h), field,
                         required=False)
    return _build(lambda: BicomoduleAlgebra(
        LeftComoduleAlgebra(H, algebra, lco, phi_lam),
        RightComoduleAlgebra(H, algebra, rco, phi_rho), phi_mid,
        phi_mid_inv, name=str(doc.get("name", ""))))


# -- twists and module data ---------------------------------------------


def twist_to_doc(H: QuasiBialgebra, f: Tensor,
                 prov: Optional[dict] = None) -> dict:
    doc = _base_doc("twist", "twist on %s" % H.name, H.field, H.basis, prov)
    doc["data"]["twist"] = rows_from_tensor(f)
    return doc


def doc_to_twist(doc: dict, H: QuasiBialgebra) -> Tensor:
    field = _build(parse_field, doc.get("field", ""))
    if field != H.field:
        raise SpecError("twist field %s does not match algebra field %s"
                        % (field.name, H.field.name))
    b = _parse_basis(doc)
    if b.labels != H.basis.labels:
        raise SpecError("twist basis labels do not match the algebra")
    return _entry(doc, "twist", (H.basis, H.basis), field)


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


# kind -> the reader of its object form
READERS = dict.fromkeys(HOPF_KINDS, doc_to_quasihopf)
READERS.update({
    "algebra": doc_to_algebra,
    "module-algebra": doc_to_module_algebra,
    "comodule-algebra": doc_to_comodule_algebra,
    "module-coalgebra": doc_to_module_coalgebra,
    "bicomodule-algebra": doc_to_bicomodule_algebra,
})

# twist files are read against an algebra (doc_to_twist) and module-data
# files are only written, so neither has an object form
KINDS = tuple(READERS) + ("module-data", "twist")


def from_doc(doc: dict):
    reader = READERS.get(doc.get("kind"))
    if reader is None:
        raise SpecError("kind %r has no direct object form"
                        % (doc.get("kind"),))
    return reader(doc)
