"""Command-line interface: spec-file checking, twisting, derivation,
product construction, verification suites and corpus generation.

Exit codes: 0 all checks pass, 1 verification failure or non-invertible
input, 2 malformed input, 3 a valid input that the requested suite does
not apply to. Reports are JSON on standard output and are
deterministic for fixed inputs and seed (timings are excluded).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import specfile as sf
from .classical import NotApplicableError, verify_classical_agreement
from .coact import (LeftComoduleAlgebra, LeftModuleAlgebra,
                    RightComoduleAlgebra, canonical_right_comodule,
                    check_bicomodule_algebra, check_left_comodule_algebra,
                    check_left_module_algebra, check_right_comodule_algebra,
                    check_right_module_coalgebra, verify_tilde_identities)
from .corpus import corpus
from .doihopf import verify_crossed_module_description
from .fields import parse_field
from .hopfmod import verify_module_correspondence
from .products import (generalized_smash, quasi_smash, smash_product,
                       two_sided_crossed, verify_crossed_decomposition,
                       verify_heisenberg_double, verify_hom_smash)
from .quasihopf import (NotGaugeError, NotInvertibleError, QuasiBialgebra,
                        QuasiHopfAlgebra, check_dual_bimodule_algebra,
                        check_quasibialgebra, check_quasihopf, twist,
                        verify_core_identities)
from .report import VerificationReport

SUITES = ("axioms", "identities", "tilde", "dual-algebra", "heisenberg",
          "crossed-product", "hom-smash", "modules", "crossed-modules",
          "classical")

PRODUCT_KINDS = ("smash", "quasi-smash", "generalized-smash", "two-sided")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise sf.SpecError("cannot read %s: %s" % (path, exc)) from exc


def _load(path: str):
    return sf.from_doc(sf.parse(_read(path)))


def _load_hopf(path: str) -> QuasiHopfAlgebra:
    obj = _load(path)
    if not isinstance(obj, QuasiHopfAlgebra):
        raise sf.SpecError("%s: expected a quasi-hopf spec file" % path)
    return obj


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(rep: VerificationReport, args) -> int:
    if getattr(args, "pretty", False):
        sys.stdout.write("%s\n" % rep.subject)
        for line in rep.summary_lines():
            sys.stdout.write(line + "\n")
        sys.stdout.write("verdict: %s\n" % ("pass" if rep.passed else "FAIL"))
    else:
        sys.stdout.write(rep.to_json())
    return 0 if rep.passed else 1


# ----------------------------------------------------------------------
# commands


def cmd_check(args) -> int:
    doc = sf.parse(_read(args.file))
    kind = doc["kind"]
    if kind in ("bialgebra", "quasi-bialgebra"):
        rep = check_quasibialgebra(sf.doc_to_quasihopf(doc))
    elif kind == "quasi-hopf":
        rep = check_quasihopf(sf.doc_to_quasihopf(doc))
    elif kind == "comodule-algebra":
        obj = sf.doc_to_comodule_algebra(doc)
        rep = (check_right_comodule_algebra(obj)
               if isinstance(obj, RightComoduleAlgebra)
               else check_left_comodule_algebra(obj))
    elif kind == "module-coalgebra":
        rep = check_right_module_coalgebra(sf.doc_to_module_coalgebra(doc))
    elif kind == "bicomodule-algebra":
        rep = check_bicomodule_algebra(sf.doc_to_bicomodule_algebra(doc))
    elif kind == "module-algebra":
        rep = check_left_module_algebra(sf.doc_to_module_algebra(doc))
    elif kind == "algebra":
        alg = sf.doc_to_algebra(doc)
        rep = VerificationReport("algebra %s" % doc.get("name", ""),
                                 {"dim": alg.dim, "field": alg.field.name})
        bad = alg.is_associative()
        rep.check_bool("associative", bad is None,
                       None if bad is None else {"at": list(bad)})
        bad = alg.unit_laws_hold()
        rep.check_bool("unit", bad is None,
                       None if bad is None else {"at": [bad]})
    else:
        raise sf.SpecError("kind %r is not checkable" % kind)
    return _emit(rep, args)


def cmd_twist(args) -> int:
    h_text = _read(args.file)
    t_text = _read(args.twist_file)
    H = sf.from_doc(sf.parse(h_text))
    if not isinstance(H, QuasiBialgebra):
        raise sf.SpecError("%s: expected an algebra spec file" % args.file)
    F = sf.doc_to_twist(sf.parse(t_text), H)
    try:
        HF = twist(H, F)
    except NotGaugeError:
        sys.stderr.write("twist is not a gauge transformation "
                         "(normalization or invertibility fails)\n")
        return 1
    except ValueError as exc:
        sys.stderr.write("twist failed: %s\n" % exc)
        return 1
    prov = sf.provenance("twist", {args.file: h_text,
                                   args.twist_file: t_text})
    _write(args.out, sf.serialize(sf.quasihopf_to_doc(HF, prov)))
    return 0


def cmd_derive(args) -> int:
    text = _read(args.file)
    H = _load_hopf(args.file)
    der = H.derived
    tensors = {
        "gamma": der.gamma, "delta": der.delta,
        "twist-element": der.f, "twist-element-inv": der.f_inv,
        "p-right": der.p_R, "q-right": der.q_R,
        "p-left": der.p_L, "q-left": der.q_L,
        "u-element": der.U, "v-element": der.V,
    }
    prov = sf.provenance("derive", {args.file: text})
    doc = sf.module_data_to_doc("derived elements of %s" % H.name,
                                H.field, H.basis, tensors, prov)
    _write(args.out, sf.serialize(doc))
    return 0


def cmd_product(args) -> int:
    kind = args.product_kind
    texts = {p: _read(p) for p in args.files}
    objs = [sf.from_doc(sf.parse(texts[p])) for p in args.files]
    if kind == "smash":
        (ma,) = objs
        if not isinstance(ma, LeftModuleAlgebra):
            raise sf.SpecError("smash needs a module-algebra file")
        prod = smash_product(ma)
        out_doc = sf.algebra_to_doc(prod.alg, name=prod.name)
    elif kind == "quasi-smash":
        (ca,) = objs
        if not isinstance(ca, RightComoduleAlgebra):
            raise sf.SpecError("quasi-smash needs a right comodule-algebra "
                               "file")
        qs = quasi_smash(ca)
        out_doc = sf.module_algebra_to_doc(qs)
    elif kind == "generalized-smash":
        ma, cb = objs
        if not isinstance(ma, LeftModuleAlgebra) or \
                not isinstance(cb, LeftComoduleAlgebra):
            raise sf.SpecError("generalized-smash needs a module-algebra "
                               "file and a left comodule-algebra file")
        prod = generalized_smash(ma, cb)
        out_doc = sf.algebra_to_doc(prod.alg, name=prod.name)
    elif kind == "two-sided":
        rca, lcb = objs
        if not isinstance(rca, RightComoduleAlgebra) or \
                not isinstance(lcb, LeftComoduleAlgebra):
            raise sf.SpecError("two-sided needs a right and a left "
                               "comodule-algebra file")
        prod = two_sided_crossed(rca, lcb)
        out_doc = sf.algebra_to_doc(prod.alg, name=prod.name)
    else:
        raise sf.SpecError("unknown product kind %r" % kind)
    out_doc["provenance"] = sf.provenance("product:" + kind, texts)
    _write(args.out, sf.serialize(out_doc))
    return 0


def cmd_verify(args) -> int:
    H = _load_hopf(args.file)
    seed = args.seed
    suite = args.suite
    if suite == "axioms":
        rep = check_quasihopf(H)
    elif suite == "identities":
        rep = verify_core_identities(H)
    elif suite == "tilde":
        rep = verify_tilde_identities(canonical_right_comodule(H))
    elif suite == "dual-algebra":
        rep = check_dual_bimodule_algebra(H.dual)
    elif suite == "heisenberg":
        rep = verify_heisenberg_double(H)
    elif suite == "crossed-product":
        rep = verify_crossed_decomposition(H)
    elif suite == "hom-smash":
        rep = verify_hom_smash(canonical_right_comodule(H))
    elif suite == "modules":
        rep = verify_module_correspondence(
            H, seeds=tuple(range(seed, seed + 5)))
    elif suite == "crossed-modules":
        rep = verify_crossed_module_description(
            H, seeds=tuple(range(seed, seed + 3)))
    elif suite == "classical":
        rep = verify_classical_agreement(H)
    else:
        raise sf.SpecError("unknown suite %r" % suite)
    return _emit(rep, args)


def cmd_corpus(args) -> int:
    entries = corpus(parse_field(args.field))
    os.makedirs(args.out, exist_ok=True)
    for key, H in entries.items():
        prov = sf.provenance("corpus:" + key)
        path = os.path.join(args.out, key + ".json")
        _write(path, sf.serialize(sf.quasihopf_to_doc(H, prov)))
        sys.stdout.write(path + "\n")
    return 0


# ----------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhopf",
        description="Exact verification toolkit for quasi-Hopf algebras.")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized instances")
    parser.add_argument("--field", default="Q",
                        help="scalar field: Q or GF(p)")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True,
                     help="JSON report output (default)")
    fmt.add_argument("--pretty", action="store_true",
                     help="human-readable report output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check the axioms of a spec file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("twist", help="twist an algebra by a gauge "
                                     "transformation")
    p.add_argument("file")
    p.add_argument("twist_file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("derive", help="write the derived special elements")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("product", help="construct a product algebra")
    p.add_argument("product_kind", choices=PRODUCT_KINDS)
    p.add_argument("files", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corpus", help="write the built-in example corpus")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return (3 if isinstance(exc, NotApplicableError) else
                1 if isinstance(exc, NotInvertibleError) else 2)


if __name__ == "__main__":
    sys.exit(main())
