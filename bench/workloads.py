"""Inputs and known answers for the qhopf benchmark workloads.

Each workload is a fixed list of requests made from the workload seed.
A request is one `qhopf` command line (the argv given to `cli.main`)
plus the answer it must give:

- "pass": exit 0 and a report with "passed": true;
- "fail": exit 1 and a report with "passed": false in which some failing
  check carries a counterexample (the single-coefficient mutants);
- "malformed": exit 2, nothing on stdout and an error on stderr;
- "twist": exit 0, the written spec file exists and re-serializes byte
  for byte.

Run as a script, this module builds one workload's inputs and exits; the
benchmark times that run in a fresh interpreter to measure set-up:

    python3 bench/workloads.py --workload twist-ladder --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import io
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("verify-sweep", "product-tables", "twist-ladder", "modules-gf7")
CORPUS = ("z2", "z3", "z2z2", "s3", "z2_quasi", "z2z2_twisted")

# Twist-ladder rungs k[Z/m]: (m, twists drawn, whether the draws follow
# the run seed). One twist at m = 5 takes about 15 s, more than a run
# holds. At m = 4 the cost of one twist varies up to 2x between draws, so
# its twists come from a fixed stream and the seed moves the cheap rungs.
RUNGS = ((2, 3, True), (3, 6, True), (4, 2, False))

# modules-gf7 runs each suite at --seed n and n + 5: modules builds cyclic
# modules from seeds n..n+4, so the two requests share none, and the
# round's cost depends less on which modules one seed happens to give.
MODULE_SEED_OFFSETS = (0, 5)

# Left out because a run cannot hold them: modules on z2_quasi over Q
# (4 s), crossed-product on z2z2_twisted (28 s) and crossed-modules on
# z2_quasi over GF(7) (15 s). classical needs a trivial reassociator.
SWEEP_SKIP = {"z2_quasi": ("modules", "crossed-modules", "classical")}
PRODUCT_ENTRIES = ("z2", "z2_quasi", "z3", "z2z2", "s3")
MUTANTS = ("phi", "comul", "antipode")


def import_qhopf():
    """Import qhopf from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qhopf", "__init__.py")):
        raise SystemExit("bench: no qhopf package under %s" % src)
    if src not in sys.path:
        sys.path.insert(0, src)
    import qhopf
    if not os.path.abspath(qhopf.__file__).startswith(src + os.sep):
        raise SystemExit("bench: imported qhopf from %s, not from %s"
                         % (qhopf.__file__, src))
    return qhopf


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _corpus(qhopf, field: str, out: str) -> None:
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        code = qhopf.cli.main(["--field", field, "corpus", "--out", out])
    if code != 0:
        raise RuntimeError("qhopf corpus failed: %s" % sink.getvalue())


def _mutant(qhopf, H, which: str):
    """H with one coefficient bumped by one, as acceptance criterion 1
    does: Phi at (0, 0, 0), or the first coefficient of column 0 of the
    comultiplication or of the antipode."""
    name = "%s-mut-%s" % (H.name, which)
    one = H.field.one()
    if which == "phi":
        # Every +1 bump of z2_quasi's Phi is singular, so the mutant keeps
        # the old inverse, as criterion 1 does; the constructor would
        # reject that pair.
        Hm = object.__new__(qhopf.QuasiHopfAlgebra)
        Hm.__dict__ = dict(H.__dict__, name=name, phi=H.phi + qhopf.Tensor(
            H.phi.spaces, {(0, 0, 0): one}, H.field))
        return Hm
    f = H.comul if which == "comul" else H.antipode
    cols = {i: dict(col) for i, col in f.cols.items()}
    idx = next(iter(cols[0]))
    cols[0][idx] = cols[0][idx] + one
    f = qhopf.LinearMap(f.domain, f.codomain, cols, H.field)
    comul, antipode = (f, H.antipode) if which == "comul" else (H.comul, f)
    return qhopf.QuasiHopfAlgebra(H.algebra, comul, H.counit, H.phi,
                                  antipode, H.alpha, H.beta,
                                  phi_inv=H.phi_inv, name=name)


def draw_twist(qhopf, H, rng: random.Random):
    """A counital gauge twist F = 1(x)1 + x(x)y of a group algebra, with
    small-integer x, y and eps(x) = eps(y) = 0, redrawn until invertible."""
    field, n = H.field, H.dim
    one = H.unit()
    while True:
        vecs = []
        for _ in range(2):
            coeffs = [0] + [rng.randint(-2, 2) for _ in range(n - 1)]
            coeffs[0] = -sum(coeffs)
            vecs.append(coeffs)
        if not all(any(v) for v in vecs):
            continue
        x, y = (qhopf.Tensor((H.basis,), {(i,): field.from_int(c)
                                          for i, c in enumerate(v)}, field)
                for v in vecs)
        F = one.tensor(one) + x.tensor(y)
        if qhopf.is_gauge(H, F):
            return F


def _request(rid, argv, expect, out=None):
    return {"id": rid, "argv": argv, "expect": expect, "out": out}


def build(qhopf, workload: str, seed: int, out: str) -> list:
    """Write the inputs of one workload under `out` and return its
    requests, in the order they are sent."""
    sf = qhopf.specfile
    os.makedirs(out, exist_ok=True)
    seed_args = ["--seed", str(seed)]
    reqs = []
    if workload == "verify-sweep":
        _corpus(qhopf, "Q", out)
        H = qhopf.quasi_z2()
        for which in MUTANTS:
            _write(os.path.join(out, "z2_quasi-mut-%s.json" % which),
                   sf.serialize(sf.quasihopf_to_doc(_mutant(qhopf, H, which))))
        for entry in ("z2", "z2_quasi"):
            for suite in qhopf.cli.SUITES:
                if suite in SWEEP_SKIP.get(entry, ()):
                    continue
                reqs.append(_request(
                    "%s.%s" % (suite, entry),
                    seed_args + ["verify", suite,
                                 os.path.join(out, entry + ".json")], "pass"))
        for entry in ("z3", "z2z2", "s3", "z2z2_twisted"):
            reqs.append(_request(
                "heisenberg.%s" % entry,
                seed_args + ["verify", "heisenberg",
                             os.path.join(out, entry + ".json")], "pass"))
        # The loader checks a supplied Phi^-1, so the Phi mutant is
        # refused as malformed input before the axioms suite runs.
        for which in MUTANTS:
            name = "z2_quasi-mut-%s" % which
            reqs.append(_request(
                "axioms.%s" % name,
                seed_args + ["verify", "axioms",
                             os.path.join(out, name + ".json")],
                "malformed" if which == "phi" else "fail"))
    elif workload == "product-tables":
        _corpus(qhopf, "Q", out)
        # crossed-product takes no seed, and the twist comes from a fixed
        # stream: its cost moves by up to 20% between draws.
        H = qhopf.cyclic_group_algebra(3)
        F = draw_twist(qhopf, H, random.Random("product-tables:fixed"))
        HF = qhopf.twist(H, F)
        _write(os.path.join(out, "z3_twisted.json"),
               sf.serialize(sf.quasihopf_to_doc(HF)))
        for entry in PRODUCT_ENTRIES + ("z3_twisted",):
            reqs.append(_request(
                "crossed-product.%s" % entry,
                seed_args + ["verify", "crossed-product",
                             os.path.join(out, entry + ".json")], "pass"))
    elif workload == "twist-ladder":
        for m, draws, seeded in RUNGS:
            H = qhopf.cyclic_group_algebra(m)
            h_path = os.path.join(out, "m%d.json" % m)
            _write(h_path, sf.serialize(sf.quasihopf_to_doc(H)))
            for k in range(draws):
                rng = random.Random("twist-ladder:%s:%d:%d" % (
                    seed if seeded else "fixed", m, k))
                F = draw_twist(qhopf, H, rng)
                f_path = os.path.join(out, "m%d-F%d.json" % (m, k))
                hf_path = os.path.join(out, "m%d-HF%d.json" % (m, k))
                _write(f_path, sf.serialize(sf.twist_to_doc(H, F)))
                reqs.append(_request(
                    "twist.m%d.%d" % (m, k),
                    ["twist", h_path, f_path, "--out", hf_path], "twist",
                    out=hf_path))
                reqs.append(_request("check.m%d.%d" % (m, k),
                                     ["check", hf_path], "pass"))
    elif workload == "modules-gf7":
        _corpus(qhopf, "GF(7)", out)
        for offset in MODULE_SEED_OFFSETS:
            for suite, entry in (("modules", "z2_quasi"), ("modules", "z3"),
                                 ("crossed-modules", "z2")):
                reqs.append(_request(
                    "%s.%s.s%d" % (suite, entry, offset),
                    ["--seed", str(seed + offset), "verify", suite,
                     os.path.join(out, entry + ".json")], "pass"))
    else:
        raise ValueError("unknown workload %r" % workload)
    return reqs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    build(import_qhopf(), args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
