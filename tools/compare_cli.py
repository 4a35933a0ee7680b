"""Compare the qhopf command line of two source trees, byte for byte.

    python tools/compare_cli.py OLD_SRC NEW_SRC [--entries z2,z3]

OLD_SRC and NEW_SRC are directories that hold the qhopf package, such as
the src/ of two checkouts. The inputs are written once, by OLD_SRC: each
corpus entry over Q and GF(7) as a spec file, with its canonical right
and left comodule algebras, bicomodule algebra, module coalgebra, the
quasi-smash product as a module algebra and a gauge twist, and a few
malformed spec files over Q. Then every command of a fixed matrix runs
through `python -m qhopf` once per tree, with PYTHONPATH set to that
tree, each in a fresh working directory of its own:

- every verify suite on every entry, over Q and GF(7);
- check on every spec file, derive, twist and the four product kinds,
  on every entry over Q and GF(7);
- corpus over Q and over GF(7);
- check on each malformed file.

The two trees' stdout, stderr, exit code and every file the command
wrote are compared. A command that either tree does not finish within
TIMEOUT_S seconds is reported as skipped, not compared. The last line of
the output is a summary; the exit code is 1 if any command differs and
0 otherwise. The two trees run each command at the same time, one
process each.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ENTRIES = ("z2", "z3", "z2z2", "s3", "z2_quasi", "z2z2_twisted")
FIELDS = (("Q", "Q"), ("GF7", "GF(7)"))
TIMEOUT_S = 60.0  # per command and tree

# Run under OLD_SRC as `python -c INPUTS OUT ENTRIES`: writes the input
# files into OUT and prints the verify suites and malformed files as JSON.
INPUTS = r'''
import json, os, random, sys
import qhopf
from qhopf import specfile as sf

out, entries = sys.argv[1], sys.argv[2].split(",")


def write(name, doc):
    with open(os.path.join(out, name + ".json"), "w", encoding="utf-8") as fh:
        fh.write(sf.serialize(doc))


def gauge_twist(H, rng):
    """F = 1(x)1 + x(x)y with small integer coefficients, the sum of
    each of x and y zero (eps(x) = eps(y) = 0 on a group-like basis),
    drawn until F is a gauge transformation."""
    one = H.unit()
    while True:
        vecs = []
        for _ in range(2):
            coeffs = [0] + [rng.randint(-2, 2) for _ in range(H.dim - 1)]
            coeffs[0] = -sum(coeffs)
            vecs.append(coeffs)
        x, y = (qhopf.Tensor((H.basis,), {(i,): H.field.from_int(c)
                                          for i, c in enumerate(v)},
                             H.field) for v in vecs)
        F = one.tensor(one) + x.tensor(y)
        if any(vecs[0]) and any(vecs[1]) and qhopf.is_gauge(H, F):
            return F


for fid, field in (("Q", qhopf.QQ), ("GF7", qhopf.PrimeField(7))):
    corpus = qhopf.corpus(field)
    for key in entries:
        H = corpus[key]
        rca = qhopf.canonical_right_comodule(H)
        base = "%s-%s" % (fid, key)
        write(base, sf.quasihopf_to_doc(H))
        write(base + "-rca", sf.to_doc(rca))
        write(base + "-lca", sf.to_doc(qhopf.canonical_left_comodule(H)))
        write(base + "-ba", sf.to_doc(qhopf.canonical_bicomodule(H)))
        write(base + "-mc", sf.to_doc(qhopf.canonical_module_coalgebra(H)))
        write(base + "-ma", sf.to_doc(qhopf.quasi_smash(rca)))
        write(base + "-F", sf.twist_to_doc(
            H, gauge_twist(H, random.Random("compare_cli:" + base))))

H = qhopf.corpus()[entries[0]]
malformed = {}
for name in ("comul-short-row", "comul-source-range", "comul-target-range",
             "comul-duplicate-row", "mult-short-row", "mult-range"):
    doc = sf.quasihopf_to_doc(H)
    rows = doc["data"][name.split("-")[0]]
    row = rows[0]
    if name.endswith("short-row"):
        rows[0] = row[1:]
    elif name == "comul-duplicate-row":
        rows.append(list(row))
    else:
        row[{"comul-source-range": 0, "comul-target-range": 1,
             "mult-range": 2}[name]] = 99
    malformed[name] = doc
doc = sf.quasihopf_to_doc(H)
doc["field"] = 5
malformed["field-not-a-string"] = doc
doc = sf.to_doc(qhopf.canonical_right_comodule(H))
del doc["h"]["kind"]
malformed["embedded-without-kind"] = doc
for name, doc in malformed.items():
    write("malformed-" + name, doc)
print(json.dumps({"suites": list(qhopf.cli.SUITES),
                  "malformed": sorted(malformed)}))
'''


def matrix(entries, suites, malformed, inputs):
    """(command id, argv) for every command compared."""
    def spec(name):
        return os.path.join(inputs, name + ".json")

    out = ["--out", "out.json"]
    commands = []
    for fid, field in FIELDS:
        commands.append(("%s/corpus" % fid,
                         ["--field", field, "corpus", "--out", "corpus"]))
        for key in entries:
            base = "%s-%s" % (fid, key)
            for suite in suites:
                commands.append(("%s/verify/%s/%s" % (fid, suite, key),
                                 ["verify", suite, spec(base)]))
            for part in ("", "-rca", "-lca", "-ba", "-mc", "-ma"):
                commands.append(("%s/check%s/%s" % (fid, part, key),
                                 ["check", spec(base + part)]))
            commands += [
                ("%s/derive/%s" % (fid, key), ["derive", spec(base)] + out),
                ("%s/twist/%s" % (fid, key),
                 ["twist", spec(base), spec(base + "-F")] + out),
                ("%s/product/smash/%s" % (fid, key),
                 ["product", "smash", spec(base + "-ma")] + out),
                ("%s/product/quasi-smash/%s" % (fid, key),
                 ["product", "quasi-smash", spec(base + "-rca")] + out),
                ("%s/product/generalized-smash/%s" % (fid, key),
                 ["product", "generalized-smash", spec(base + "-ma"),
                  spec(base + "-lca")] + out),
                ("%s/product/two-sided/%s" % (fid, key),
                 ["product", "two-sided", spec(base + "-rca"),
                  spec(base + "-lca")] + out)]
    for name in malformed:
        commands.append(("malformed/%s" % name,
                         ["check", spec("malformed-" + name)]))
    return commands


def run(src, argv, cwd, timeout):
    """The outcome of `python -m qhopf argv` on the tree src, run in the
    empty directory cwd: exit code, stdout, stderr and the files written
    under cwd; None if it did not finish within timeout seconds."""
    os.makedirs(cwd)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    try:
        proc = subprocess.run([sys.executable, "-m", "qhopf"] + argv,
                              cwd=cwd, env=env, capture_output=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    files = {}
    for dirpath, _, names in os.walk(cwd):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, cwd)] = fh.read()
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "files": files}


def _first_line_apart(old: bytes, new: bytes) -> str:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for i in range(max(len(old_lines), len(new_lines))):
        a = old_lines[i] if i < len(old_lines) else b"<end>"
        b = new_lines[i] if i < len(new_lines) else b"<end>"
        if a != b:
            return "line %d: %r -> %r" % (i + 1, a[:200], b[:200])
    return "same lines, different line ends"


def differences(old, new):
    """One line for each part in which the outcomes old and new differ."""
    found = []
    if old["exit code"] != new["exit code"]:
        found.append("exit code %d -> %d" % (old["exit code"],
                                             new["exit code"]))
    for part in ("stdout", "stderr"):
        if old[part] != new[part]:
            found.append("%s %s" % (part, _first_line_apart(old[part],
                                                            new[part])))
    for name in sorted(set(old["files"]) | set(new["files"])):
        a, b = old["files"].get(name), new["files"].get(name)
        if a is None or b is None:
            found.append("file %s written by %s only"
                         % (name, "the new tree" if a is None else
                            "the old tree"))
        elif a != b:
            found.append("file %s %s" % (name, _first_line_apart(a, b)))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--entries", default=",".join(ENTRIES),
                        help="comma-separated corpus entries (default all)")
    args = parser.parse_args(argv)
    entries = args.entries.split(",")
    unknown = sorted(set(entries) - set(ENTRIES))
    if unknown:
        parser.error("unknown corpus entries: %s" % ", ".join(unknown))

    with tempfile.TemporaryDirectory(prefix="compare_cli-") as work:
        inputs = os.path.join(work, "inputs")
        os.makedirs(inputs)
        made = subprocess.run(
            [sys.executable, "-c", INPUTS, inputs, ",".join(entries)],
            env=dict(os.environ, PYTHONPATH=os.path.abspath(args.old_src)),
            capture_output=True, text=True)
        if made.returncode != 0:
            sys.stderr.write("writing the inputs failed:\n" + made.stderr)
            return 2
        listed = json.loads(made.stdout)
        commands = matrix(entries, listed["suites"], listed["malformed"],
                          inputs)
        differ, skipped = [], []
        with ThreadPoolExecutor(max_workers=2) as pool:
            for n, (cid, cmd) in enumerate(commands):
                runs = [pool.submit(run, src, cmd,
                                    os.path.join(work, side, str(n)),
                                    TIMEOUT_S)
                        for side, src in (("old", args.old_src),
                                          ("new", args.new_src))]
                old, new = (r.result() for r in runs)
                if old is None or new is None:
                    skipped.append(cid)
                    print("skipped %s: no result within %g s from the %s"
                          % (cid, TIMEOUT_S,
                             " and ".join(side for side, r in
                                          (("old tree", old),
                                           ("new tree", new))
                                          if r is None)))
                    continue
                found = differences(old, new)
                if found:
                    differ.append(cid)
                    print("DIFFERS %s: qhopf %s" % (cid, " ".join(cmd)))
                    for line in found:
                        print("    " + line)
                sys.stdout.flush()
    print("compare_cli: %d commands, %d identical, %d differ, %d skipped "
          "(timeout %g s)" % (len(commands),
                              len(commands) - len(differ) - len(skipped),
                              len(differ), len(skipped), TIMEOUT_S))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
