"""The qhopf benchmark: time to verdict for `qhopf` requests.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. It builds the workload's inputs from
the seed, then sends the requests to `qhopf.cli.main` in this process,
one after another (a closed loop with one client), with stdout captured,
and checks each answer against the known one. A round is one pass over
the workload's requests (a request under MIN_REQUEST_S is sent again
until its sends add up to that, and counts with their median); rounds
repeat while another fits in --seconds, and every timing is a median
over rounds.

On a shared host, other tenants can change how fast this process runs
by up to 2x over minutes, so end-to-end times are in units of a reference
kernel: while a timed round runs, a timer signal interrupts it every
SAMPLE_EVERY_S and times a fixed piece of pure-Python work, and each
request's time (less the kernel's) is divided by the kernel's mean time
during that request. Seconds as measured are printed on the detail lines.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
prints the per-layer metrics: it runs one untraced round, then traced
rounds that attribute time to the modules of src/qhopf, then one round
under cProfile and the layer probes. The last line of stdout is one JSON
object; the lines before it say what was run and on what machine.
`--record-digests` runs one round at seed 0 and stores the sha256 of
every answer in bench/digests.json; later runs at seed 0 must match it.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import io
import json
import os
import platform
import pstats
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import probes      # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402

WORK = ".bench-work"
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPEATS = 5
MIN_REQUEST_S = 0.05  # shorter requests are sent again within a round
SAMPLE_EVERY_S = 0.005  # wall time between reference-kernel samples
MIN_SAMPLES = 20     # a request with fewer uses its whole round's samples

# Criterion-shaped request groups (requests on corpus entries only),
# reported as a share of the acceptance budget in tests/test_acceptance.py.
# For information only.
BUDGETS = (
    ("c4", "verify-sweep", "heisenberg.", 5.0),
    ("c5", "product-tables", "crossed-product.", 60.0),
    ("c7", "modules-gf7", "crossed-modules.", 30.0),
)


# ----------------------------------------------------------------------
# requests and their answers


def send(qhopf, req):
    """One request through the CLI entry point; returns (exit code,
    stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = qhopf.cli.main(list(req["argv"]))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a wrong answer, not a stop
        code = "%s: %s" % (type(exc).__name__, exc)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def answer_digest(req, stdout: str, stderr: str, written) -> str:
    if req["expect"] == "twist":
        text = written
    else:
        text = stderr if req["expect"] == "malformed" else stdout
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_answer(qhopf, req, code, stdout: str, stderr: str, written):
    """None if the answer is the known one, else the reason it is not."""
    expect = req["expect"]
    if expect == "malformed":
        if code != 2 or stdout or not stderr.startswith("error: "):
            return "exit %r, expected 2 with an error message" % (code,)
        return None
    if expect == "twist":
        if code != 0 or written is None:
            return "exit %r, wrote %s" % (code, written is not None)
        sf = qhopf.specfile
        doc = sf.parse(written)
        again = sf.serialize(sf.to_doc(sf.from_doc(doc),
                                       doc.get("provenance")))
        return None if again == written else "spec file does not re-serialize"
    want = 0 if expect == "pass" else 1
    if code != want:
        return "exit %r, expected %d" % (code, want)
    try:
        rep = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    if rep.get("passed") is not (expect == "pass"):
        return "passed=%r" % (rep.get("passed"),)
    if expect == "fail" and not any(c.get("counterexample")
                                    for c in rep.get("checks", ())
                                    if not c.get("passed")):
        return "failure without a counterexample"
    return None


def read_output(req):
    if req["out"] is None or not os.path.exists(req["out"]):
        return None
    with open(req["out"], encoding="utf-8") as fh:
        return fh.read()


# ----------------------------------------------------------------------
# the reference kernel


def reference_kernel():
    """Fixed pure-Python work shaped like qhopf's inner loops: Fraction
    arithmetic accumulated in a dict keyed by index tuples (about 0.3 ms)."""
    acc, table = Fraction(0), {}
    for i in range(1, 24):
        f = Fraction(i, i + 7)
        acc = acc * f + Fraction(1, i)
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + f
    return acc, table


class Sampler:
    """Times the reference kernel every SAMPLE_EVERY_S of wall time from a
    SIGALRM handler, so it runs at the moments, and on the core, of the
    request it interrupts."""

    def __init__(self):
        self.times = []
        self._old = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)


class Round:
    def __init__(self):
        self.answers = []    # (request, code, stdout, stderr, seconds,
                             #  text of the spec file it wrote)
        self.seconds = {}    # request id -> seconds to verdict
        self.errors = {}     # request id -> reason
        self.sent = 0        # answers checked, repeated sends included
        self.wrong = 0       # answers that were not the known one
        self.digests = {}
        self.refusals = {}   # request id -> how an expected failure failed
        self.wall = 0.0      # sum of the requests' seconds to verdict
        self.samples = {}    # request id -> reference-kernel seconds
        self.elapsed = 0.0   # the whole round, reference kernel included


def run_round(qhopf, reqs, tr=None, sampler=None) -> Round:
    """Send every request once, back to back. With a `sampler`, a request
    shorter than MIN_REQUEST_S is sent again until its sends add up to
    that, its time is their median, and the kernel samples taken during
    its sends are kept, their time taken off the sends'."""
    rnd = Round()
    t_first = time.perf_counter()
    for req in reqs:
        if tr is not None:
            tr.request = req["id"]
        times, samples = [], []
        while not times or sampler is not None and sum(times) < MIN_REQUEST_S:
            first = len(sampler.times) if sampler is not None else 0
            answer = (req,) + send(qhopf, req)
            during = sampler.times[first:] if sampler is not None else []
            samples += during
            times.append(answer[-1] - sum(during))
            # read the spec file now: the next send writes it again
            rnd.answers.append(answer + (read_output(req),))
        rnd.seconds[req["id"]] = statistics.median(times)
        rnd.wall += rnd.seconds[req["id"]]
        rnd.samples[req["id"]] = samples
    rnd.elapsed = time.perf_counter() - t_first
    return rnd


def check_round(qhopf, rnd: Round, known=None) -> Round:
    """Check every answer of a round, and its sha256 against `known`
    when that is given. Runs untraced, after the round."""
    for req, code, stdout, stderr, secs, written in rnd.answers:
        rid = req["id"]
        reason = check_answer(qhopf, req, code, stdout, stderr, written)
        if reason is None:
            rnd.digests[rid] = answer_digest(req, stdout, stderr, written)
            if known is not None and known.get(rid) != rnd.digests[rid]:
                reason = "sha256 %s is not the recorded %s" % (
                    rnd.digests[rid][:12], (known.get(rid) or "none")[:12])
        rnd.sent += 1
        if reason is not None:
            rnd.errors[rid] = reason
            rnd.wrong += 1
        elif req["expect"] == "fail":
            rnd.refusals[rid] = {"exit": code, "counterexamples": [
                c["tag"] for c in json.loads(stdout)["checks"]
                if c.get("counterexample")]}
        elif req["expect"] == "malformed":
            rnd.refusals[rid] = {"exit": code, "stderr": stderr.strip()}
    rnd.answers = []
    return rnd


def run_rounds(qhopf, reqs, seconds: float, start: float, tr=None,
               known=None) -> list:
    """Rounds while the next one, as long as the last, ends in time.
    Untraced rounds are checked as they end, traced ones by the caller."""
    rounds = []
    while True:
        if tr is None:
            with Sampler() as sampler:
                rnd = run_round(qhopf, reqs, sampler=sampler)
            rnd = check_round(qhopf, rnd, known)
        else:
            rnd = run_round(qhopf, reqs, tr)
        rounds.append(rnd)
        if time.perf_counter() - start + rnd.elapsed > seconds:
            return rounds


def known_digests(workload: str, seed: int):
    """The recorded sha256 of every answer, checked at seed 0 only."""
    if seed != 0:
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


# ----------------------------------------------------------------------
# set-up


def time_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports qhopf and
    writes the workload's inputs."""
    times = []
    for k in range(SETUP_REPEATS):
        out = os.path.join(WORK, "setup", str(k))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--out", out], check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    shutil.rmtree(os.path.join(WORK, "setup"))
    return statistics.median(times)


def build_inputs(qhopf, workload: str, seed: int) -> list:
    out = os.path.join(WORK, "inputs", workload)
    shutil.rmtree(out, ignore_errors=True)
    return workloads.build(qhopf, workload, seed, out)


# ----------------------------------------------------------------------
# metrics


def request_medians(rounds) -> dict:
    return {rid: statistics.median(r.seconds[rid] for r in rounds)
            for rid in rounds[0].seconds}


def breakdown(workload: str, rounds) -> dict:
    """Per-request medians, summed over the draws or seeds of one
    request (ids suite.entry.k), and budget shares."""
    med = request_medians(rounds)
    out = {}
    for rid, secs in med.items():
        key = "request.%s_s" % ".".join(rid.split(".")[:2])
        out[key] = out.get(key, 0.0) + secs
    for crit, wl, prefix, budget in BUDGETS:
        if wl == workload:
            group = sorted(rid for rid in med if rid.startswith(prefix)
                           and rid.split(".")[1] in workloads.CORPUS)
            out["budget.%s_share" % crit] = {
                "share": sum(med[rid] for rid in group) / budget,
                "budget_s": budget, "requests": group}
    return out


def in_ref_units(rnd: Round) -> dict:
    """Each request's time in a round over the mean reference-kernel
    sample taken during its sends, or during the whole round when it drew
    fewer than MIN_SAMPLES."""
    pooled = statistics.fmean(t for s in rnd.samples.values() for t in s)
    return {rid: secs / (statistics.fmean(rnd.samples[rid])
                         if len(rnd.samples[rid]) >= MIN_SAMPLES else pooled)
            for rid, secs in rnd.seconds.items()}


def end_to_end(rounds, setup_s: float):
    """The end-to-end metrics, and the same times in seconds."""
    # Each request's median over rounds first: the request set is fixed,
    # so the mean and max follow the same requests from run to run.
    med = list(request_medians(rounds).values())
    per_round = [in_ref_units(r) for r in rounds]
    ref = [statistics.median(units[rid] for units in per_round)
           for rid in per_round[0]]
    kernel = [t for r in rounds for s in r.samples.values() for t in s]
    seconds = {
        "wall_s": statistics.median(r.wall for r in rounds),
        "verdict_s.gmean": statistics.geometric_mean(med),
        "verdict_s.p50": statistics.median(med),
        "verdict_s.max": max(med),
        "reference_kernel_s": statistics.fmean(kernel),
        "reference_samples": len(kernel),
    }
    return {
        "setup_s": setup_s,
        "wall_ref": sum(ref),
        "verdict_ref.gmean": statistics.geometric_mean(ref),
        "verdict_ref.max": max(ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }, seconds


def fraction_share(qhopf, reqs) -> float:
    """Self time in the stdlib fractions module over the profiled total,
    for one round under cProfile."""
    prof = cProfile.Profile()
    prof.enable()
    rnd = run_round(qhopf, reqs)
    prof.disable()
    if check_round(qhopf, rnd).errors:
        raise AssertionError("profiled round failed: %s" % rnd.errors)
    total = frac = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in \
            pstats.Stats(prof).stats.items():
        total += tottime
        if os.path.basename(filename) == "fractions.py":
            frac += tottime
    return frac / total


def per_layer(setup_tr, round_tr, traced, untraced_wall: float) -> dict:
    """Layer metrics: one traced set-up plus the mean traced round."""

    def both(get):
        return get(setup_tr) + get(round_tr) / len(traced)

    def calls(name):
        return both(lambda tr: tr.calls(name))

    m = {}
    for layer in tracer.LAYERS:
        m["%s.self_s" % layer] = both(
            lambda tr: tr.self_by_layer().get(layer, 0.0))
    m["algebra.mul_legs.calls"] = calls("algebra.mul_legs")
    m["algebra.legmul_builds"] = calls("algebra.LegMul.__init__")
    m["algebra.legmul_builds_per_mul_legs"] = (
        m["algebra.legmul_builds"] / m["algebra.mul_legs.calls"]
        if m["algebra.mul_legs.calls"] else 0.0)
    m["fields.fp_ops"] = both(lambda tr: tr.fp_summary()[0])
    m["fields.fp.self_s"] = both(lambda tr: tr.fp_summary()[1])
    m["linalg.solve_linear.calls"] = calls("linalg.solve_linear")
    m["linalg.rowspan.adds"] = calls("linalg.RowSpan.add")
    m["tensor.map_leg.calls"] = calls("tensor.Tensor.map_leg")
    m["tensor.add.calls"] = calls("tensor.Tensor.__add__")
    m["quasihopf.assemble.calls"] = calls("quasihopf.QuasiBialgebra.assemble")
    m["report.records"] = calls("report.VerificationReport.add")
    for name in setup_tr.counters:
        m[name] = both(lambda tr: tr.counters[name])
    round_self = round_tr.self_by_layer()
    m["trace.coverage"] = (sum(round_self.get(layer, 0.0)
                               for layer in tracer.LAYERS)
                           / sum(r.wall for r in traced))
    m["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                             - untraced_wall)
    return m


# ----------------------------------------------------------------------


def machine() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count()}


def record_digests(qhopf, workload: str) -> int:
    reqs = build_inputs(qhopf, workload, 0)
    rnd = check_round(qhopf, run_round(qhopf, reqs))
    if rnd.errors:
        sys.stderr.write("not recorded, wrong answers: %s\n" % rnd.errors)
        return 1
    known = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            known = json.load(fh)
    known[workload] = dict(sorted(rnd.digests.items()))
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(known.items())), fh, indent=1)
        fh.write("\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="qhopf benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: run_seconds of "
                    "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    qhopf = workloads.import_qhopf()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.record_digests:
        return record_digests(qhopf, args.workload)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    setup_s = time_setup(args.workload, args.seed)
    setup_tr = tracer.Tracer()
    if args.trace:
        setup_tr.install(qhopf)
    try:
        reqs = build_inputs(qhopf, args.workload, args.seed)
    finally:
        setup_tr.uninstall()

    detail = {"workload": args.workload, "why": why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "requests_per_round": len(reqs), "machine": machine()}
    known = known_digests(args.workload, args.seed)
    start = time.perf_counter()
    if not args.trace:
        rounds = run_rounds(qhopf, reqs, args.seconds, start, known=known)
        metrics, detail["seconds"] = end_to_end(rounds, setup_s)
        checked = rounds
    else:
        base = check_round(qhopf, run_round(qhopf, reqs), known)
        round_tr = tracer.Tracer()
        round_tr.install(qhopf)
        try:
            traced = run_rounds(qhopf, reqs, args.seconds, start, round_tr)
        finally:
            round_tr.uninstall()
        for rnd in traced:
            check_round(qhopf, rnd, known)
        metrics = per_layer(setup_tr, round_tr, traced, base.wall)
        metrics["fields.fraction_share"] = fraction_share(qhopf, reqs)
        metrics.update(probes.run(qhopf))
        rounds = [base]
        checked = [base] + traced
        detail["traced_rounds"] = len(traced)
        detail["top_self_s"] = round_tr.top()
        os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
        round_tr.write_spans(os.path.join(
            WORK, "results", "%s.spans.jsonl" % args.workload))
        if metrics["trace.coverage"] < 0.9:
            detail["coverage_gap"] = (
                "the rest of the traced wall time ran outside qhopf.cli.main,"
                " in the benchmark's own loop (stdout capture, dispatch)")

    errors = {}
    for rnd in checked:
        errors.update(rnd.errors)
    attempted = sum(r.sent for r in checked)
    failed = sum(r.wrong for r in checked)
    metrics["failed_ratio"] = failed / attempted
    detail["rounds"] = len(rounds)
    detail["expected_failures"] = rounds[0].refusals
    med = request_medians(rounds)
    detail["slowest_request"] = max(med, key=med.get)
    detail["errors"] = errors
    detail.update(breakdown(args.workload, rounds))

    units = {m["name"]: m["unit"] for m in wanted}
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    detail["result"] = result
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w",
            encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    shutil.rmtree(os.path.join(WORK, "inputs", args.workload),
                  ignore_errors=True)
    for key in sorted(detail):
        if key != "result":
            print("%s: %s" % (key, json.dumps(detail[key], sort_keys=True)))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
