"""Layer probes: fixed calls into qhopf's public kernels on z2z2_twisted,
each repeated until one batch lasts long enough to time, and checked
against an identity its result must satisfy."""

from __future__ import annotations

import statistics
import time

BATCHES = 5
MIN_BATCH_S = 0.05


def _time_call(fn, check) -> float:
    """Median seconds per call over BATCHES batches of equal size."""
    result = fn()
    if not check(result):
        raise AssertionError("probe result failed its check")
    n, clock = 1, time.perf_counter
    while True:
        t0 = clock()
        for _ in range(n):
            fn()
        if clock() - t0 >= MIN_BATCH_S:
            break
        n *= 2
    per_call = []
    for _ in range(BATCHES):
        t0 = clock()
        for _ in range(n):
            fn()
        per_call.append((clock() - t0) / n)
    return statistics.median(per_call)


def run(qhopf) -> dict:
    sf = qhopf.specfile
    H = qhopf.corpus()["z2z2_twisted"]
    legs3 = (H.leg(),) * 3
    unit3 = H.unit_pow(3)
    text = sf.serialize(sf.quasihopf_to_doc(H))
    return {
        # Phi * Phi^-1 = 1 in H(x)H(x)H
        "probe.mul_legs_s": _time_call(
            lambda: qhopf.mul_legs(legs3, H.phi, H.phi_inv),
            lambda r: r == unit3),
        # solving for Phi^-1 (64 unknowns) gives the stored inverse
        "probe.invert_phi_s": _time_call(
            lambda: qhopf.invert_in_tensor_algebra((H.algebra,) * 3, H.phi),
            lambda r: r == H.phi_inv),
        # (Delta (x) id (x) id)(Phi); the counit on leg 0 gives Phi back
        "probe.map_leg_s": _time_call(
            lambda: H.phi.map_leg(0, H.comul),
            lambda r: r.map_leg(0, H.counit) == H.phi),
        # parse and rebuild the spec file of z2z2_twisted
        "probe.spec_load_s": _time_call(
            lambda: sf.from_doc(sf.parse(text)),
            lambda r: sf.serialize(sf.quasihopf_to_doc(r)) == text),
    }
