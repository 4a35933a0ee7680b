"""Walk through the core objects: build the example algebras, check
their axioms exactly, and twist by a gauge transformation.

Run:  python3 demos/01_axioms_and_twisting.py
"""

from qhopf import (check_quasihopf, corpus, is_gauge, klein_group_algebra,
                   klein_twist, twist, verify_core_identities)


def show(rep):
    print("  %s" % rep.subject)
    for line in rep.summary_lines():
        print("   ", line)
    print("  verdict:", "pass" if rep.passed else "FAIL")
    print()


def main():
    print("== axiom checks over the built-in corpus ==")
    algebras = corpus()
    for key, H in algebras.items():
        rep = check_quasihopf(H)
        trivial = H.phi == H.unit_pow(3)
        print("%-14s dim %d, reassociator %s: %s"
              % (key, H.dim, "trivial" if trivial else "nontrivial",
                 "pass" if rep.passed else "FAIL"))
    print()

    print("== gauge twisting k[Z/2 x Z/2] ==")
    H = klein_group_algebra()
    F = klein_twist()
    print("F is a gauge transformation:", is_gauge(H, F))
    HF = twist(H, F)
    print("twisted reassociator is trivial:", HF.phi == HF.unit_pow(3))
    show(check_quasihopf(HF))

    print("== the full derived-identity suite on the twisted algebra ==")
    show(verify_core_identities(HF))

    print("== derived elements ==")
    hq = algebras["z2_quasi"]
    der = hq.derived
    print("antipode twist element f =", der.f.data)
    print("f is itself a gauge transformation:", is_gauge(hq, der.f))
    closed = hq.phi.permute((2, 1, 0))
    for leg in range(3):
        closed = closed.map_leg(leg, hq.antipode)
    print("twisting by f reverses the reassociator through the antipode:",
          twist(hq, der.f).phi == closed)


if __name__ == "__main__":
    main()
