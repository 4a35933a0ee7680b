"""Product constructions and the module-category isomorphisms: the
quasi-smash product, the two-sided crossed product decomposition, the
Heisenberg double, and exact functor round trips.

Run:  python3 demos/02_products_and_modules.py
"""

from qhopf import (canonical_left_comodule, canonical_right_comodule,
                   corpus, quasi_smash, two_sided_crossed,
                   verify_crossed_decomposition,
                   verify_crossed_module_description,
                   verify_heisenberg_double, verify_module_correspondence)


def verdict(rep):
    bad = [r.tag for r in rep.records if not r.passed]
    return "pass (%d checks)" % len(rep.records) if not bad \
        else "FAIL at %s" % bad


def main():
    algebras = corpus()
    hq = algebras["z2_quasi"]

    print("== the quasi-smash product A #~ H* ==")
    qs = quasi_smash(canonical_right_comodule(hq))
    print("carrier dimension:", qs.dim)
    print("strictly associative:", qs.algebra.is_associative() is None,
          "(associativity only holds through the reassociator action)")
    print()

    print("== two-sided crossed product and its decomposition ==")
    prod = two_sided_crossed(canonical_right_comodule(hq),
                             canonical_left_comodule(hq))
    print("A >< H* >< B carrier dimension:", prod.dim)
    print("associative:", prod.is_associative() is None)
    rep = verify_crossed_decomposition(hq)
    print("iterated product equals the one-shot table:", verdict(rep))
    print()

    print("== Heisenberg double as an endomorphism algebra ==")
    for key in ("z2", "z2_quasi", "z2z2_twisted"):
        rep = verify_heisenberg_double(algebras[key])
        print("%-14s %s" % (key, verdict(rep)))
    print()

    print("== Hopf-module category isomorphism (round trips) ==")
    rep = verify_module_correspondence(hq, seeds=(0, 1, 2, 3, 4))
    print("two-sided <-> relative modules over z2_quasi:", verdict(rep))
    print()

    print("== crossed-module description of the generalized smash ==")
    rep = verify_crossed_module_description(hq, seeds=(0, 1, 2))
    print("datum (H, H, H) over z2_quasi:", verdict(rep))


if __name__ == "__main__":
    main()
