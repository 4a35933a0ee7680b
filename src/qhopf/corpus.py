"""Built-in example algebras.

Four group-algebra seeds with trivial reassociator (Z/2, Z/3,
Z/2 x Z/2, S3), one cocycle deformation of k[Z/2] with nontrivial
reassociator, and one gauge twist of k[Z/2 x Z/2] with nontrivial
twisted reassociator. Every entry is constructed by code from group
data; there are no hand-written structure constant tables.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Sequence, Tuple

from .algebra import FinAlgebra
from .fields import Field, QQ
from .quasihopf import QuasiHopfAlgebra, twist
from .tensor import Basis, LinearMap, Tensor


def group_algebra(labels: Sequence[str], mul_fn: Callable[[int, int], int],
                  inv_fn: Callable[[int], int], name: str,
                  field: Field = QQ) -> QuasiHopfAlgebra:
    """The group algebra k[G] with its standard structure: every group
    element is group-like, the antipode inverts, and the reassociator
    is trivial."""
    basis = Basis(labels, name)
    n = basis.dim
    one = field.one()
    unit_idx = next(i for i in range(n) if all(
        mul_fn(i, j) == j and mul_fn(j, i) == j for j in range(n)))
    mult = {(i, j): {mul_fn(i, j): one} for i in range(n) for j in range(n)}
    unit = Tensor((basis,), {(unit_idx,): one}, field)
    alg = FinAlgebra(basis, mult, unit, field)
    comul = LinearMap(basis, (basis, basis), {i: {(i, i): one} for i in range(n)}, field)
    counit = LinearMap(basis, (), {i: {(): one} for i in range(n)}, field)
    phi = unit.tensor(unit).tensor(unit)
    antipode = LinearMap(basis, (basis,), {i: {(inv_fn(i),): one} for i in range(n)}, field)
    return QuasiHopfAlgebra(alg, comul, counit, phi, antipode, unit, unit,
                            phi, name)


def cyclic_group_algebra(m: int, field: Field = QQ) -> QuasiHopfAlgebra:
    labels = ["e"] + ["g%d" % i if i > 1 else "g" for i in range(1, m)]
    return group_algebra(labels, lambda i, j: (i + j) % m,
                         lambda i: (-i) % m, "kZ%d" % m, field)


def klein_group_algebra(field: Field = QQ) -> QuasiHopfAlgebra:
    labels = ["e", "a", "b", "ab"]
    return group_algebra(labels, lambda i, j: i ^ j, lambda i: i,
                         "kZ2xZ2", field)


def symmetric_group_algebra(field: Field = QQ) -> QuasiHopfAlgebra:
    """k[S3], the smallest nonabelian group algebra."""
    perms: List[Tuple[int, ...]] = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def label(p):
        if p == (0, 1, 2):
            return "e"
        moved = [i for i in range(3) if p[i] != i]
        if len(moved) == 2:
            return "t%d%d" % (moved[0], moved[1])
        return "c120" if p == (1, 2, 0) else "c201"

    def mul_fn(i, j):
        p, q = perms[i], perms[j]
        return index[tuple(p[q[k]] for k in range(3))]

    def inv_fn(i):
        p = perms[i]
        inv = [0, 0, 0]
        for k in range(3):
            inv[p[k]] = k
        return index[tuple(inv)]

    return group_algebra([label(p) for p in perms], mul_fn, inv_fn, "kS3", field)


# ----------------------------------------------------------------------
# genuinely quasi entries over elementary abelian 2-groups


def _require_char_not_2(field: Field, entry: str) -> None:
    """The character idempotents below divide by powers of 2."""
    if not field.from_int(2):
        raise ValueError("corpus entry %s needs a field of characteristic "
                         "other than 2, got %s" % (entry, field.name))


def _char_idempotents(H: QuasiHopfAlgebra, rank: int) -> List[Tensor]:
    """Character idempotents of k[(Z/2)^rank]; basis index i is read as
    the bit vector of the group element, character chi as a bit vector,
    chi(g) = (-1)^(chi . g)."""
    field = H.field
    n = 1 << rank
    norm = field.one() / field.from_int(n)
    out = []
    for chi in range(n):
        data = {}
        for g in range(n):
            sign = bin(chi & g).count("1") & 1
            data[(g,)] = -norm if sign else norm
        out.append(Tensor((H.basis,), data, field))
    return out


def quasi_z2(field: Field = QQ) -> QuasiHopfAlgebra:
    """k[Z/2] with the nontrivial reassociator.

    Phi = sum omega(chi,psi,xi) e_chi (x) e_psi (x) e_xi over character
    idempotents, where omega = -1 exactly on the all-nontrivial triple.
    Equivalently Phi = 1 - 2 p(x)p(x)p with p = (e - x)/2. The antipode
    is the identity, beta = 1 and alpha = x; this is the unique choice
    making the antipode axioms hold with this Phi."""
    _require_char_not_2(field, "z2_quasi")
    H = cyclic_group_algebra(2, field)
    idem = _char_idempotents(H, 1)
    e1, es = idem[0], idem[1]
    one = H.unit()
    phi = one.tensor(one).tensor(one) - es.tensor(es).tensor(es).scale(field.from_int(2))
    alpha = e1 - es  # = x, the inverse of the diagonal of omega
    return QuasiHopfAlgebra(H.algebra, H.comul, H.counit, phi, H.antipode,
                            alpha, one, phi_inv=phi, name="kZ2q")


def klein_twist(field: Field = QQ) -> Tensor:
    """A gauge transformation on k[Z/2 x Z/2] that is not a two-cocycle:
    F = sum c(chi,psi) e_chi (x) e_psi with c(chi,psi) =
    (-1)^(chi_1 chi_2 psi_1), characters as bit pairs. The twisted
    reassociator is (-1)^(xi_1 (chi_1 psi_2 + chi_2 psi_1)), which is
    not identically 1."""
    H = klein_group_algebra(field)
    idem = _char_idempotents(H, 2)
    out = None
    for chi in range(4):
        for psi in range(4):
            chi1, chi2 = chi & 1, (chi >> 1) & 1
            psi1 = psi & 1
            term = idem[chi].tensor(idem[psi])
            if chi1 and chi2 and psi1:
                term = -term
            out = term if out is None else out + term
    return out


def twisted_klein(field: Field = QQ) -> QuasiHopfAlgebra:
    _require_char_not_2(field, "z2z2_twisted")
    H = klein_group_algebra(field)
    HF = twist(H, klein_twist(field))
    HF.name = "kZ2xZ2F"
    return HF


# ----------------------------------------------------------------------


def corpus(field: Field = QQ) -> Dict[str, QuasiHopfAlgebra]:
    """All built-in examples, in a fixed deterministic order."""
    return {
        "z2": cyclic_group_algebra(2, field),
        "z3": cyclic_group_algebra(3, field),
        "z2z2": klein_group_algebra(field),
        "s3": symmetric_group_algebra(field),
        "z2_quasi": quasi_z2(field),
        "z2z2_twisted": twisted_klein(field),
    }


def hopf_seeds(field: Field = QQ) -> Dict[str, QuasiHopfAlgebra]:
    """The entries with trivial reassociator and trivial alpha, beta."""
    full = corpus(field)
    return {k: full[k] for k in ("z2", "z3", "z2z2", "s3")}
