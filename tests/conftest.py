import pytest

from qhopf import (Basis, FinAlgebra, LinearMap, QuasiHopfAlgebra,
                   RightComoduleAlgebra, Tensor, corpus, cyclic_group_algebra,
                   hopf_seeds, quasi_z2)


@pytest.fixture(scope="session")
def all_corpus():
    return corpus()


@pytest.fixture(scope="session")
def seeds():
    return hopf_seeds()


@pytest.fixture(scope="session")
def hq():
    return quasi_z2()


def klein_subgroup_comodule(field):
    """The comodule algebra k<a> in k[Z/2 x Z/2] (corpus entry z2z2):
    rho is Delta restricted to k<a> and Phi_rho = 1 (x) 1 (x) 1. Its
    basis (e, a) is not H's and its dimension is 2, not 4, so a check
    that reads H's table or range where the comodule algebra's belongs
    does not pass on it by accident."""
    H = corpus(field)["z2z2"]
    one = field.one()
    b = Basis(("e", "a"), "k<a>")
    # e and a are basis indices 0 and 1 of both k<a> and H, and the
    # group law on them is xor
    unit = Tensor((b,), {(0,): one}, field)
    alg = FinAlgebra(b, {(i, j): {i ^ j: one} for i in (0, 1)
                         for j in (0, 1)}, unit, field)
    rho = LinearMap(b, (b, H.basis), {i: {(i, i): one} for i in (0, 1)},
                    field)
    return RightComoduleAlgebra(H, alg, rho,
                                unit.tensor(H.unit()).tensor(H.unit()),
                                name="k<a>")


@pytest.fixture(scope="session")
def subgroup_comodule():
    return klein_subgroup_comodule


def rebase(H, b, to_old, to_new, name):
    """H on the basis b: to_old[i] gives b's vector i in H's basis as
    {index: scalar}, and the LinearMap to_new takes H's basis to b."""
    field = H.field

    def new(t):
        for leg in range(len(t.spaces)):
            t = t.map_leg(leg, to_new)
        return t

    def old(i):
        return Tensor((H.basis,), {(k,): c for k, c in to_old[i].items()},
                      field)

    n = range(b.dim)
    mult = {(i, j): {k: c for (k,), c in
                     new(H.mul(old(i), old(j))).data.items()}
            for i in n for j in n}
    alg = FinAlgebra(b, {key: v for key, v in mult.items() if v},
                     new(H.unit()), field)
    comul = LinearMap(b, (b, b), {i: new(H.delta(old(i))).data for i in n},
                      field)
    counit = LinearMap(b, (), {i: {(): H.eps(old(i))} for i in n}, field)
    antipode = LinearMap(b, (b,), {i: new(H.S(old(i))).data for i in n},
                         field)
    return QuasiHopfAlgebra(alg, comul, counit, new(H.phi), antipode,
                            new(H.alpha), new(H.beta), new(H.phi_inv),
                            name=name)


def nongroup_z3(field):
    """k[Z/3] on the basis (1, g, 1 + g^2), not a group basis: rows of
    its structure constants have several entries and values other than
    one (g g = -1 + (1 + g^2), and (1 + g^2)^2 = -1 + g + 2 (1 + g^2)),
    and its antipode matrix is not symmetric (S(g) = -1 + (1 + g^2),
    S(1 + g^2) = 1 + g). So a kernel that transposes a table, swaps
    the factors of a product or drops a structure constant other than
    one gives wrong numbers on it where a group algebra hides the
    slip."""
    H = cyclic_group_algebra(3, field)
    one = field.one()
    b = Basis(("1", "g", "1+g2"), "kZ3nb")
    # the new basis in the old one, and the old basis in the new one
    to_old = {0: {0: one}, 1: {1: one}, 2: {0: one, 2: one}}
    to_new = LinearMap(H.basis, (b,), {0: {(0,): one}, 1: {(1,): one},
                                      2: {(0,): -one, (2,): one}}, field)
    return rebase(H, b, to_old, to_new, "z3_nongroup")


@pytest.fixture(scope="session")
def nongroup():
    return nongroup_z3
