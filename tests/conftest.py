import pytest

from qhopf import (Basis, FinAlgebra, LinearMap, RightComoduleAlgebra, Tensor,
                   corpus, hopf_seeds, quasi_z2)


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
