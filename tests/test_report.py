"""VerificationReport.check_same against a reference scan that applies
each structure map to basis vectors, one input at a time, and on
tensors against the comparison it replaced (first_difference)."""

import itertools
import random
from fractions import Fraction

import pytest

from qhopf import (Basis, Fp, LegMul, LinearMap, PrimeField, QQ, Tensor,
                   VerificationReport, canonical_first_module,
                   canonical_right_comodule, corpus, cyclic_right_submodule,
                   mul_legs, quasi_smash, smash_product)
from qhopf.algebra import InputTable, _clean_table, as_table, first_mismatch

from reference_builders import check_equal, check_quantified


def _reference_same(rep, tag, lhs, rhs):
    """The per-input scan that check_same replaces: each side applied to
    basis vectors by mul_legs or map_leg, compared by check_quantified."""
    field = lhs.field

    def e(basis, i):
        return Tensor.basis_vector(basis, i, field)

    if isinstance(lhs, LegMul):
        check_quantified(
            rep, tag, ((i, j) for i in range(lhs.left.dim)
                       for j in range(lhs.right.dim)),
            lambda i, j: (mul_legs((lhs,), e(lhs.left, i), e(lhs.right, j)),
                          mul_legs((rhs,), e(rhs.left, i), e(rhs.right, j))))
    else:
        check_quantified(
            rep, tag, ((m,) for m in range(lhs.domain.dim)),
            lambda m: (e(lhs.domain, m).map_leg(0, lhs),
                       e(rhs.domain, m).map_leg(0, rhs)))


def _mutant(f, rng, count):
    """f with count coefficients changed at seeded random positions, each
    by a nonzero amount (an entry may become zero or appear)."""
    field = f.field
    if isinstance(f, LegMul):
        table = {k: dict(v) for k, v in f.table.items()}
        keys = [(i, j) for i in range(f.left.dim) for j in range(f.right.dim)]
        outs = list(range(f.out.dim))
    else:
        table = {k: dict(v) for k, v in f.cols.items()}
        keys = list(range(f.domain.dim))
        outs = sorted(k for col in f.cols.values() for k in col) or \
            [(0,) * len(f.codomain)]
    for key in rng.sample(keys, count):
        row = table.setdefault(key, {})
        idx = rng.choice(sorted(row) if row and rng.random() < 0.7 else outs)
        row[idx] = row.get(idx, field.zero()) + field.from_int(
            rng.choice((-2, -1, 1, 2, 3)))
    if isinstance(f, LegMul):
        # a bumped entry may be zero, which LegMul takes only cleaned
        return LegMul(f.left, f.right, f.out, _clean_table(table), field)
    return LinearMap(f.domain, f.codomain, table, field)


def _structures(field):
    H = corpus(field)["z2_quasi"]
    ca = canonical_right_comodule(H)
    sm = smash_product(quasi_smash(ca))
    M = canonical_first_module(ca)
    return (("product", sm),
            ("action", cyclic_right_submodule(sm, 1)),
            ("coaction", M.coaction))


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
def test_check_same_matches_reference_scan(field):
    rng = random.Random(20)
    for name, f in _structures(field):
        got, want = VerificationReport(name), VerificationReport(name)
        got.check_same(name + "-equal", f, _mutant(f, rng, 0))
        _reference_same(want, name + "-equal", f, _mutant(f, rng, 0))
        for trial in range(12):
            g = _mutant(f, rng, 1 + trial % 3)
            lhs, rhs = (f, g) if trial % 2 else (g, f)
            tag = "%s-%d" % (name, trial)
            got.check_same(tag, lhs, rhs)
            _reference_same(want, tag, lhs, rhs)
        assert got.to_json() == want.to_json(), name
        assert got.records[0].passed
        assert sum(not r.passed for r in got.records) >= 10, name


def _fresh_copy(f):
    """f with every scalar rebuilt as a new object of the same value."""
    def fresh(c):
        return (Fraction(c.numerator, c.denominator)
                if isinstance(c, Fraction) else Fp(c.v, c.p))

    if isinstance(f, LegMul):
        return LegMul(f.left, f.right, f.out, {
            k: {o: fresh(c) for o, c in v.items()}
            for k, v in f.table.items()}, f.field)
    return LinearMap(f.domain, f.codomain, {
        k: {o: fresh(c) for o, c in v.items()}
        for k, v in f.cols.items()}, f.field)


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
def test_first_mismatch_compares_values_not_objects(field):
    """Lowered scalars are shared objects, but a table whose equal values
    are distinct objects still agrees, slice by slice too, and one
    changed entry gives the record the reference scan gives."""
    rng = random.Random(22)
    for name, f in _structures(field):
        g = _fresh_copy(f)
        lhs, rhs = as_table(f), as_table(g)
        scalars = [[c for _, row in sorted(t.source.items())
                    for _, c in sorted(row.items())] for t in (lhs, rhs)]
        assert scalars[0] == scalars[1]
        assert not any(a is b for a, b in zip(*scalars))
        assert first_mismatch(lhs, rhs) is None
        slices = [InputTable(t.dims, t.spaces, t.field, t.part)
                  for t in (lhs, rhs)]
        assert first_mismatch(*slices) is None
        got, want = VerificationReport(name), VerificationReport(name)
        for trial in range(4):
            bumped = _mutant(g, rng, 1)
            got.check_same("%s-%d" % (name, trial), f, bumped)
            _reference_same(want, "%s-%d" % (name, trial), f, bumped)
        assert got.to_json() == want.to_json(), name
        assert not any(r.passed for r in got.records), name


def test_check_same_refuses_different_shapes():
    H = corpus()["z2_quasi"]
    sm = smash_product(quasi_smash(canonical_right_comodule(H)))
    rep = VerificationReport("shapes")
    rep.check_same("legs", sm, H.leg())
    rep.check_same("maps", H.comul, LinearMap.identity(H.basis, H.field))
    assert [(r.passed, r.counterexample) for r in rep.records] == \
        [(False, {}), (False, {})]


def _random_tensor(spaces, field, rng):
    """A tensor on spaces with seeded coefficients in -2..2 at about half
    of its multi-indices, zero ones left out."""
    data = {}
    for idx in itertools.product(*(range(b.dim) for b in spaces)):
        if rng.random() < 0.5:
            data[idx] = field.from_int(rng.randint(-2, 2))
    return Tensor(spaces, data, field)


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("Q", "GF7"))
def test_check_same_on_tensors_matches_first_difference(field):
    """check_same on two tensors, a table with no inputs, against the
    comparison it replaced (check_equal over first_difference): the same
    records, counterexample bytes included, with no "inputs" key."""
    rng = random.Random(21)
    B2, B3 = Basis(("a", "b"), "B2"), Basis(("u", "v", "w"), "B3")
    got, want = VerificationReport("tensors"), VerificationReport("tensors")
    for trial, spaces in enumerate(((), (B3,), (B2, B3), (B3, B2, B2)) * 6):
        lhs = _random_tensor(spaces, field, rng)
        rhs = lhs if trial % 4 == 0 else _random_tensor(spaces, field, rng)
        got.check_same("t%d" % trial, lhs, rhs)
        check_equal(want, "t%d" % trial, lhs, rhs)
    assert got.to_json() == want.to_json()
    assert sum(not r.passed for r in got.records) >= 12
    assert all("inputs" not in (r.counterexample or {}) for r in got.records)


def test_tensors_on_legs_of_different_dimensions_differ():
    """Two tensors with equal data on legs of different dimensions fail,
    on their shapes, with the counterexample {}. The comparison that
    check_same replaced passed them: it compared their data alone."""
    B2, B3 = Basis(("a", "b"), "B2"), Basis(("a", "b", "c"), "B3")
    data = {(0, 1): QQ.one(), (1, 0): QQ.from_int(2)}
    lhs, rhs = Tensor((B2, B2), data, QQ), Tensor((B2, B3), data, QQ)
    rep = VerificationReport("legs")
    rep.check_same("legs", lhs, rhs)
    assert [(r.passed, r.counterexample) for r in rep.records] == \
        [(False, {})]
    old = VerificationReport("legs")
    check_equal(old, "legs", lhs, rhs)
    assert old.records[0].passed
