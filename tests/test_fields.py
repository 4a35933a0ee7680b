import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhopf import Fp, PrimeField, QQ, RationalField, parse_field
from qhopf.fields import SHARED_LIMIT


def test_rational_basics():
    assert QQ.zero() == Fraction(0)
    assert QQ.one() == Fraction(1)
    assert QQ.from_int(-3) == Fraction(-3)
    assert QQ.from_pair(2, 4) == Fraction(1, 2)
    assert QQ.to_pair(Fraction(-5, 3)) == (-5, 3)
    assert not QQ.zero()
    assert QQ.one()


def test_prime_field_basics():
    F = PrimeField(5)
    a, b = F.from_int(3), F.from_int(4)
    assert a + b == F.from_int(2)
    assert a * b == F.from_int(2)
    assert a - b == F.from_int(4)
    assert (a / b) * b == a
    assert F.to_pair(a) == (3, 1)
    assert F.from_pair(1, 2) * F.from_int(2) == F.one()
    assert not F.zero()


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_bound_refuses_large_p_at_once():
    """p < 2^31 keeps the primality test to trial division by at most
    46,341 divisors; a larger prime is refused before any division."""
    start = time.perf_counter()
    assert parse_field("GF(2147483647)").p == 2 ** 31 - 1
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        parse_field("GF(1000000000000000003)")
    assert time.perf_counter() - start < 1
    assert str(exc.value) == ("GF(p) needs a prime p < 2^31, got "
                              "1000000000000000003")


def test_prime_field_division_by_zero():
    F = PrimeField(3)
    with pytest.raises(ZeroDivisionError):
        F.one() / F.zero()


def test_mixed_characteristic_rejected():
    with pytest.raises(ValueError):
        Fp(1, 3) + Fp(1, 5)


def test_parse_field():
    assert parse_field("Q") is QQ
    assert parse_field(" GF(7) ").name == "GF(7)"
    with pytest.raises(ValueError):
        parse_field("R")
    with pytest.raises(ValueError):
        parse_field("GF(4)")


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_field_laws_rationals(a, b, c):
    x, y, z = (QQ.from_int(v) for v in (a, b, c))
    assert x * (y + z) == x * y + x * z
    assert (x + y) + z == x + (y + z)
    assert x + QQ.zero() == x
    assert x * QQ.one() == x


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_field_laws_gf7(a, b, c):
    F = PrimeField(7)
    x, y, z = (F.from_int(v) for v in (a, b, c))
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    if y:
        assert (x / y) * y == x


@given(st.integers(-30, 30), st.integers(1, 30))
def test_pair_round_trip(num, den):
    c = QQ.from_pair(num, den)
    n2, d2 = QQ.to_pair(c)
    assert QQ.from_pair(n2, d2) == c


def test_lift_and_lower():
    data = {"a": Fraction(1, 2), "b": Fraction(-2, 3), "c": Fraction(4)}
    num, den = QQ.lift(data)
    assert (num, den) == ({"a": 3, "b": -4, "c": 24}, 6)
    assert QQ.lower(num, den) == data
    assert all(type(c) is Fraction for c in QQ.lower(num, den).values())
    assert QQ.lift({}) == ({}, 1)
    assert QQ.lower({"a": 0, "b": 6}, 3) == {"b": Fraction(2)}
    F = PrimeField(7)
    num, den = F.lift({"a": F.from_int(3), "b": F.from_int(6)})
    assert (num, den) == ({"a": 3, "b": 6}, 1)
    # numerators need not be reduced, and zero residues are left out
    assert F.lower({"a": 10, "b": 14, "c": -1}, 1) == \
        {"a": F.from_int(3), "c": F.from_int(6)}
    assert F.lower({"a": 1}, 2) == {"a": F.from_pair(1, 2)}


# lifted numerators as the kernels produce them: zero, negative and
# large sums over one positive denominator
NUMERATORS = st.dictionaries(
    st.integers(0, 40),
    st.one_of(st.integers(-60, 60), st.integers(-2 ** 80, 2 ** 80)),
    max_size=25)


@given(NUMERATORS, st.integers(1, 2 ** 40))
def test_lower_matches_scalars_built_one_by_one(num, den):
    """lower over Q and GF(7) against Fraction(n, den) and
    Fp(n * den^-1, p) key for key, the zero ones left out."""
    assert QQ.lower(num, den) == {k: Fraction(n, den)
                                  for k, n in num.items() if n}
    F = PrimeField(7)
    if den % 7:
        inv = pow(den, -1, 7)
        assert F.lower(num, den) == {k: Fp(n * inv, 7)
                                     for k, n in num.items() if n * inv % 7}


def test_lower_shares_one_object_per_value():
    # a fresh field: QQ's map may be cleared between two calls here
    Q = RationalField()
    half = Q.lower({"a": 1}, 2)["a"]
    assert Q.lower({"b": 3}, 6)["b"] is half
    assert Q.lower({"a": 1, "b": 2, "c": 5}, 4) == {
        "a": Fraction(1, 4), "b": half, "c": Fraction(5, 4)}
    assert Q.lower({"b": 2}, 4)["b"] is half
    twice = Q.lower({"a": -4, "b": -4}, 1)
    assert twice["a"] is twice["b"] is Q.lower({"c": -8}, 2)["c"]
    F = PrimeField(7)
    # 1/2 = 4 in GF(7); 11 and -3 reduce to 4 as well
    four = F.lower({"a": 1}, 2)["a"]
    assert four == F.from_int(4)
    got = F.lower({"a": 11, "b": -3, "c": 4}, 1)
    assert list(got) == ["a", "b", "c"]
    assert all(c is four for c in got.values())
    assert F.lower({"a": 7, "b": 0}, 1) == {}


@pytest.mark.parametrize("field", (RationalField(), PrimeField(8191)),
                         ids=("Q", "GF8191"))
def test_shared_map_stays_within_its_bound(field):
    """More distinct values than SHARED_LIMIT: the map is cleared when
    full, and every value lowered before, across and after a clear is
    the right one."""
    def expect(num, den):
        if field == QQ:
            return {k: Fraction(n, den) for k, n in num.items() if n}
        inv = pow(den, -1, 8191)
        return {k: Fp(n * inv, 8191) for k, n in num.items() if n % 8191}

    sizes = []
    for n in range(1, 2 * SHARED_LIMIT + 10, 3):
        num = {0: n, 1: -n, 2: 2 * n}
        assert field.lower(num, 3) == expect(num, 3)
        sizes.append(len(field._shared))
    assert max(sizes) <= SHARED_LIMIT
    assert any(b < a for a, b in zip(sizes, sizes[1:]))
    assert field.lower({0: 1, 1: 5}, 3) == expect({0: 1, 1: 5}, 3)
