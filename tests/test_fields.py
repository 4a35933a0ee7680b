import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhopf import Fp, PrimeField, QQ, parse_field


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
