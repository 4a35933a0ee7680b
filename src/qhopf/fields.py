"""Exact scalar fields: the rationals and prime fields GF(p).

Every container in the package carries a Field instance. Rational scalars
are plain fractions.Fraction values (always in lowest terms), GF(p)
scalars are Fp instances. Both support +, -, *, /, ==, bool, so tensor
code is field-agnostic: a scalar is zero exactly when it is falsy.

A kernel that sums many products works in plain integers instead: the
leg-wise product mul_legs, the Sweedler sums of sweedler (the derived
elements, every Sweedler sum of quasihopf.py and coact.py, the tables
of q2, q5, mbia2, ma3 and bmc3, transport_module's actions and
HomSmash.star_table) and the side-builders of algebra.py; the
product-table builders (lowered once per entry by ProductAlgebra) and
HeisenbergDouble of products.py;
canonical_first_module, _forward_action and the four module functors
relative_from_two_sided, two_sided_from_relative,
relative_from_smash_module and two_sided_from_smash_module of
hopfmod.py; doi_from_algebra_module, algebra_action_from_doi,
hhop_module_coalgebra and crossed_smash_direct of doihopf.py. The
helpers they share (_lift_rows, _lift_map, _lift_vector, _times, _chain,
_contract, _mul, _nest, _leg_sum, _sweedler_plan, _side, _pair, _apply,
_restrict, _lowered, _transpose, _hit_products, _pairs) live in
algebra.py. They go through two methods of the field:

- lift(data) -> (num, den): num maps each key of data to an int and den
  is one positive int with data[k] == num[k] / den for every k. Over Q,
  den is the least common multiple of the denominators (1 for integral
  or empty data); over GF(p), num[k] is the residue and den is 1.
- lower(num, den) -> data: the inverse, one scalar of the field's type
  per key, with the keys whose value is zero left out. Sums and products
  of lifted numerators may be lowered over the product of their
  denominators; over GF(p) the numerators may be any ints, since lower
  reduces them.

lower returns one shared object per value, from a per-field map of at
most SHARED_LIMIT entries that is cleared when full. Scalars are
immutable, so sharing never changes a value, and equal lowered tables
compare by identity. Compare scalars with ==, never with `is`: equal
values from arithmetic or from both sides of a clear are distinct.

No other module builds a Fraction or an Fp.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

# entries of one field's map of shared lowered scalars
SHARED_LIMIT = 4096


class Fp:
    """An element of GF(p), stored as a reduced residue."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _check(self, other: "Fp"):
        if self.p != other.p:
            raise ValueError("mixed characteristics %d and %d" % (self.p, other.p))

    def __add__(self, other):
        self._check(other)
        return Fp(self.v + other.v, self.p)

    def __sub__(self, other):
        self._check(other)
        return Fp(self.v - other.v, self.p)

    def __mul__(self, other):
        self._check(other)
        return Fp(self.v * other.v, self.p)

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __truediv__(self, other):
        self._check(other)
        if other.v == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return Fp(self.v * pow(other.v, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "Fp(%d, %d)" % (self.v, self.p)


class Field:
    """Base class: a choice of exact scalar field."""

    name = "?"

    def __init__(self):
        # what lower was given -> the scalar it returned for it
        self._shared: dict = {}

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def from_pair(self, num: int, den: int):
        """Scalar from an integer numerator/denominator pair."""
        raise NotImplementedError

    def to_pair(self, c):
        """Inverse of from_pair, for serialization."""
        raise NotImplementedError

    def lift(self, data: dict):
        """(num, den): integer numerators over one common denominator."""
        raise NotImplementedError

    def lower(self, num: dict, den: int) -> dict:
        """Scalars num[k] / den, without the zero ones; equal values are
        one shared object (compare them with ==, never with `is`)."""
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return "Field(%s)" % self.name


class RationalField(Field):
    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def from_pair(self, num, den):
        return Fraction(num, den)

    def to_pair(self, c):
        return (c.numerator, c.denominator)

    def lift(self, data):
        den = lcm(*[c.denominator for c in data.values()])
        if den == 1:
            return {k: c.numerator for k, c in data.items()}, 1
        return {k: c.numerator * (den // c.denominator)
                for k, c in data.items()}, den

    def lower(self, num, den):
        # (n, den) and the reduced (numerator, denominator) both map to
        # the one Fraction, so 1/2 and 3/6 come back as one object; a
        # miss adds up to two entries
        shared, out = self._shared, {}
        for k, n in num.items():
            if n:
                c = shared.get((n, den))
                if c is None:
                    if len(shared) >= SHARED_LIMIT - 1:
                        shared.clear()
                    c = Fraction(n, den)
                    c = shared[n, den] = shared.setdefault(
                        (c.numerator, c.denominator), c)
                out[k] = c
        return out


class PrimeField(Field):
    def __init__(self, p: int):
        # the bound keeps trial division below 46,341 divisors
        if not 2 <= p < 2 ** 31 or any(p % d == 0
                                       for d in range(2, isqrt(p) + 1)):
            raise ValueError("GF(p) needs a prime p < 2^31, got %r" % (p,))
        super().__init__()
        self.p = p
        self.name = "GF(%d)" % p

    def zero(self):
        return Fp(0, self.p)

    def one(self):
        return Fp(1, self.p)

    def from_int(self, n):
        return Fp(n, self.p)

    def from_pair(self, num, den):
        return Fp(num, self.p) / Fp(den, self.p)

    def to_pair(self, c):
        return (c.v, 1)

    def lift(self, data):
        return {k: c.v for k, c in data.items()}, 1

    def lower(self, num, den):
        p, shared, out = self.p, self._shared, {}
        inv = pow(den, -1, p)
        for k, n in num.items():
            r = n * inv % p
            if r:
                c = shared.get(r)
                if c is None:
                    if len(shared) >= SHARED_LIMIT:
                        shared.clear()
                    c = shared[r] = Fp(r, p)
                out[k] = c
        return out


QQ = RationalField()


def parse_field(spec: str) -> Field:
    """Parse a field name: "Q" or "GF(p)"; ValueError for anything else,
    a spec file's field that is not a string included."""
    spec = spec.strip() if isinstance(spec, str) else spec
    if spec == "Q":
        return QQ
    if isinstance(spec, str) and spec.startswith("GF(") and spec.endswith(")"):
        return PrimeField(int(spec[3:-1]))
    raise ValueError("unknown field %r (expected 'Q' or 'GF(p)')" % (spec,))
