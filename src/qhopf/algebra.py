"""Finite dimensional algebras by structure constants, leg-wise
multiplication in tensor products, and exact inversion.

A LegMul is any bilinear pairing L x R -> O given by sparse structure
constants; algebras, left actions and right actions all expose one, so a
single routine multiplies elements of mixed tensor products such as
M (x) H (x) H where the first leg is acted on rather than multiplied.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence, Tuple

from .fields import Field, QQ
from .linalg import invert_matrix_map, solve_linear
from .tensor import Basis, FlatSpace, LinearMap, Tensor


def _clean_table(table):
    """table without zero coefficients and empty rows. A row with
    neither is kept as it is, and so is table itself when every row is
    clean, so a table built clean is never copied."""
    if all(vec and all(vec.values()) for vec in table.values()):
        return table
    out = {}
    for key, vec in table.items():
        if not all(vec.values()):
            vec = {k: c for k, c in vec.items() if c}
        if vec:
            out[key] = vec
    return out


class LegMul:
    """A bilinear pairing of based spaces by structure constants.

    table[(i, j)] is a sparse vector over the output basis; missing pairs
    multiply to zero. The table is fixed after construction: lifted()
    turns it into integers once, on first use, and every later product
    reuses that.
    """

    __slots__ = ("left", "right", "out", "table", "field", "_lifted")

    def __init__(self, left: Basis, right: Basis, out: Basis, table, field: Field = QQ):
        self.left = left
        self.right = right
        self.out = out
        self.field = field
        self.table = _clean_table(table)
        self._lifted = None

    @classmethod
    def from_function(cls, left, right, out, fn, field: Field = QQ):
        table = {}
        for i in range(left.dim):
            for j in range(right.dim):
                t = fn(i, j)
                table[(i, j)] = {k[0]: c for k, c in t.data.items()}
        return cls(left, right, out, table, field)

    def pair(self, i: int, j: int) -> Dict[int, object]:
        return self.table.get((i, j), {})

    def lifted(self):
        """(rows, den): the table lifted (fields.py) over one common
        denominator den, rows[(i, j)] a tuple of (k, numerator) pairs."""
        if self._lifted is None:
            num, den = self.field.lift({(key, k): c
                                        for key, vec in self.table.items()
                                        for k, c in vec.items()})
            rows = {}
            for (key, k), n in num.items():
                rows.setdefault(key, []).append((k, n))
            self._lifted = ({key: tuple(v) for key, v in rows.items()}, den)
        return self._lifted


def mul_legs(legs: Sequence[LegMul], x: Tensor, y: Tensor) -> Tensor:
    """Leg-wise product: leg i of the result is legs[i].pair applied to
    leg i of x and leg i of y, summed bilinearly.

    The sum runs over the lifted (integer) forms of x, y and the tables
    and is lowered once per output entry. A structure constant equal to
    one is not multiplied in: the constants of group-like bases are all
    one."""
    field = x.field
    if len(x.spaces) != len(legs) or len(y.spaces) != len(legs):
        raise ValueError("leg count mismatch")
    for i, leg in enumerate(legs):
        if x.spaces[i] != leg.left or y.spaces[i] != leg.right:
            raise ValueError("leg %d basis mismatch" % i)
        if leg.field is not field and leg.field != field:
            raise ValueError("leg %d field mismatch" % i)
    if y.field is not field and y.field != field:
        raise ValueError("field mismatch")
    out = Tensor.zero(tuple(leg.out for leg in legs), field)
    if not x.data or not y.data:
        return out
    xs, den = field.lift(x.data)
    ys, dy = field.lift(y.data)
    den *= dy
    gets = []
    for leg in legs:
        rows, dt = leg.lifted()
        gets.append(rows.get)
        den *= dt
    ys = list(ys.items())
    acc = {}
    if len(legs) == 1:
        get = gets[0]
        for (i,), cx in xs.items():
            for (j,), cy in ys:
                v = get((i, j))
                if v is not None:
                    c0 = cx * cy
                    for k, s in v:
                        idx = (k,)
                        acc[idx] = acc.get(idx, 0) + (c0 if s == 1 else c0 * s)
    else:
        for xi, cx in xs.items():
            for yi, cy in ys:
                vecs = []
                for get, i, j in zip(gets, xi, yi):
                    v = get((i, j))
                    if v is None:
                        break
                    vecs.append(v)
                else:
                    c0 = cx * cy
                    for combo in itertools.product(*vecs):
                        idx = tuple([k for k, _ in combo])
                        c = c0
                        for _, s in combo:
                            if s != 1:
                                c *= s
                        acc[idx] = acc.get(idx, 0) + c
    out.data = field.lower(acc, den)
    return out


class FinAlgebra:
    """A finite dimensional unital algebra given by structure constants.

    mult[(i, j)] is the sparse product of basis vectors i and j; unit is
    a one-leg Tensor. Associativity and unit laws are checked by
    is_associative/unit_laws_hold rather than enforced, because some
    carriers built here (for instance the convolution algebra of a dual)
    are deliberately nonassociative.

    basis, mult and field are fixed after construction: as_leg builds
    its LegMul once, on first use, over mult itself, and every later
    product reuses it.
    """

    def __init__(self, basis: Basis, mult, unit: Tensor, field: Field = QQ):
        self.basis = basis
        self.field = field
        self.mult = _clean_table(mult)
        if unit.spaces != (basis,):
            raise ValueError("unit shape mismatch")
        self.unit = unit
        self._leg: Optional[LegMul] = None

    @property
    def dim(self) -> int:
        return self.basis.dim

    def e(self, i: int) -> Tensor:
        return Tensor.basis_vector(self.basis, i, self.field)

    def unit_tensor(self) -> Tensor:
        return self.unit

    def mul_indices(self, i: int, j: int) -> Tensor:
        vec = self.mult.get((i, j), {})
        return Tensor((self.basis,), {(k,): c for k, c in vec.items()}, self.field)

    def mul(self, x: Tensor, y: Tensor) -> Tensor:
        return mul_legs((self.as_leg(),), x, y)

    def mulc(self, *xs: Tensor) -> Tensor:
        """Chained product of one-leg tensors, left to right."""
        acc = xs[0]
        leg = (self.as_leg(),)
        for x in xs[1:]:
            acc = mul_legs(leg, acc, x)
        return acc

    def as_leg(self) -> LegMul:
        if self._leg is None:
            self._leg = LegMul(self.basis, self.basis, self.basis, self.mult, self.field)
        return self._leg

    def opposite(self) -> "FinAlgebra":
        op_basis = Basis(self.basis.labels, self.basis.name + "^op")
        mult = {}
        for (i, j), vec in self.mult.items():
            mult[(j, i)] = vec
        unit = Tensor((op_basis,), {k: c for k, c in self.unit.data.items()}, self.field)
        return FinAlgebra(op_basis, mult, unit, self.field)

    def is_associative(self) -> Optional[Tuple[int, int, int]]:
        """None if associative, else the first failing index triple."""
        n = self.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self.mul(self.mul_indices(i, j), self.e(k))
                    rhs = self.mul(self.e(i), self.mul_indices(j, k))
                    if lhs != rhs:
                        return (i, j, k)
        return None

    def unit_laws_hold(self) -> Optional[int]:
        """None if the unit is two-sided, else the first failing index."""
        for i in range(self.dim):
            x = self.e(i)
            if self.mul(self.unit, x) != x or self.mul(x, self.unit) != x:
                return i
        return None

    def __eq__(self, other):
        if not isinstance(other, FinAlgebra):
            return NotImplemented
        return (
            self.basis == other.basis
            and self.mult == other.mult
            and self.unit == other.unit
        )


def tensor_unit(algebras: Sequence[FinAlgebra]) -> Tensor:
    out = Tensor.scalar(algebras[0].field.one(), algebras[0].field)
    for a in algebras:
        out = out.tensor(a.unit_tensor())
    return out


def tensor_algebra_legs(algebras: Sequence[FinAlgebra]) -> Tuple[LegMul, ...]:
    return tuple(a.as_leg() for a in algebras)


def invert_in_tensor_algebra(algebras: Sequence[FinAlgebra], x: Tensor) -> Optional[Tensor]:
    """Two-sided inverse of x in the tensor product algebra, or None.

    Solves the left-multiplication system exactly, then verifies both
    x * y = 1 and y * x = 1 before returning y.
    """
    legs = tensor_algebra_legs(algebras)
    field = x.field
    flat = FlatSpace(tuple(a.basis for a in algebras), field)
    spaces, total = flat.factors, flat.dim
    unit = tensor_unit(algebras)
    # rows of the system:  sum_b M[a, b] y_b = unit_a, M[:, b] = x * e_b
    rows = [dict() for _ in range(total)]
    for b in range(total):
        eb = Tensor(spaces, {flat.split(b): field.one()}, field)
        col = mul_legs(legs, x, eb)
        for idx, c in col.data.items():
            rows[flat.join(idx)][b] = c
    rhs = [unit.data.get(flat.split(a), field.zero()) for a in range(total)]
    try:
        sol = solve_linear(rows, rhs, field)
    except ArithmeticError:
        return None
    if sol is None:
        return None
    y = Tensor(spaces, {flat.split(b): c for b, c in sol.items()}, field)
    if mul_legs(legs, x, y) != unit or mul_legs(legs, y, x) != unit:
        return None
    return y


def invert_linear_map(f: LinearMap) -> Optional[LinearMap]:
    """Inverse of an endomorphism with a single codomain leg."""
    if f.codomain != (f.domain,):
        raise ValueError("only endomorphisms can be inverted")
    dim = f.domain.dim

    def apply_fn(j):
        return {k[0]: c for k, c in f.cols.get(j, {}).items()}

    cols = invert_matrix_map(apply_fn, dim, f.field)
    if cols is None:
        return None
    return LinearMap(
        f.domain,
        (f.domain,),
        {j: {(k,): c for k, c in col.items()} for j, col in enumerate(cols)},
        f.field,
    )
