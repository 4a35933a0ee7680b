"""Finite dimensional algebras by structure constants, leg-wise
multiplication in tensor products, and exact inversion.

A LegMul is any bilinear pairing L x R -> O given by sparse structure
constants; an algebra is one (FinAlgebra), and so are left and right
actions, so a single routine multiplies elements of mixed tensor
products such as M (x) H (x) H where the first leg is acted on rather
than multiplied.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Dict, Optional, Sequence, Tuple

from .fields import Field, QQ
from .linalg import RowSpan, solve_linear
from .tensor import Basis, LinearMap, Tensor


def _clean_table(table):
    """table without zero coefficients and empty rows. A row with
    neither is kept as it is, and so is table itself when every row is
    clean, so a table built clean is never copied. A LegMul, an algebra
    included, takes its table clean; a builder whose sums can cancel, or
    that stores every pair, passes its table through here first."""
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
    """A bilinear pairing of based spaces by structure constants: an
    action, a flat_pairing, or the multiplication of an algebra, which
    is a FinAlgebra.

    table[(i, j)] is a sparse vector over the output basis; missing pairs
    multiply to zero. The table holds no zero coefficient and no empty
    row (_clean_table), so equal pairings have equal tables. It is fixed
    after construction: lifted() turns it into integers once, on first
    use, and every later product reuses that.
    """

    __slots__ = ("left", "right", "out", "table", "field", "_lifted")

    def __init__(self, left: Basis, right: Basis, out: Basis, table, field: Field = QQ):
        self.left = left
        self.right = right
        self.out = out
        self.field = field
        self.table = table
        self._lifted = None

    @classmethod
    def from_graph(cls, t: Tensor) -> "LegMul":
        """The pairing e_i (x) e_j -> the slice of the three-leg tensor t
        at (i, j): legs 0 and 1 are the inputs, leg 2 the output."""
        table: Dict[Tuple[int, int], Dict[int, object]] = {}
        for (i, j, k), c in t.data.items():
            table.setdefault((i, j), {})[k] = c
        return cls(*t.spaces, table, t.field)

    def graph(self) -> Tensor:
        """The three-leg tensor of the structure constants, the sum of
        e_i (x) e_j (x) (e_i e_j) over the inputs: from_graph inverted."""
        return Tensor((self.left, self.right, self.out), {
            (i, j, k): c for (i, j), vec in self.table.items()
            for k, c in vec.items()}, self.field)

    def lifted(self):
        """(rows, den): the table lifted by _lift_rows, rows[(i, j)] a
        tuple of (k, numerator) pairs."""
        if self._lifted is None:
            self._lifted = _lift_rows(self.field, self.table)
        return self._lifted


def _flat_keys(*dims: int) -> list:
    """Every index tuple of a tensor product of spaces of these
    dimensions, in itertools.product order, the order product_basis
    lists labels in: the flat index of a tuple is its position here.
    This is the one flattening rule; flat_pairing and ProductAlgebra's
    keys are built from it."""
    return list(itertools.product(*map(range, dims)))


@cache
def flat_pairing(left: Basis, right: Basis, out: Basis,
                 field: Field = QQ) -> LegMul:
    """The pairing e_i (x) e_j -> e_k of out, k the flat index of (i, j)
    (_flat_keys): out is the flattened basis of left (x) right, a
    ProductAlgebra's own basis, or that of H (x) H^op paired from two
    legs of H. As a sweedler term (pairing, t1, t2) it writes two terms
    into one flat leg. Built on first use and kept; ValueError unless
    dim(out) = dim(left) dim(right)."""
    keys = _flat_keys(left.dim, right.dim)
    if out.dim != len(keys):
        raise ValueError("the flat basis is not the size of its factors")
    one = field.one()
    return LegMul(left, right, out, {key: {k: one}
                                     for k, key in enumerate(keys)}, field)


def _lift_rows(field: Field, table):
    """(rows, den): a table of sparse rows (key -> {index: scalar})
    lifted (fields.py) over one common denominator den, rows[key] a tuple
    of (index, numerator) pairs."""
    num, den = field.lift({(key, k): c for key, vec in table.items()
                           for k, c in vec.items()})
    rows = {}
    for (key, k), n in num.items():
        rows.setdefault(key, []).append((k, n))
    return {key: tuple(v) for key, v in rows.items()}, den


def _nest(terms: Dict, levels: int) -> Dict:
    """terms (multi-index -> numerator) nested by the first `levels`
    legs: nest[i_0]...[i_{levels-1}] is a dict keyed by the rest of the
    multi-index."""
    root: Dict = {}
    for idx, c in terms.items():
        node = root
        for i in idx[:levels]:
            node = node.setdefault(i, {})
        node[idx[levels:]] = c
    return root


def _leg_sum(acc, gets, xs: Dict, ys: Dict) -> None:
    """Add the leg-wise products of xs and ys into acc: xs and ys map
    multi-indices to numerators, and leg r of each product is read by
    gets[r] from its lifted rows.

    The product is staged leg by leg, as a contraction path of one leg
    at a time. Both operands are nested by their legs but the last
    (_nest). Leg r's structure constants are read once per pair of an
    x-prefix and a y-prefix of r + 1 indices, and each such pair carries
    its output prefix and the product of the constants read so far on to
    leg r + 1. The last leg runs one tight loop per pair of prefixes; a
    structure constant equal to one is not multiplied in there, since
    the constants of group-like bases are all one. With no legs, the
    product of the two scalars is added under the key ()."""
    if not gets:
        acc[()] = acc.get((), 0) + sum(xs.values()) * sum(ys.values())
        return
    levels = len(gets) - 1
    if levels:
        xs, ys = _nest(xs, levels), _nest(ys, levels)
    frames = [((), 1, xs, ys)]
    for get in gets[:levels]:
        staged = []
        for prefix, c, xn, yn in frames:
            for i, xsub in xn.items():
                for j, ysub in yn.items():
                    for k, s in get((i, j), ()):
                        staged.append((prefix + (k,), c * s, xsub, ysub))
        frames = staged
    get = gets[levels]
    for prefix, c, xn, yn in frames:
        for (i,), cx in xn.items():
            cx *= c
            for (j,), cy in yn.items():
                v = get((i, j))
                if v is not None:
                    c0 = cx * cy
                    for k, s in v:
                        idx = prefix + (k,)
                        acc[idx] = acc.get(idx, 0) + (c0 if s == 1 else c0 * s)


def _check_pairing(legs: Sequence[LegMul], left, right, field: Field,
                   other: Field) -> None:
    """ValueError unless each legs[i] pairs left[i] with right[i] over
    field, and other is field."""
    if len(left) != len(legs) or len(right) != len(legs):
        raise ValueError("leg count mismatch")
    for i, leg in enumerate(legs):
        if left[i] != leg.left or right[i] != leg.right:
            raise ValueError("leg %d basis mismatch" % i)
        if leg.field is not field and leg.field != field:
            raise ValueError("leg %d field mismatch" % i)
    if other is not field and other != field:
        raise ValueError("field mismatch")


def _lift_operand(field: Field, legs: Sequence[LegMul], t: Tensor):
    """The lifted numerators of t, the row lookups of the lifted tables
    of legs (for _leg_sum), and the product of their denominators."""
    num, den = field.lift(t.data)
    gets = []
    for leg in legs:
        rows, d = leg.lifted()
        gets.append(rows.get)
        den *= d
    return num, gets, den


def mul_legs(legs: Sequence[LegMul], x: Tensor, y: Tensor) -> Tensor:
    """Leg-wise product: leg i of the result is the pairing legs[i]
    applied to leg i of x and leg i of y, summed bilinearly.

    The sum runs over the lifted (integer) forms of x, y and the tables,
    staged one leg at a time (_leg_sum): leg r's structure constants are
    read once per pair of index prefixes of x and y, not once per pair
    of terms. It is lowered once per output entry."""
    field = x.field
    _check_pairing(legs, x.spaces, y.spaces, field, y.field)
    out = Tensor.zero(tuple(leg.out for leg in legs), field)
    if not x.data or not y.data:
        return out
    xs, gets, den = _lift_operand(field, legs, x)
    ys, dy = field.lift(y.data)
    acc = {}
    _leg_sum(acc, gets, xs, ys)
    out.data = field.lower(acc, den * dy)
    return out


def sandwich(f: LinearMap, x: Optional[Tensor] = None,
             xlegs: Sequence[LegMul] = (), y: Optional[Tensor] = None,
             ylegs: Sequence[LegMul] = ()) -> LinearMap:
    """The map e_m -> x f(e_m) y, multiplied leg by leg: x on the left
    through the pairings xlegs, y on the right through ylegs, a side
    with no tensor left out. Coassociativity up to a reassociator,
    Phi_rho (rho (x) id) rho = ((id (x) Delta) rho) Phi_rho, equates two
    such maps; a twisted coaction f rho_C is one. Staged leg by leg
    (_leg_sum) over the lifted columns, x, y and pairings, each column
    lowered once. ValueError if the pairings do not match the legs."""
    field, spaces = f.field, f.codomain
    cols, den = _lift_rows(field, f.cols)
    stages = []
    for t, legs, left in ((x, xlegs, True), (y, ylegs, False)):
        if t is None:
            continue
        _check_pairing(legs, *((t.spaces, spaces) if left
                               else (spaces, t.spaces)), field, t.field)
        num, gets, d = _lift_operand(field, legs, t)
        den *= d
        stages.append((left, gets, num))
        spaces = tuple(leg.out for leg in legs)
    out = {}
    for m, col in cols.items():
        acc = dict(col)
        for left, gets, num in stages:
            prod: Dict = {}
            _leg_sum(prod, gets, *((num, acc) if left else (acc, num)))
            acc = {idx: n for idx, n in prod.items() if n}
        out[m] = field.lower(acc, den)
    return LinearMap(f.domain, spaces, out, field)


def _sweedler_plan(field: Field, spaces, legs: Sequence):
    """(vals, plans, roots, out, den): legs compiled for sweedler. Values
    are tuples of (index, numerator) pairs in the slots of vals: slot r <
    len(spaces) for source leg r, then the lifted tensors. A step (slot,
    a, b, c) fills its slot with the lifted map b applied to slot a (c
    None) or slots a and c multiplied by the lifted table b; plans[r]
    holds the steps whose last source leg read is r (plans[-1]: none).
    Output leg r is slot roots[r] on out[r]; den is the product of all
    the denominators but the source's."""
    k, den = len(spaces), 1
    vals, plans = [None] * k, [[] for _ in range(k + 1)]

    def add(depth, space, d, *step):
        nonlocal den
        den *= d
        vals.append(None)
        plans[depth].append((len(vals) - 1,) + step)
        return len(vals) - 1, depth, space

    def compile_term(t):  # (slot, last source leg read, space) of t
        nonlocal den
        if isinstance(t, int) and 0 <= t < k:
            return t, t, spaces[t]
        if isinstance(t, Tensor) and len(t.spaces) == 1 and t.field == field:
            vec, d = _lift_vector(t)
            den *= d
            vals.append(vec)
            return len(vals) - 1, -1, t.spaces[0]
        op, *args = t if isinstance(t, tuple) and t else (None,)
        if isinstance(op, LinearMap) and len(args) == 1:
            slot, depth, space = compile_term(args[0])
            if (space, 1, field) == (op.domain, len(op.codomain), op.field):
                cols, d = _lift_map(op)
                return add(depth, op.codomain[0], d, slot, cols, None)
        elif isinstance(op, LegMul) and len(args) > 1:
            rows, d = op.lifted()
            slot, depth, space = compile_term(args[0])
            for arg in args[1:]:
                right, rdepth, rspace = compile_term(arg)
                if (space, rspace, field) != (op.left, op.right, op.field):
                    break
                slot, depth, space = add(max(depth, rdepth), op.out, d, slot,
                                         rows, right)
            else:
                return slot, depth, space
        raise ValueError("%r is not a Sweedler term on its spaces" % (t,))

    terms = [compile_term(t) for t in legs]
    return vals, plans, [t[0] for t in terms], tuple(t[2] for t in terms), den


def sweedler(source: Tensor, legs: Sequence) -> Tensor:
    """The Sweedler sum of c t_0 (x) t_1 (x) ... over the terms
    c e_{i_0} (x) e_{i_1} (x) ... of source, a term t_r per entry of legs:
    an int r is e_{i_r} (source leg r, carried); a one-leg Tensor is
    itself; (f, t) is the LinearMap f, with one codomain leg, applied to
    the term t; (m, t_1, t_2, ...) is the product of the terms, left to
    right, by the LegMul m. So p_R = sum x1 (x) x2 beta S(x3) is
    sweedler(phi_inv, (0, (m, 1, beta, (S, 2)))); a factor with several
    legs, such as Delta(h), enters as legs of source. With m a
    flat_pairing, (m, t_1, t_2) is t_1 (x) t_2 in one flattened leg: the
    coaction a (x) h -> sum a X1 (x) h_1 X2 (x) h_2 X3 of A (x) H is
    from_graph of sweedler(id_A.graph() (x) Delta.graph() (x) Phi_rho,
    ((P, 0, 2), (P, (mA, 1, 5), (mH, 3, 6)), (mH, 4, 7))), P pairing A
    with H, leg 0 the input a (x) h. The sum runs over
    lifted tables (_sweedler_plan) and the source nested by legs
    (_nest): each partial product of the first p factors is formed once
    per tuple of the source indices it reads, a zero skips the terms
    below it, and each output entry is lowered once. An empty source
    gives zero; a term that does not fit its space, ValueError."""
    field, acc = source.field, {}
    vals, plans, roots, spaces, den = _sweedler_plan(field, source.spaces,
                                                     legs)
    last = len(plans) - 2

    def walk(r, node):
        for i, sub in node.items():
            if r >= 0:
                vals[r] = ((i, 1),)
            for slot, a, b, c in plans[r]:
                v = _pairs(_contract(vals[a], b) if c is None
                           else _mul(b, vals[a], vals[c]))
                if not v:
                    break
                vals[slot] = v
            else:
                if r < last:
                    walk(r + 1, sub)
                    continue
                terms = [((), sub[()])]
                for slot in roots:
                    terms = [(idx + (k,), n * s) for idx, n in terms
                             for k, s in vals[slot]]
                for idx, n in terms:
                    acc[idx] = acc.get(idx, 0) + n

    num, d = field.lift(source.data)
    if num:
        walk(-1, {None: _nest(num, last + 1)})
    return Tensor(spaces, field.lower(acc, den * d), field)


def _per_input(source: Tensor, *legs) -> LinearMap:
    """The map e_i -> the slice at i of sweedler(source, (0,) + legs):
    source leg 0 is the input, carried."""
    return LinearMap.from_graph(sweedler(source, (0,) + legs))


def _grid(field: Field, *bases: Basis) -> Tensor:
    """The sum of e_x over the basis vectors e_x of the tensor product of
    bases: as a sweedler source, one term per tuple of basis inputs,
    each read through its legs as often as a formula needs it."""
    one = field.one()
    return Tensor(bases, {idx: one for idx in _flat_keys(
        *(b.dim for b in bases))}, field)


class FinAlgebra(LegMul):
    """A finite dimensional unital algebra given by structure constants:
    the LegMul that pairs basis with basis into basis, table its
    multiplication, plus a unit, a one-leg Tensor. So an algebra goes
    straight into mul_legs, sweedler, sandwich and check_same. Build one
    with this constructor, never with the inherited from_graph.
    Associativity and unit laws are checked by
    is_associative/unit_laws_hold rather than enforced, because some
    carriers built here (for instance the convolution algebra of a dual)
    are deliberately nonassociative.
    """

    def __init__(self, basis: Basis, table, unit: Tensor, field: Field = QQ):
        if unit.spaces != (basis,):
            raise ValueError("unit shape mismatch")
        super().__init__(basis, basis, basis, table, field)
        self.unit = unit

    @property
    def basis(self) -> Basis:
        return self.out

    @property
    def dim(self) -> int:
        return self.out.dim

    def e(self, i: int) -> Tensor:
        return Tensor.basis_vector(self.out, i, self.field)

    def mul(self, x: Tensor, y: Tensor) -> Tensor:
        return mul_legs((self,), x, y)

    def mulc(self, *xs: Tensor) -> Tensor:
        """Chained product of one-leg tensors, left to right."""
        acc = xs[0]
        for x in xs[1:]:
            acc = mul_legs((self,), acc, x)
        return acc

    def opposite(self) -> "FinAlgebra":
        op_basis = Basis(self.basis.labels, self.basis.name + "^op")
        table = {(j, i): vec for (i, j), vec in self.table.items()}
        unit = Tensor((op_basis,), dict(self.unit.data), self.field)
        return FinAlgebra(op_basis, table, unit, self.field)

    def is_associative(self) -> Optional[Tuple[int, int, int]]:
        """None if associative, else the first failing index triple."""
        bad = first_mismatch(*right_action_assoc(self, self))
        return None if bad is None else bad[0]

    def unit_laws_hold(self) -> Optional[int]:
        """None if the unit is two-sided, else the first failing index."""
        bad = [b[0][0] for b in (
            first_mismatch(*left_action_unit(self, self.unit)),
            first_mismatch(*right_action_unit(self, self.unit)))
            if b is not None]
        return min(bad) if bad else None

    def __eq__(self, other):
        if not isinstance(other, FinAlgebra):
            return NotImplemented
        return (
            self.basis == other.basis
            and self.table == other.table
            and self.unit == other.unit
        )


# ----------------------------------------------------------------------
# the two sides of an axiom, as tables on its basis inputs


class InputTable:
    """Vectors on the basis inputs (i_1, ..., i_k), i_r in range(dims[r]),
    over the output spaces: the form in which check_same compares the two
    sides of an identity. part(i) holds the vectors with i_1 = i, as one
    dict of nonzero scalars keyed by the inputs and then the output
    multi-index; a table is only formed one leading input at a time. A
    table read from a structure map keeps that map's sparse rows as
    source, so two equal maps compare equal without a slice formed."""

    __slots__ = ("dims", "spaces", "field", "part", "source")

    def __init__(self, dims, spaces, field: Field, fn, source=None):
        self.dims, self.spaces = tuple(dims), tuple(spaces)
        self.field, self.part, self.source = field, fn, source

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.dims + tuple(b.dim for b in self.spaces)


def as_table(f, inputs: int = 0) -> InputTable:
    """A LegMul on its pairs (i, j), a LinearMap on its domain indices,
    a Tensor on its first `inputs` legs (by default none: the tensor is
    the one vector of the table), an InputTable as it is."""
    if isinstance(f, InputTable):
        return f
    if isinstance(f, Tensor):
        parts: Dict = {}
        for key, c in f.data.items():
            parts.setdefault(key[0] if inputs else None, {})[key] = c
        return InputTable([b.dim for b in f.spaces[:inputs]],
                          f.spaces[inputs:], f.field,
                          lambda i: parts.get(i, {}), f.data)
    if isinstance(f, LegMul):
        table, nr = f.table, f.right.dim
        return InputTable((f.left.dim, nr), (f.out,), f.field, lambda i: {
            (i, j, k): c for j in range(nr)
            for k, c in table.get((i, j), {}).items()}, table)
    return InputTable((f.domain.dim,), f.codomain, f.field, lambda m: {
        (m,) + idx: c for idx, c in f.cols.get(m, {}).items()}, f.cols)


def first_mismatch(lhs: InputTable, rhs: InputTable):
    """None if two tables of one shape agree, else (inputs, index, lhs
    value, rhs value) at the first key, in lexicographic order, where
    they differ. A table with no inputs is its one part, part(None)."""
    if lhs.source is not None and lhs.source == rhs.source:
        return None
    k = len(lhs.dims)
    for i in range(lhs.dims[0]) if k else (None,):
        a, b = lhs.part(i), rhs.part(i)
        if a != b:
            key = min(key for key in a.keys() | b.keys()
                      if a.get(key) != b.get(key))
            zero = lhs.field.zero()
            return key[:k], key[k:], a.get(key, zero), b.get(key, zero)
    return None


def _side(dims, spaces, field: Field, den: int, add) -> InputTable:
    """The table whose slice i is what add(acc, i, *rest) adds into acc
    for every rest: lifted numerators over den."""
    def fn(i):
        acc = {}
        for rest in itertools.product(*[range(d) for d in dims[1:]]):
            add(acc, i, *rest)
        return field.lower(acc, den)
    return InputTable(dims, spaces, field, fn)


def _pair(acc, inputs, get, xs, ys) -> None:
    """Add into acc, under inputs + (k,), the pairing read by get of xs
    and ys, (index, numerator) pairs, at output index k."""
    for i, cx in xs:
        for j, cy in ys:
            for k, s in get((i, j), ()):
                key = inputs + (k,)
                acc[key] = acc.get(key, 0) + cx * cy * s


def _apply(acc, inputs, get, xs, leg: int) -> None:
    """Add into acc, under inputs, the lifted map read by get applied to
    leg `leg` of xs, (multi-index, numerator) pairs."""
    for idx, n in xs:
        for mid, s in get(idx[leg], ()):
            key = inputs + idx[:leg] + mid + idx[leg + 1:]
            acc[key] = acc.get(key, 0) + n * s


def _times(rows, vec, k, left=False):
    """The sparse vector vec times e_k (e_k times vec when left) by the
    lifted structure constants rows; vec is a sequence of (index,
    numerator) pairs, and so is each row."""
    out: Dict[int, int] = {}
    for i, c in vec:
        for r, cr in rows.get((k, i) if left else (i, k), ()):
            out[r] = out.get(r, 0) + c * cr
    return out


def _chain(rows, vec, idxs) -> tuple:
    """vec e_idxs[0] e_idxs[1] ... by the lifted structure constants
    rows, multiplied left to right, as (index, numerator) pairs."""
    for i in idxs:
        vec = _pairs(_times(rows, vec, i))
    return vec


def _pairs(vec: Dict) -> tuple:
    """The nonzero entries of a dict of int numerators, as pairs."""
    return tuple((k, c) for k, c in vec.items() if c)


def _contract(w, table) -> Dict:
    """The sum of c table[key] over the (key, c) pairs of w; each
    table[key] is a sequence of (index, numerator) pairs. With table a
    lifted map (_lift_map), this applies the map to the vector w."""
    out: Dict = {}
    for key, c in w:
        for r, cr in table.get(key, ()):
            out[r] = out.get(r, 0) + c * cr
    return out


def _mul(table, x, y) -> Dict:
    """x y by the lifted structure constants table: the sum of cx cy
    table[(i, j)] over the (i, cx) pairs of x and the (j, cy) pairs of
    y."""
    out: Dict = {}
    for i, cx in x:
        for j, cy in y:
            c = cx * cy
            for r, cr in table.get((i, j), ()):
                out[r] = out.get(r, 0) + c * cr
    return out


def _hit_products(action: LegMul, conv: LegMul, basis: Basis):
    """(product, den) for H (x) H^op acting on a dual space by action
    (DualView.hits, or C*'s action) and the convolution conv of that
    space, basis H's: product(u1, s, v1, u2, t, v2), memoized, is
    (u1 -> e^s <- v1)(u2 -> e^t <- v2) as (index, numerator) pairs over
    den. The rows of action are read at the flat index of u (x) v that
    flat_pairing writes."""
    (hits, dh), (mult, dc) = action.lifted(), conv.lifted()
    flat = {key: k for key, row in flat_pairing(
        basis, basis, action.left, action.field).table.items() for k in row}

    @cache
    def product(u1, s, v1, u2, t, v2):
        return _pairs(_mul(mult, hits.get((flat[u1, v1], s), ()),
                           hits.get((flat[u2, v2], t), ())))

    return product, dh * dh * dc


def _lowered(field: Field, acc, den: int) -> Dict:
    """A table of rows of int numerators over den (key -> {index:
    numerator}) lowered row by row, the rows that lower to zero left
    out."""
    table = {}
    for key, vec in acc.items():
        vec = field.lower(vec, den)
        if vec:
            table[key] = vec
    return table


def _restrict(action: LegMul, xs: Sequence[Tensor], left: bool = False) -> Dict:
    """The table of e_m x_j for the right action `action` on every basis
    vector e_m of its module, keyed (m, j); for a left action (left),
    the table of x_j e_m keyed (j, m), as the action's own table is. So
    the module is restricted along the elements xs of the acting
    algebra. Leg 0 of each x_j is in the acting algebra; further legs
    are carried after the module leg, and then the vector at (m, j) is
    keyed by (k,) + their indices rather than by the module index k.
    The sum runs over the lifted action table and the x_j, lifted
    together, and each entry is lowered once."""
    field = action.field
    if any(x.spaces[0] != (action.left if left else action.right)
           for x in xs):
        raise ValueError("leg 0 of each element must be the acting algebra")
    rows, da = action.lifted()
    num, dx = field.lift({(j,) + idx: c for j, x in enumerate(xs)
                          for idx, c in x.data.items()})
    by_h: Dict[int, list] = {}
    for (j, h, *rest), n in num.items():
        by_h.setdefault(h, []).append((j, tuple(rest), n))
    one_leg = all(len(x.spaces) == 1 for x in xs)
    acc: Dict[Tuple[int, int], Dict] = {}
    for (i, i2), row in rows.items():
        m, h = (i2, i) if left else (i, i2)
        for j, rest, n in by_h.get(h, ()):
            vec = acc.setdefault((j, m) if left else (m, j), {})
            for k, s in row:
                idx = k if one_leg else (k,) + rest
                vec[idx] = vec.get(idx, 0) + n * s
    return _lowered(field, acc, da * dx)


def _lift_map(f: LinearMap):
    """(cols, den): a map with one codomain leg lifted (_lift_rows),
    cols[k] the image of e_k as (index, numerator) pairs."""
    rows, den = _lift_rows(f.field, f.cols)
    return {k: tuple((r, n) for (r,), n in row)
            for k, row in rows.items()}, den


def _transpose(table) -> Dict:
    """A table of sparse rows (key -> {index: value}) regrouped by index:
    index -> {key: value}. The transpose of a comultiplication is the
    convolution table of the dual."""
    out: Dict = {}
    for key, vec in table.items():
        for k, c in vec.items():
            out.setdefault(k, {})[key] = c
    return out


def _assoc_sides(outer1: LegMul, inner1: LegMul, outer2: LegMul,
                 inner2: LegMul):
    """(x.y).z, by inner1 and then outer1, and x.(y.z), by inner2 and
    then outer2, on inputs (x, y, z): each side over the product of its
    two pairings' denominators."""
    (O1, do1), (I1, di1), (O2, do2), (I2, di2) = (
        f.lifted() for f in (outer1, inner1, outer2, inner2))
    dims = (inner1.left.dim, inner1.right.dim, outer1.right.dim)
    spaces, field = (outer1.out,), outer1.field
    return (_side(dims, spaces, field, di1 * do1,
                  lambda acc, x, y, z: _pair(acc, (x, y, z), O1.get,
                                             I1.get((x, y), ()), ((z, 1),))),
            _side(dims, spaces, field, do2 * di2,
                  lambda acc, x, y, z: _pair(acc, (x, y, z), O2.get,
                                             ((x, 1),), I2.get((y, z), ()))))


def left_action_assoc(act: LegMul, mult: LegMul):
    """(g h).m and g.(h.m) on inputs (g, h, m); mult multiplies the
    algebra that acts by act."""
    return _assoc_sides(act, mult, act, act)


def right_action_assoc(act: LegMul, mult: LegMul):
    """m.(a b) and (m.a).b on inputs (m, a, b); mult multiplies the
    algebra that acts by act."""
    return _assoc_sides(act, act, act, mult)[::-1]


def actions_commute(left: LegMul, right: LegMul):
    """(h.m).a and h.(m.a) on inputs (h, m, a)."""
    return _assoc_sides(right, left, left, right)


def quasi_associative(act: LegMul, mult: LegMul, lact: LegMul,
                      qact: LegMul, phi: Tensor):
    """(m.a).b and sum (X1.m)((X2.a)(X3.b)) on inputs (m, a, b), with
    Phi = sum X1 (x) X2 (x) X3: the right action act of the algebra that
    mult multiplies is associative up to Phi, which acts on the module by
    lact and on the algebra by qact. W[X1](a, b), the sum of c (X2.a)(X3.b)
    over the terms c X1 (x) X2 (x) X3 of Phi with one X1, is formed once
    per (a, b) and paired with X1.m."""
    (A, da), (P, dp), (L, dl), (Q, dq) = (
        f.lifted() for f in (act, mult, lact, qact))
    X, dx = phi.field.lift(phi.data)

    @cache
    def weights(a, b):
        w: Dict = {}
        for (x1, x2, x3), c in X.items():
            wx = w.setdefault(x1, {})
            xy = _mul(P, Q.get((x2, a), ()), Q.get((x3, b), ()))
            for j, n in xy.items():
                wx[j] = wx.get(j, 0) + c * n
        return [(x1, _pairs(wx)) for x1, wx in w.items()]

    def rhs(acc, m, a, b):
        for x1, w in weights(a, b):
            _pair(acc, (m, a, b), A.get, L.get((x1, m), ()), w)

    dims = (act.left.dim, mult.left.dim, mult.right.dim)
    return (right_action_assoc(act, mult)[1],
            _side(dims, (act.out,), act.field, dx * dl * dq * dq * dp * da,
                  rhs))


def equivariant_action(lact: LegMul, act: LegMul, qact: LegMul,
                       comul: LinearMap):
    """h.(m.a) and sum (h1.m)(h2.a) on inputs (h, m, a), with comul
    splitting h: the right action act is H-linear, H acting on the
    module by lact and on the algebra that acts by qact."""
    (L, dl), (R, dr), (Q, dq) = lact.lifted(), act.lifted(), qact.lifted()
    D, dd = _lift_rows(comul.field, comul.cols)

    def rhs(acc, h, m, a):
        for (h1, h2), c in D.get(h, ()):
            moved = [(k, c * s) for k, s in L.get((h1, m), ())]
            _pair(acc, (h, m, a), R.get, moved, Q.get((h2, a), ()))

    dims = (lact.left.dim, lact.right.dim, act.right.dim)
    return (actions_commute(lact, act)[1],
            _side(dims, (act.out,), act.field, dd * dl * dq * dr, rhs))


def _lift_vector(t: Tensor):
    """A one-leg tensor lifted: ((index, numerator), ...) and den."""
    num, den = t.field.lift(t.data)
    return tuple((i, n) for (i,), n in num.items()), den


def left_action_unit(act: LegMul, unit: Tensor):
    """1.m and m on inputs (m,), for the unit of the algebra acting."""
    (A, da), (U, du) = act.lifted(), _lift_vector(unit)
    return (_side((act.right.dim,), (act.out,), act.field, du * da,
                  lambda acc, m: _pair(acc, (m,), A.get, U, ((m, 1),))),
            as_table(LinearMap.identity(act.right, act.field)))


def right_action_unit(act: LegMul, unit: Tensor):
    """m.1 and m on inputs (m,), for the unit of the algebra acting."""
    (A, da), (U, du) = act.lifted(), _lift_vector(unit)
    return (_side((act.left.dim,), (act.out,), act.field, da * du,
                  lambda acc, m: _pair(acc, (m,), A.get, ((m, 1),), U)),
            as_table(LinearMap.identity(act.left, act.field)))


def counit_identity(f: LinearMap, counit: LinearMap, leg: int):
    """counit applied to leg `leg` of f(m), and m, on inputs (m,)."""
    (F, df), (E, de) = (_lift_rows(f.field, g.cols) for g in (f, counit))
    return (_side((f.domain.dim,), f.codomain[:leg] + f.codomain[leg + 1:],
                  f.field, df * de, lambda acc, m: _apply(
                      acc, (m,), E.get, F.get(m, ()), leg)),
            as_table(LinearMap.identity(f.domain, f.field)))


def multiplicative(f: LinearMap, mult: LegMul, legs: Sequence[LegMul],
                   left: Optional[LinearMap] = None,
                   right: Optional[LinearMap] = None):
    """f(x y) and left(x) right(y) on inputs (i, j), x = e_i and y = e_j:
    mult is the product or action x y on the domain of f, legs[r]
    multiplies leg r of the codomain, and left and right default to f
    (an identity is LinearMap.identity). So f is an algebra map
    (counit-hom, comul-hom, coact-hom), an algebra map into the opposite
    algebra (antipode-antihom, legs the opposite's multiplication), a
    coaction or comultiplication that is a module map (left-colinear,
    right-colinear, rmc2, bmc2-left, bmc2-right, dhm3, tstc3, tstc3b), a
    counit that is one (rmc3, legs = ()), or an H- or A-linear
    isomorphism (iso-h-linear, iso-a-linear)."""
    (F, df), (P, dp) = _lift_rows(f.field, f.cols), mult.lifted()
    (Lf, dlf), (Rf, drf) = (_lift_rows(f.field, (g or f).cols)
                            for g in (left, right))
    Lf, Rf = ({i: dict(row) for i, row in rows.items()} for rows in (Lf, Rf))
    gets, dl = [], 1
    for leg in legs:
        rows, d = leg.lifted()
        gets.append(rows.get)
        dl *= d

    def lhs(acc, i, j):
        xs = [((k,), n) for k, n in P.get((i, j), ())]
        _apply(acc, (i, j), F.get, xs, 0)

    def rhs(acc, i, j):
        x, y = Lf.get(i, {}), Rf.get(j, {})
        part = {}
        _leg_sum(part, gets, x, y)
        for idx, n in part.items():
            acc[(i, j) + idx] = n

    dims = (mult.left.dim, mult.right.dim)
    return (_side(dims, f.codomain, f.field, dp * df, lhs),
            _side(dims, f.codomain, f.field, dlf * drf * dl, rhs))


def tensor_unit(algebras: Sequence[FinAlgebra]) -> Tensor:
    out = Tensor.scalar(algebras[0].field.one(), algebras[0].field)
    for a in algebras:
        out = out.tensor(a.unit)
    return out


def invert_in_tensor_algebra(algebras: Sequence[FinAlgebra], x: Tensor) -> Optional[Tensor]:
    """Two-sided inverse of x in the tensor product algebra, or None.

    Solves the left-multiplication system exactly, then verifies both
    x * y = 1 and y * x = 1 before returning y.
    """
    field = x.field
    spaces = tuple(a.basis for a in algebras)
    keys = _flat_keys(*(b.dim for b in spaces))
    flat = {key: k for k, key in enumerate(keys)}
    unit = tensor_unit(algebras)
    # rows of the system:  sum_b M[a, b] y_b = unit_a, M[:, b] = x * e_b,
    # a and b flat indices
    rows = [dict() for _ in keys]
    for b, key in enumerate(keys):
        col = mul_legs(algebras, x, Tensor(spaces, {key: field.one()}, field))
        for idx, c in col.data.items():
            rows[flat[idx]][b] = c
    rhs = [unit.data.get(key, field.zero()) for key in keys]
    sol = solve_linear(rows, rhs, field)
    if sol is None:
        return None
    y = Tensor(spaces, {keys[b]: c for b, c in sol.items()}, field)
    return y if is_inverse(algebras, x, y) else None


def is_inverse(algebras: Sequence[FinAlgebra], x: Tensor, y: Tensor) -> bool:
    """x * y = 1 = y * x in the tensor product algebra."""
    unit = tensor_unit(algebras)
    return (mul_legs(algebras, x, y) == unit
            and mul_legs(algebras, y, x) == unit)


def invert_linear_map(f: LinearMap) -> Optional[LinearMap]:
    """Inverse of an endomorphism with a single codomain leg, or None.

    The rows of [M | I] enter one RowSpan. M is singular exactly when a
    pivot falls in the I block; otherwise the reduced rows are
    [I | M^{-1}].
    """
    if f.codomain != (f.domain,):
        raise ValueError("only endomorphisms can be inverted")
    dim, field = f.domain.dim, f.field
    rows = [{dim + a: field.one()} for a in range(dim)]
    for b, col in f.cols.items():
        for (a,), c in col.items():
            rows[a][b] = c
    span = RowSpan(field)
    for row in rows:
        span.add(row)
    if max(span.position, default=-1) >= dim:
        return None
    cols = {j: {} for j in range(dim)}
    for a in reversed(span.position):
        for col, c in span.rows[span.position[a]].items():
            if col >= dim:
                cols[col - dim][(a,)] = c
    return LinearMap(f.domain, (f.domain,), cols, field)
