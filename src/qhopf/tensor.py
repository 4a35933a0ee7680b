"""Sparse exact tensors over products of finite bases.

A Tensor is an element of V_1 (x) ... (x) V_k, stored as a map from
multi-indices (one index per tensor leg) to nonzero scalars. Equality is
exact coefficient equality; there is no tolerance anywhere.

A LinearMap sends one leg to zero or more legs (a counit drops its leg, a
comultiplication splits it in two), given by sparse columns.
"""

from __future__ import annotations

from typing import Sequence

from .fields import Field, QQ


class Basis:
    """An ordered basis of a finite dimensional vector space."""

    __slots__ = ("labels", "name", "_index")

    def __init__(self, labels: Sequence[str], name: str = ""):
        self.labels = tuple(labels)
        self.name = name or "V%d" % len(self.labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate basis labels in %s" % self.name)
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self._index[label]

    def dual(self) -> "Basis":
        return Basis(tuple(lab + "*" for lab in self.labels), self.name + "*")

    def __eq__(self, other):
        return (
            isinstance(other, Basis)
            and self.labels == other.labels
            and self.name == other.name
        )

    def __hash__(self):
        return hash((self.labels, self.name))

    def __repr__(self):
        return "Basis(%s, dim=%d)" % (self.name, self.dim)


def product_basis(*bases: Basis) -> Basis:
    """Basis of a tensor product, labels joined row-major."""
    import itertools

    labels = tuple(
        "|".join(parts) for parts in itertools.product(*(b.labels for b in bases))
    )
    name = "(x)".join(b.name for b in bases)
    return Basis(labels, name)


class Tensor:
    """Sparse element of a tensor product of based spaces."""

    __slots__ = ("spaces", "data", "field")

    def __init__(self, spaces: Sequence[Basis], data=None, field: Field = QQ):
        self.spaces = tuple(spaces)
        self.field = field
        self.data = {}
        if data:
            for idx, c in data.items():
                if c:
                    self.data[idx] = c

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, spaces: Sequence[Basis], field: Field = QQ) -> "Tensor":
        return cls(spaces, None, field)

    @classmethod
    def basis_vector(cls, basis: Basis, i: int, field: Field = QQ) -> "Tensor":
        return cls((basis,), {(i,): field.one()}, field)

    @classmethod
    def from_sparse(cls, basis: Basis, vec, field: Field = QQ) -> "Tensor":
        """The one-leg tensor with coordinates vec (index -> scalar)."""
        return cls((basis,), {(i,): c for i, c in vec.items()}, field)

    @classmethod
    def scalar(cls, c, field: Field = QQ) -> "Tensor":
        """A zero-leg tensor: an element of the ground field."""
        return cls((), {(): c} if c else None, field)

    # -- ring-ish operations ------------------------------------------

    def _check_compatible(self, other: "Tensor"):
        if self.spaces != other.spaces:
            raise ValueError(
                "tensor shape mismatch: %r vs %r" % (self.spaces, other.spaces)
            )
        if self.field != other.field:
            raise ValueError("field mismatch")

    def __add__(self, other: "Tensor") -> "Tensor":
        out = Tensor.zero(self.spaces, self.field)
        out.data = dict(self.data)
        out.accumulate(other)
        return out

    def accumulate(self, other: "Tensor") -> None:
        """Add other into self in place."""
        self._check_compatible(other)
        data = self.data
        for idx, c in other.data.items():
            s = data.get(idx)
            if s is None:
                data[idx] = c
            else:
                s = s + c
                if s:
                    data[idx] = s
                else:
                    del data[idx]

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self + (-other)

    def __neg__(self) -> "Tensor":
        out = Tensor.zero(self.spaces, self.field)
        out.data = {idx: -c for idx, c in self.data.items()}
        return out

    def scale(self, c) -> "Tensor":
        out = Tensor.zero(self.spaces, self.field)
        if c:
            out.data = {idx: v * c for idx, v in self.data.items()}
        return out

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.spaces == other.spaces and self.data == other.data

    def __hash__(self):
        return hash((self.spaces, frozenset(self.data.items())))

    def coeff(self, idx: Sequence[int]):
        return self.data.get(tuple(idx), self.field.zero())

    def terms(self):
        """Terms in lexicographic multi-index order."""
        return sorted(self.data.items())

    # -- structural operations -----------------------------------------

    def tensor(self, other: "Tensor") -> "Tensor":
        if self.field != other.field:
            raise ValueError("field mismatch")
        out = Tensor.zero(self.spaces + other.spaces, self.field)
        for i1, c1 in self.data.items():
            for i2, c2 in other.data.items():
                out.data[i1 + i2] = c1 * c2
        return out

    def permute(self, order: Sequence[int]) -> "Tensor":
        """Reorder legs: leg j of the result is leg order[j] of self."""
        if sorted(order) != list(range(len(self.spaces))):
            raise ValueError("bad permutation %r" % (order,))
        spaces = tuple(self.spaces[j] for j in order)
        out = Tensor.zero(spaces, self.field)
        for idx, c in self.data.items():
            out.data[tuple(idx[j] for j in order)] = c
        return out

    def map_leg(self, leg: int, f: "LinearMap") -> "Tensor":
        """Apply a linear map to one leg; the leg is replaced by the
        map's codomain legs (possibly none)."""
        if self.spaces[leg] != f.domain:
            raise ValueError(
                "map domain %r does not match leg %d (%r)"
                % (f.domain, leg, self.spaces[leg])
            )
        spaces = self.spaces[:leg] + f.codomain + self.spaces[leg + 1 :]
        out = Tensor.zero(spaces, self.field)
        data = out.data
        for idx, c in self.data.items():
            col = f.cols.get(idx[leg])
            if not col:
                continue
            head, tail = idx[:leg], idx[leg + 1 :]
            for mid, k in col.items():
                new = head + mid + tail
                s = data.get(new)
                s = c * k if s is None else s + c * k
                if s:
                    data[new] = s
                elif new in data:
                    del data[new]
        return out

    def __repr__(self):
        if not self.data:
            return "Tensor(0)"
        parts = []
        for idx, c in self.terms():
            label = "(x)".join(self.spaces[i].labels[j] for i, j in enumerate(idx))
            parts.append("%s*%s" % (c, label))
        return "Tensor(" + " + ".join(parts) + ")"


class LinearMap:
    """A linear map from one based space to a tensor product of based
    spaces, stored as sparse columns: cols[i] maps codomain multi-indices
    to scalars and describes the image of the i-th domain vector."""

    __slots__ = ("domain", "codomain", "cols", "field")

    def __init__(self, domain: Basis, codomain: Sequence[Basis], cols, field: Field = QQ):
        self.domain = domain
        self.codomain = tuple(codomain)
        self.field = field
        self.cols = {}
        for i, col in cols.items():
            clean = {tuple(idx): c for idx, c in col.items() if c}
            if clean:
                self.cols[i] = clean

    @classmethod
    def identity(cls, basis: Basis, field: Field = QQ):
        one = field.one()
        return cls(basis, (basis,), {i: {(i,): one} for i in range(basis.dim)}, field)

    def __call__(self, t: Tensor, leg: int = 0) -> Tensor:
        return t.map_leg(leg, self)

    @classmethod
    def from_graph(cls, t: Tensor) -> "LinearMap":
        """The map e_m -> the slice of t at m on leg 0 (graph inverted)."""
        cols = {}
        for idx, c in t.data.items():
            cols.setdefault(idx[0], {})[idx[1:]] = c
        return cls(t.spaces[0], t.spaces[1:], cols, t.field)

    def graph(self) -> Tensor:
        """The sum of e_m (x) f(e_m) over the domain: leg 0 the input."""
        return Tensor((self.domain,) + self.codomain, {
            (m,) + idx: c for m, col in self.cols.items()
            for idx, c in col.items()}, self.field)

    def column(self, i: int) -> Tensor:
        return Tensor(self.codomain, dict(self.cols.get(i, {})), self.field)

    def compose(self, first: "LinearMap", leg: int = 0) -> "LinearMap":
        """self applied to codomain leg `leg` of every column of first,
        its codomain legs in place of that leg: self after first when
        first has one codomain leg, (rho (x) id) rho is rho.compose(rho)
        and (id (x) Delta) rho is Delta.compose(rho, 1)."""
        if first.codomain[leg] != self.domain:
            raise ValueError("map domain %r does not match codomain leg %d"
                             % (self.domain, leg))
        cols = {m: first.column(m).map_leg(leg, self).data
                for m in first.cols}
        return LinearMap(first.domain, first.codomain[:leg] + self.codomain +
                         first.codomain[leg + 1:], cols, self.field)

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.cols == other.cols
        )

    def __repr__(self):
        return "LinearMap(%s -> %s)" % (
            self.domain.name,
            "(x)".join(b.name for b in self.codomain) or "k",
        )
