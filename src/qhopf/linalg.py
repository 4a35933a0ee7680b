"""Exact sparse linear algebra over a Field, with one eliminator.

RowSpan is the package's only elimination: an incrementally built
reduced row echelon span. Everything exact that eliminates reads its
answer off one: solve_linear adds each equation with its right side in
a last column, algebra.invert_linear_map adds the rows of [M | I], and
hopfmod.cyclic_right_submodule spans a seeded cyclic module.

Vectors and matrix rows are dicts mapping column index to a scalar; a
zero entry is dropped where a vector enters, so it is never read as a
pivot. Everything is exact; a solve is only reported as a solution
after it has been substituted back into the system.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .fields import Field, QQ

Vec = Dict[int, object]


def vec_sub_scaled(target: Vec, src: Vec, c) -> None:
    """target -= c * src, in place, dropping zeros."""
    if not c:
        return
    for col, v in src.items():
        s = target.get(col)
        s = -(c * v) if s is None else s - c * v
        if s:
            target[col] = s
        elif col in target:
            del target[col]


class RowSpan:
    """An incrementally built reduced row echelon span. Its rows are kept
    fully reduced with unit pivots, so membership testing is exact and a
    vector's coefficient on row j is its entry at row j's pivot."""

    def __init__(self, field: Field = QQ):
        self.field = field
        self.rows: List[Vec] = []
        self.position: Dict[int, int] = {}  # pivot -> index of its row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _read(self, vec: Vec):
        """({row index: vec's nonzero entry at the row's pivot}, vec less
        those multiples of the rows); no row moves another's pivot entry."""
        residual = {col: c for col, c in vec.items() if c}
        coords = {self.position[col]: c for col, c in residual.items()
                  if col in self.position}
        for j, c in coords.items():
            vec_sub_scaled(residual, self.rows[j], c)
        return coords, residual

    def reduce(self, vec: Vec) -> Vec:
        """Residual of vec modulo the span (vec is not modified)."""
        return self._read(vec)[1]

    def coordinates(self, vec: Vec) -> Optional[Vec]:
        """{row index: nonzero coefficient} of vec against the span rows,
        or None if vec is not in the span."""
        coords, residual = self._read(vec)
        return None if residual else coords

    def add(self, vec: Vec) -> bool:
        """Add a vector to the span. Returns True if the rank grew."""
        residual = self.reduce(vec)
        if not residual:
            return False
        piv = min(residual)
        inv = self.field.one() / residual[piv]
        row = {col: v * inv for col, v in residual.items()}
        # back-substitute into existing rows to stay fully reduced
        for other in self.rows:
            c = other.get(piv)
            if c:
                vec_sub_scaled(other, row, c)
        self.position[piv] = len(self.rows)
        self.rows.append(row)
        return True


def solve_linear(rows: List[Vec], rhs: List[object], field: Field = QQ) -> Optional[Vec]:
    """Solve the sparse system rows[i] . y = rhs[i].

    Each row enters one RowSpan with its right side in a column after
    every unknown, so that column is a pivot only when the system is
    inconsistent (None, at the first such row). Otherwise each pivot
    unknown is its row's entry in that column and free unknowns are
    zero. The returned solution has been verified by substitution into
    every equation.
    """
    b_col = 1 + max((col for row in rows for col in row), default=-1)
    span = RowSpan(field)
    for row, b in zip(rows, rhs):
        if span.add({**row, b_col: b}) and b_col in span.position:
            return None
    # pivot unknowns, last pivot first (the order of back substitution)
    solution: Vec = {}
    for piv in reversed(span.position):
        val = span.rows[span.position[piv]].get(b_col)
        if val:
            solution[piv] = val
    # substitution check against the original system
    for row, b in zip(rows, rhs):
        acc = field.zero()
        for col, c in row.items():
            y = solution.get(col)
            if y:
                acc = acc + c * y
        if acc != b:
            raise ArithmeticError("substitution check failed after elimination")
    return solution
