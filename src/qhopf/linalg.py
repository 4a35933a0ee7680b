"""Exact sparse linear algebra: Gaussian elimination over a Field.

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

    Returns a solution vector (free variables set to zero) or None if the
    system is inconsistent. The returned solution has been verified by
    substitution into every equation.
    """
    work = [{col: c for col, c in r.items() if c} for r in rows]
    aug = list(rhs)
    pivot_of_row: List[int] = []
    used_rows: List[int] = []
    for i in range(len(work)):
        row, b = work[i], aug[i]
        for j, piv in zip(used_rows, pivot_of_row):
            c = row.get(piv)
            if c:
                vec_sub_scaled(row, work[j], c)
                b = b - c * aug[j]
        if not row:
            if b:
                return None
            continue
        piv = min(row)
        inv = field.one() / row[piv]
        work[i] = {col: v * inv for col, v in row.items()}
        aug[i] = b * inv
        used_rows.append(i)
        pivot_of_row.append(piv)
    # back substitution: read off pivot variables, free variables are zero
    solution: Vec = {}
    for j, piv in reversed(list(zip(used_rows, pivot_of_row))):
        val = aug[j]
        for col, c in work[j].items():
            if col != piv and col in solution:
                val = val - c * solution[col]
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


def invert_matrix_map(apply_fn, dim: int, field: Field = QQ):
    """Invert a linear endomorphism given by apply_fn(j) -> column Vec.

    Returns a list of columns of the inverse (each a Vec), or None if the
    map is singular.
    """
    # rows[a][b] = coefficient a of image of basis vector b
    rows: List[Vec] = [{} for _ in range(dim)]
    for b in range(dim):
        for a, c in apply_fn(b).items():
            rows[a][b] = c
    columns = []
    for target in range(dim):
        rhs = [field.one() if a == target else field.zero() for a in range(dim)]
        sol = solve_linear(rows, rhs, field)
        if sol is None:
            return None
        columns.append(sol)
    return columns
