"""Exact rational linear algebra: determinants, minors, Pfaffians, reductions.

Determinants use fraction-free Bareiss elimination (intermediate values
stay integral for integral input).  Pfaffians and the skew block reduction
share one skew elimination by unit congruences, which pairs each row with
the first later free column holding a nonzero entry.  The block reductions
preserve the exact minor/Pfaffian-minor contracts they are named for and
verify a sample of them before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Iterable, Sequence


class SingularLeftBlock(Exception):
    """The first N columns are linearly dependent."""


class SingularLeadingBlock(Exception):
    """The leading principal skew block is singular."""


class OddLeadingBlock(Exception):
    """The leading principal skew block has odd dimension."""


@dataclass(frozen=True)
class RatMatrix:
    entries: tuple
    row_labels: tuple
    col_labels: tuple

    def __post_init__(self):
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if len(rows) != len(self.row_labels):
            raise ValueError("row label count does not match entries")
        for row in rows:
            if len(row) != len(self.col_labels):
                raise ValueError("column label count does not match entries")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    def __getitem__(self, pos) -> Fraction:
        i, j = pos
        return self.entries[i][j]

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "RatMatrix":
        return RatMatrix(
            tuple(tuple(self.entries[i][j] for j in cols) for i in rows),
            tuple(self.row_labels[i] for i in rows),
            tuple(self.col_labels[j] for j in cols),
        )

    def to_jsonable(self) -> dict:
        return {
            "rows": list(self.row_labels),
            "cols": list(self.col_labels),
            "entries": [[str(x) for x in row] for row in self.entries],
        }


def matrix(entries: Iterable[Iterable], row_labels=None, col_labels=None) -> RatMatrix:
    rows = tuple(tuple(row) for row in entries)
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    if row_labels is None:
        row_labels = tuple(range(n_rows))
    if col_labels is None:
        col_labels = tuple(range(n_cols))
    return RatMatrix(rows, tuple(row_labels), tuple(col_labels))


@dataclass(frozen=True)
class SkewMatrix:
    matrix: RatMatrix

    def __post_init__(self):
        m = self.matrix
        n_rows, n_cols = m.shape
        if n_rows != n_cols:
            raise ValueError("skew matrix must be square")
        for i in range(n_rows):
            if m[i, i] != 0:
                raise ValueError("skew matrix needs a zero diagonal")
            for j in range(i + 1, n_cols):
                if m[i, j] != -m[j, i]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) are not opposite")

    @property
    def labels(self) -> tuple:
        return self.matrix.row_labels

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def __getitem__(self, pos) -> Fraction:
        return self.matrix[pos]

    def principal(self, keep: Sequence[int]) -> "SkewMatrix":
        idx = sorted(keep)
        return SkewMatrix(self.matrix.submatrix(idx, idx))

    def to_jsonable(self) -> dict:
        return self.matrix.to_jsonable()


def skew(entries: Iterable[Iterable], labels=None) -> SkewMatrix:
    m = matrix(entries, labels, labels)
    return SkewMatrix(m)


def det(m: RatMatrix) -> Fraction:
    """Exact determinant by Bareiss fraction-free elimination."""
    n_rows, n_cols = m.shape
    if n_rows != n_cols:
        raise ValueError(f"determinant of a {n_rows}x{n_cols} matrix")
    n = n_rows
    if n == 0:
        return Fraction(1)
    work = [list(row) for row in m.entries]
    sign = 1
    prev = Fraction(1)
    for c in range(n - 1):
        pivot_row = next((r for r in range(c, n) if work[r][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            sign = -sign
        pivot = work[c][c]
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                work[i][j] = (work[i][j] * pivot - work[i][c] * work[c][j]) / prev
            work[i][c] = Fraction(0)
        prev = pivot
    return sign * work[n - 1][n - 1]


def minor(m: RatMatrix, rows: Sequence[int], cols: Sequence[int]) -> Fraction:
    """Determinant of the selected square submatrix, in the listed order."""
    if len(rows) != len(cols):
        raise ValueError("minor needs equally many rows and columns")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("duplicate indices in minor selection")
    n_rows, n_cols = m.shape
    if any(r < 0 or r >= n_rows for r in rows) or any(c < 0 or c >= n_cols for c in cols):
        raise ValueError("minor index out of range")
    return det(m.submatrix(rows, cols))


def reduce_left_block(k_matrix: RatMatrix, n_left: int) -> RatMatrix:
    """Eliminate the first n_left columns and return the trailing bottom block.

    Row operations are chosen so that the composite has determinant one
    (pure eliminations plus one compensating scaling of the first bottom
    row), hence every maximal minor is preserved: for a subset I of the
    trailing columns,
    det input[all rows; first n_left + I] = det output[all rows; I].
    A sample of these equalities is re-checked before returning.
    """
    n_rows, n_cols = k_matrix.shape
    if not 0 <= n_left <= min(n_rows, n_cols):
        raise ValueError("left block size out of range")
    k_extra = n_rows - n_left
    work = [list(row) for row in k_matrix.entries]
    for c in range(n_left):
        pivot_row = next((r for r in range(c, n_rows) if work[r][c] != 0), None)
        if pivot_row is None:
            raise SingularLeftBlock(f"columns 0..{n_left - 1} are dependent (column {c})")
        if pivot_row != c:
            for j in range(n_cols):
                work[c][j] += work[pivot_row][j]
        pivot = work[c][c]
        for i in range(n_rows):
            if i == c or work[i][c] == 0:
                continue
            factor = work[i][c] / pivot
            for j in range(n_cols):
                work[i][j] -= factor * work[c][j]
    if k_extra == 0:
        return RatMatrix((), (), tuple(k_matrix.col_labels[n_left:]))
    pivot_product = Fraction(1)
    for c in range(n_left):
        pivot_product *= work[c][c]
    for j in range(n_cols):
        work[n_left][j] *= pivot_product
    bottom = RatMatrix(
        tuple(tuple(work[i][j] for j in range(n_left, n_cols)) for i in range(n_left, n_rows)),
        tuple(k_matrix.row_labels[n_left:]),
        tuple(k_matrix.col_labels[n_left:]),
    )
    _verify_left_block(k_matrix, bottom, n_left)
    return bottom


def _verify_left_block(k_matrix: RatMatrix, bottom: RatMatrix, n_left: int) -> None:
    n_rows, n_cols = k_matrix.shape
    k_extra = n_rows - n_left
    trailing = n_cols - n_left
    all_subsets = list(combinations(range(trailing), k_extra))
    if len(all_subsets) > 8:
        rng = Random(f"left-block:{n_rows}x{n_cols}")
        all_subsets = rng.sample(all_subsets, 8)
    all_rows = list(range(n_rows))
    for subset in all_subsets:
        full_cols = list(range(n_left)) + [n_left + j for j in subset]
        lhs = minor(k_matrix, all_rows, full_cols)
        rhs = minor(bottom, list(range(k_extra)), list(subset))
        if lhs != rhs:
            raise AssertionError(
                f"left-block reduction broke the minor on columns {subset}"
            )


def _skew_eliminate(x: SkewMatrix, n_leading: int) -> tuple[Fraction, list, list]:
    """Pair pivots inside the leading block by unit congruences.

    The first free row i pairs with the first free j where work[i][j] != 0;
    moving j next to i passes pos free indices, hence the sign (-1)^pos.
    Rows without a pivot go to rest.  For every subset I of the trailing
    indices, Pf(x on leading + I) = scale * Pf(work on rest + I).
    """
    work = [list(row) for row in x.matrix.entries]
    trailing = range(n_leading, x.dimension)
    free = list(range(n_leading))
    rest: list = []
    scale = Fraction(1)
    while free:
        i = free.pop(0)
        row_i = work[i]
        pos = next((p for p, j in enumerate(free) if row_i[j] != 0), None)
        if pos is None:
            rest.append(i)
            if not any(row_i[t] for t in trailing):
                break  # a zero row: both sides of the contract vanish
            continue
        j = free.pop(pos)
        row_j = work[j]
        pivot = row_i[j]
        scale *= -pivot if pos % 2 else pivot
        live = free + list(trailing)  # rest rows and columns are zero on i, j
        for r in live:
            row_r = work[r]
            a, b = row_r[i] / pivot, row_r[j] / pivot
            if a or b:
                for c in live:
                    row_r[c] += a * row_j[c] - b * row_i[c]
    return scale, rest, work


def pfaffian(x: SkewMatrix) -> Fraction:
    """Exact Pfaffian; zero for odd dimension, one for the empty matrix."""
    if x.dimension % 2:
        return Fraction(0)
    scale, rest, _ = _skew_eliminate(x, x.dimension)
    return Fraction(0) if rest else scale


def pfaffian_minor(x: SkewMatrix, keep: Iterable[int]) -> Fraction:
    """Pfaffian of the principal submatrix on the kept indices (ascending)."""
    idx = sorted(keep)
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate indices")
    if idx and (idx[0] < 0 or idx[-1] >= x.dimension):
        raise ValueError("index out of range")
    return pfaffian(x.principal(idx))


def reduce_leading_block(x: SkewMatrix, n_leading: int) -> tuple[Fraction, SkewMatrix]:
    """Eliminate the leading block; r holds the rest rows, then the trailing ones.

    For every subset I of the trailing indices,
    Pf(x on leading + I) = scale * Pf(r on rest + I).  Rest is empty exactly
    when the leading block is nonsingular.  A sample is re-checked.
    """
    if not 0 <= n_leading <= x.dimension:
        raise ValueError("leading block size out of range")
    scale, rest, work = _skew_eliminate(x, n_leading)
    keep = rest + list(range(n_leading, x.dimension))
    r = skew([[work[i][j] for j in keep] for i in keep], [x.labels[i] for i in keep])
    _verify_congruence(x, scale, r, n_leading)
    return scale, r


def skew_congruence_reduce(x: SkewMatrix, n_leading: int) -> SkewMatrix:
    """Split off the leading block by a unit congruence, keeping Pfaffian minors.

    Returns the trailing skew block Y with, for every subset I of the
    trailing indices, Pf(x on leading+I) = Pf(x leading block) * Pf(Y on I).
    """
    if not 0 <= n_leading <= x.dimension:
        raise ValueError("leading block size out of range")
    if n_leading % 2:
        raise OddLeadingBlock("leading block must have even dimension")
    _, y = reduce_leading_block(x, n_leading)
    if y.dimension > x.dimension - n_leading:
        raise SingularLeadingBlock("leading skew block is singular")
    return y


def _verify_congruence(x: SkewMatrix, scale: Fraction, r: SkewMatrix, n_leading: int) -> None:
    trailing = x.dimension - n_leading
    n_rest = r.dimension - trailing
    subsets = [s for size in range(trailing + 1) for s in combinations(range(trailing), size)]
    if len(subsets) > 16:
        subsets = Random(f"congruence:{x.dimension}").sample(subsets, 16)
    for subset in subsets:
        lhs = pfaffian_minor(x, list(range(n_leading)) + [n_leading + j for j in subset])
        rhs = scale * pfaffian_minor(r, list(range(n_rest)) + [n_rest + j for j in subset])
        if lhs != rhs:
            raise AssertionError(f"congruence reduction broke Pf on subset {subset}")
