"""Exact rational linear algebra: determinants, minors, Pfaffians, reductions.

Determinants and the left-block reduction share one forward elimination
that repairs a zero pivot by adding a later row.  Pfaffians and the skew
block reduction share one skew elimination by unit congruences, pairing
each row with the first later free column holding a nonzero entry.  Each
elimination updates only the columns where a pivot row is nonzero.  Both
block reductions preserve the exact minor/Pfaffian-minor contracts they
are named for and verify a sample of them before returning.

The constructors check every matrix once.  Submatrices and principal
blocks of a checked matrix are checked by construction (Fraction entries;
any principal block of a skew matrix is skew), so they skip the checks,
and a minor costs only its elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
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
        floats = [x for row in self.entries for x in row if isinstance(x, float)]
        if floats:  # refused like float coordinates, to protect exactness
            raise TypeError(f"float entry {floats[0]!r}; supply int, str or Fraction")
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
        """The listed rows and columns, in order; repeats and negatives index as usual.

        Its entries are this matrix's checked ones, so the checks are skipped.
        """
        return _prechecked(
            RatMatrix,
            entries=tuple(tuple(self.entries[i][j] for j in cols) for i in rows),
            row_labels=tuple(self.row_labels[i] for i in rows),
            col_labels=tuple(self.col_labels[j] for j in cols),
        )

    def to_jsonable(self) -> dict:
        return {
            "rows": list(self.row_labels),
            "cols": list(self.col_labels),
            "entries": [[str(x) for x in row] for row in self.entries],
        }


def _prechecked(cls, **fields):
    """A frozen matrix built from fields already known to pass its checks.

    Skips __post_init__; only for parts cut from a checked matrix.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


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
        """The block on the kept indices, sorted; repeats and negatives index as usual.

        Any principal block of a skew matrix is skew, so the check is skipped.
        """
        idx = sorted(keep)
        return _prechecked(SkewMatrix, matrix=self.matrix.submatrix(idx, idx))

    def to_jsonable(self) -> dict:
        return self.matrix.to_jsonable()


def skew(entries: Iterable[Iterable], labels=None) -> SkewMatrix:
    m = matrix(entries, labels, labels)
    return SkewMatrix(m)


def det(m: RatMatrix) -> Fraction:
    """Exact determinant: the product of the forward elimination's pivots."""
    n_rows, n_cols = m.shape
    if n_rows != n_cols:
        raise ValueError(f"determinant of a {n_rows}x{n_cols} matrix")
    try:
        return _forward_eliminate([list(row) for row in m.entries], n_rows)
    except SingularLeftBlock:
        return Fraction(0)


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


def _forward_eliminate(work: list, n_left: int) -> Fraction:
    """Zero the first n_left columns below the diagonal; return the pivot product.

    A zero pivot gets the first later row nonzero there added (no swaps: det
    and row labels stay put).  Only rows below the pivot change, only in the
    pivot row's nonzero columns.  A column without a pivot: SingularLeftBlock.
    """
    pivot_product = Fraction(1)
    for c in range(n_left):
        pivot_row = next((r for r in range(c, len(work)) if work[r][c] != 0), None)
        if pivot_row is None:
            raise SingularLeftBlock(f"columns 0..{n_left - 1} are dependent (column {c})")
        if pivot_row != c:
            work[c] = [a + b for a, b in zip(work[c], work[pivot_row])]
        row_c = work[c]
        pivot = row_c[c]
        pivot_product *= pivot
        support = [j for j in range(c, len(row_c)) if row_c[j] != 0]
        for row_i in work[c + 1:]:
            if row_i[c] != 0:
                factor = row_i[c] / pivot
                for j in support:
                    row_i[j] -= factor * row_c[j]
    return pivot_product


def reduce_left_block(k_matrix: RatMatrix, n_left: int) -> tuple[Fraction, RatMatrix]:
    """Eliminate the first n_left columns; return (scale, trailing bottom block).

    The row operations are pure eliminations (determinant one) and scale
    is the product of their pivots, so for every subset I of the trailing
    columns, det input[all rows; first n_left + I] = scale * det block[:, I].
    With no bottom rows the block is empty and scale is that determinant.
    A sample of these equalities is re-checked before returning.
    """
    n_rows, n_cols = k_matrix.shape
    if not 0 <= n_left <= min(n_rows, n_cols):
        raise ValueError("left block size out of range")
    work = [list(row) for row in k_matrix.entries]
    scale = _forward_eliminate(work, n_left)
    block = RatMatrix(
        tuple(tuple(row[n_left:]) for row in work[n_left:]),
        tuple(k_matrix.row_labels[n_left:]),
        tuple(k_matrix.col_labels[n_left:]),
    )
    _verify_left_block(k_matrix, scale, block, n_left)
    return scale, block


def _verify_left_block(k_matrix: RatMatrix, scale: Fraction, block: RatMatrix, n_left: int) -> None:
    n_rows, n_cols = k_matrix.shape
    k_extra = n_rows - n_left
    trailing = n_cols - n_left
    if comb(trailing, k_extra) <= 8:
        all_subsets = list(combinations(range(trailing), k_extra))
    else:  # drawn, not listed: there are exponentially many in the boundary size
        rng = Random(f"left-block:{n_rows}x{n_cols}")
        all_subsets = [sorted(rng.sample(range(trailing), k_extra)) for _ in range(8)]
    all_rows = list(range(n_rows))
    for subset in all_subsets:
        full_cols = list(range(n_left)) + [n_left + j for j in subset]
        lhs = minor(k_matrix, all_rows, full_cols)
        rhs = scale * minor(block, list(range(k_extra)), list(subset))
        if lhs != rhs:
            raise AssertionError(
                f"left-block reduction broke the minor on columns {subset}"
            )


def _skew_eliminate(x: SkewMatrix, n_leading: int) -> tuple[Fraction, list, list]:
    """Pair pivots inside the leading block by unit congruences.

    The first free row i pairs with the first free j where work[i][j] != 0;
    moving j next to i passes pos free indices, hence the sign (-1)^pos.
    Rows without a pivot go to rest.  For every subset I of the trailing
    indices, Pf(x on leading + I) = scale * Pf(work on rest + I).  Each
    pivot (i, j) adds multiples of row j over its nonzero live columns and
    of row i over its own; columns zero on both rows stay as they are.
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
        support_i = [(c, row_i[c]) for c in live if row_i[c]]
        support_j = [(c, row_j[c]) for c in live if row_j[c]]
        for r in live:
            row_r = work[r]
            if row_r[i]:
                a = row_r[i] / pivot
                for c, v in support_j:
                    row_r[c] += a * v
            if row_r[j]:
                b = row_r[j] / pivot
                for c, v in support_i:
                    row_r[c] -= b * v
    return scale, rest, work


def pfaffian(x: SkewMatrix) -> Fraction:
    """Exact Pfaffian; zero for odd dimension, one for the empty matrix."""
    if x.dimension % 2:
        return Fraction(0)
    scale, rest, _ = _skew_eliminate(x, x.dimension)
    return Fraction(0) if rest else scale


def pfaffian_minor(x: SkewMatrix, keep: Iterable[int]) -> Fraction:
    """Pfaffian of the principal submatrix on the kept indices (ascending).

    An odd number of kept indices gives 0 without building the block.
    """
    idx = sorted(keep)
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate indices")
    if idx and (idx[0] < 0 or idx[-1] >= x.dimension):
        raise ValueError("index out of range")
    if len(idx) % 2:
        return Fraction(0)
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
    masks = range(1 << trailing)  # one per subset of the trailing indices
    if len(masks) > 16:
        masks = Random(f"congruence:{x.dimension}").sample(masks, 16)
    subsets = [[j for j in range(trailing) if mask >> j & 1] for mask in masks]
    for subset in subsets:
        lhs = pfaffian_minor(x, list(range(n_leading)) + [n_leading + j for j in subset])
        rhs = scale * pfaffian_minor(r, list(range(n_rest)) + [n_rest + j for j in subset])
        if lhs != rhs:
            raise AssertionError(f"congruence reduction broke Pf on subset {subset}")
