"""Signed matrices, boundary measurement tables and derived points.

The bipartite builder produces a matrix over blacks x whites whose minors
(all rows, the internal-white columns plus a subset I of boundary columns)
count the matchings with boundary trace exactly I.  The general builder
produces the skew analogue whose Pfaffian minors do the same.  From these
follow the row-reduced boundary matrix whose maximal minors are the same
counts (a nonnegative point in a Grassmannian, projectively) and the
boundary skew matrix Y with Pf(Y_I) * D(empty) = D(I).

Tables and Grassmann points read every D(I) from one block reduction
(`boundary_values`); `measurement` stays the full-size minor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Mapping

from . import linalg
from .graphs import (
    GraphWithBoundary,
    bipartite_vertex_classes,
    checked_weights,
    edge_key,
    validate,
)
from .immersion import Configuration, is_disc_embedding, is_embedding, is_immersion
from .transport import SignAssignment, compute_signed_structure

MATERIALIZE_LIMIT = 16


class BaseCaseZero(Exception):
    """No matchings avoid the boundary, yet some boundary trace is matchable."""


def _check_target(g: GraphWithBoundary, target: Configuration, require_embedded: bool) -> None:
    if require_embedded:
        if g.boundary:
            if not is_disc_embedding(g, target):
                raise ValueError("target is not a disc embedding")
        elif not is_embedding(g, target):
            raise ValueError("target is not an embedding")
    elif not is_immersion(g, target):
        raise ValueError("target is not an immersion")


class _BoundaryOrder:
    """Positions of the boundary labels, keyed once per object."""

    @cached_property
    def _order(self) -> dict:
        return {b: i for i, b in enumerate(self.boundary)}

    def _positions(self, subset) -> list[int]:
        try:
            return sorted(self._order[b] for b in frozenset(subset))
        except KeyError:
            raise ValueError("subset contains non-boundary vertices") from None


@dataclass(frozen=True)
class _SignedMatrix(_BoundaryOrder):
    """Fields, boundary columns and JSON form shared by both matrix kinds."""

    matrix: linalg.RatMatrix | linalg.SkewMatrix
    graph: GraphWithBoundary
    n_internal: int
    weights: Mapping | None
    seed: int
    assignment: SignAssignment

    @property
    def boundary(self) -> tuple:
        return self.graph.boundary

    boundary_positions = _BoundaryOrder._positions

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "n_internal": self.n_internal,
            "seed": self.seed,
            "event_digest": self.assignment.digest(),
            "matrix": self.matrix.to_jsonable(),
        }


class KasteleynMatrix(_SignedMatrix):
    kind = "bipartite"  # rows: blacks; cols: internal whites then boundary

    @property
    def k(self) -> int:
        return self.matrix.shape[0] - self.n_internal

    def measurement(self, subset) -> Fraction:
        """det of the minor on all rows, internal columns plus the subset."""
        positions = self.boundary_positions(subset)
        if len(positions) != self.k:
            return Fraction(0)
        cols = list(range(self.n_internal)) + [self.n_internal + p for p in positions]
        return linalg.minor(self.matrix, list(range(self.matrix.shape[0])), cols)

    @cached_property
    def boundary_matrix(self) -> linalg.RatMatrix:
        """k x n matrix whose maximal minors are the measurements (k > 0)."""
        try:
            return linalg.reduce_left_block(self.matrix, self.n_internal)
        except linalg.SingularLeftBlock:  # no matchings at all
            zero = [[0] * len(self.boundary)] * self.k
            return linalg.matrix(zero, self.matrix.row_labels[self.n_internal:], self.boundary)

    def boundary_values(self, subsets) -> list[Fraction]:
        """measurement() of each subset, as k x k minors of boundary_matrix."""
        if self.k == 0:  # boundary_matrix has no rows: det of the internal block is lost
            return [self.measurement(s) for s in subsets]
        L, rows = self.boundary_matrix, range(self.k)
        positions = map(self.boundary_positions, subsets)
        return [linalg.minor(L, rows, p) if len(p) == self.k else Fraction(0) for p in positions]

    def to_jsonable(self) -> dict:
        return {**super().to_jsonable(), "k": self.k}


class SkewKasteleynMatrix(_SignedMatrix):
    kind = "general"  # labels: internal vertices then boundary

    def measurement(self, subset) -> Fraction:
        """Pfaffian of the principal minor on internals plus the subset."""
        keep = list(range(self.n_internal)) + [
            self.n_internal + p for p in self.boundary_positions(subset)
        ]
        return linalg.pfaffian_minor(self.matrix, keep)

    @cached_property
    def _reduction(self) -> tuple[Fraction, linalg.SkewMatrix]:
        """(scale, r) with Pf(matrix on internals + I) = scale * Pf(r on rest + I)."""
        return linalg.reduce_leading_block(self.matrix, self.n_internal)

    def boundary_values(self, subsets) -> list[Fraction]:
        """measurement() of each subset, as scale * Pf(r on rest + I)."""
        scale, r = self._reduction
        n_rest = r.dimension - len(self.boundary)
        rest = list(range(n_rest))
        return [
            scale * linalg.pfaffian_minor(r, rest + [n_rest + p for p in self.boundary_positions(s)])
            for s in subsets
        ]


def _checked_inputs(g, kind, target, weights, require_embedded):
    """The builders' checks before transport: graph, weights, target.

    A graph of the other kind or any failed check raises ValueError.
    Returns the validation report and the checked weights.
    """
    report = validate(g)
    if report.mode != kind:
        raise ValueError(f"the {kind} builder needs a {kind} graph, not a {report.mode} one")
    if not report.ok:
        raise ValueError(f"invalid {kind} graph: " + "; ".join(report.problems))
    weights = checked_weights(g.edges, weights)
    _check_target(g, target, require_embedded)
    return report, weights


def _signed_entries(g, kind, target, weights, seed, max_retries, require_embedded):
    """Check the inputs, transport; map each edge to sign * weight.

    Also returns the `_SignedMatrix` fields that follow `matrix`.
    """
    report, weights = _checked_inputs(g, kind, target, weights, require_embedded)
    assignment = compute_signed_structure(g, target, seed, max_retries)
    table = weights or {}
    entries = {e: assignment.sign(e) * table.get(e, Fraction(1)) for e in g.sorted_edges}
    return entries, (g, report.n_internal, weights, seed, assignment)


def kasteleyn_matrix(
    g: GraphWithBoundary,
    target: Configuration,
    weights: Mapping | None = None,
    seed: int = 0,
    max_retries: int = 32,
    require_embedded: bool = True,
) -> KasteleynMatrix:
    """Signed bipartite adjacency matrix built by sign transport.

    At an embedded target, the minor over all rows, the internal-white
    columns and a k-subset I of boundary columns equals the (weighted)
    number of matchings with boundary trace I.  With require_embedded set
    to False the target may have edge crossings and the minors equal the
    crossing-signed sums instead.
    """
    entries, fields = _signed_entries(
        g, "bipartite", target, weights, seed, max_retries, require_embedded
    )
    blacks, whites = bipartite_vertex_classes(g)
    wcol = {w: j for j, w in enumerate(whites)}
    rows = []
    for b in blacks:
        row = [Fraction(0)] * len(whites)
        for u in g.adjacency[b]:
            row[wcol[u]] = entries[edge_key(b, u)]
        rows.append(tuple(row))
    m = linalg.RatMatrix(tuple(rows), tuple(blacks), tuple(whites))
    return KasteleynMatrix(m, *fields)


def skew_kasteleyn_matrix(
    g: GraphWithBoundary,
    target: Configuration,
    weights: Mapping | None = None,
    seed: int = 0,
    max_retries: int = 32,
    require_embedded: bool = True,
) -> SkewKasteleynMatrix:
    """Signed skew adjacency matrix built by sign transport.

    At an embedded target, the Pfaffian of the principal minor on the
    internal vertices plus a boundary subset I equals the (weighted)
    number of matchings with boundary trace I.
    """
    entries, fields = _signed_entries(
        g, "general", target, weights, seed, max_retries, require_embedded
    )
    order = list(g.internal_vertices) + list(g.boundary)
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (u, v), value in entries.items():
        i, j = pos[u], pos[v]
        if i > j:
            i, j = j, i
        rows[i][j] = value
        rows[j][i] = -value
    m = linalg.skew(rows, tuple(order))
    return SkewKasteleynMatrix(m, *fields)


@dataclass(frozen=True)
class MeasurementTable(_BoundaryOrder):
    mode: str
    boundary: tuple
    n_internal: int
    k: int | None
    weighted: bool
    values: Mapping  # frozenset of boundary ids -> Fraction

    def value(self, subset) -> Fraction:
        self._positions(subset)  # ValueError for a non-boundary label
        return self.values.get(frozenset(subset), Fraction(0))

    def subset_key(self, subset) -> str:
        return ",".join(sorted(subset, key=self._order.__getitem__))

    def to_jsonable(self) -> dict:
        items = sorted(
            self.values.items(),
            key=lambda kv: (len(kv[0]), self.subset_key(kv[0])),
        )
        return {
            "mode": self.mode,
            "weighted": self.weighted,
            "boundary": list(self.boundary),
            "values": {self.subset_key(s): str(v) for s, v in items},
        }


def measurement_table(g: GraphWithBoundary, matrix) -> MeasurementTable:
    """Evaluate the minor (or Pfaffian minor) for every admissible subset.

    Parity-forced zeros (wrong subset size in bipartite mode, odd total in
    general mode) are not stored; `value` reports them as zero without
    evaluation.  A boundary of more than MATERIALIZE_LIMIT vertices raises
    ValueError; query the matrix subset by subset instead.
    """
    mode = matrix.kind
    if matrix.graph is not g and matrix.graph != g:
        raise ValueError("matrix was built from a different graph")
    n = len(g.boundary)
    if n > MATERIALIZE_LIMIT:
        raise ValueError(
            f"boundary of size {n} exceeds the materialization limit "
            f"{MATERIALIZE_LIMIT}; query the matrix per subset"
        )
    if mode == "bipartite":
        k = matrix.k
        sizes = [k] if 0 <= k <= n else []
    else:
        k = None
        sizes = [size for size in range(n + 1) if (matrix.n_internal + size) % 2 == 0]
    subsets = [frozenset(s) for size in sizes for s in combinations(g.boundary, size)]
    values = dict(zip(subsets, matrix.boundary_values(subsets)))
    return MeasurementTable(
        mode, g.boundary, matrix.n_internal, k, matrix.weights is not None, values
    )


def colex_subsets(n: int, k: int) -> list[tuple]:
    """k-subsets of range(n) in colexicographic order."""
    return sorted(combinations(range(n), k), key=lambda s: tuple(reversed(s)))


@dataclass(frozen=True)
class GrassmannPoint:
    matrix: linalg.RatMatrix  # k x n over the boundary columns
    boundary: tuple
    k: int
    plucker: tuple  # ((labels...), value) in colex order of positions

    @property
    def n(self) -> int:
        return len(self.boundary)

    @cached_property
    def _by_subset(self) -> dict:
        return {frozenset(labels): v for labels, v in self.plucker}

    def value(self, subset) -> Fraction:
        want = frozenset(subset)
        if want not in self._by_subset:
            raise ValueError(f"{sorted(want)} is not a {self.k}-subset of the boundary")
        return self._by_subset[want]

    def is_zero(self) -> bool:
        return all(v == 0 for _, v in self.plucker)

    def to_jsonable(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "boundary": list(self.boundary),
            "matrix": self.matrix.to_jsonable(),
            "plucker": [
                {"columns": list(labels), "value": str(v)} for labels, v in self.plucker
            ],
        }


def grassmann_point(g: GraphWithBoundary, K: KasteleynMatrix) -> GrassmannPoint:
    """Boundary matrix whose maximal minors are the boundary measurements.

    When the internal columns are dependent there are no matchings at all
    and the zero matrix is returned.  Every coordinate is a matching count
    (weighted: a sum of positive weights), hence nonnegative.
    """
    labels = [tuple(K.boundary[j] for j in s) for s in colex_subsets(len(K.boundary), K.k)]
    plucker = tuple(zip(labels, K.boundary_values(labels)))
    for _, value in plucker:
        if value < 0:
            raise ValueError(
                "negative boundary measurement; the target drawing is not an embedding"
            )
    return GrassmannPoint(K.boundary_matrix, tuple(K.boundary), K.k, plucker)


@dataclass(frozen=True)
class PfaffianPoint(_BoundaryOrder):
    matrix: linalg.SkewMatrix  # n x n on the boundary labels
    boundary: tuple
    base: Fraction  # measurement of the empty boundary trace
    base_zero: bool = False

    def value(self, subset) -> Fraction:
        return linalg.pfaffian_minor(self.matrix, self._positions(subset))

    def to_jsonable(self) -> dict:
        return {
            "boundary": list(self.boundary),
            "base": str(self.base),
            "base_zero": self.base_zero,
            "matrix": self.matrix.to_jsonable(),
        }


def pfaffian_point(g: GraphWithBoundary, X: SkewKasteleynMatrix) -> PfaffianPoint:
    """Boundary skew matrix Y with Pf(Y_I) * D(empty) = D(I) for all I.

    Read from X's one reduction of its internal block: when that block is
    nonsingular, D(empty) is the reduction's scale and Y its trailing block.
    Otherwise D(empty) = 0, and the zero matrix is returned with base_zero
    set if no trace is matchable; else no such Y exists (BaseCaseZero).
    """
    n = len(X.boundary)
    scale, y = X._reduction
    if y.dimension == n:  # no rest rows: the internal block is nonsingular
        return PfaffianPoint(y, X.boundary, scale)
    for size in range(n + 1):
        for subset in combinations(X.boundary, size):
            if X.boundary_values([subset])[0] != 0:
                raise BaseCaseZero(
                    f"no boundary-avoiding matchings but trace {subset} is matchable"
                )
    zero = linalg.skew([[0] * n] * n, X.boundary)
    return PfaffianPoint(zero, X.boundary, Fraction(0), base_zero=True)
