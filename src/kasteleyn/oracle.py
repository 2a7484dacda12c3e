"""Brute-force ground truth: enumerate matchings and signed sums.

The enumerator recurses on the lowest-indexed uncovered internal vertex
(which every matching must cover) and then on the uncovered boundary
vertices (which may stay uncovered).  It is deliberately simple; it
referees the matrix pipeline and must stay independent of it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .graphs import GraphWithBoundary, Matching, checked_weights, edge_key, matching_weight
from .immersion import Configuration, matching_sign

DEFAULT_VERTEX_CAP = 24


class EnumerationCapExceeded(Exception):
    """Refused to enumerate: the graph exceeds the configured vertex cap."""


def enumerate_matchings(
    g: GraphWithBoundary,
    boundary_subset: Iterable | None = None,
    max_vertices: int = DEFAULT_VERTEX_CAP,
) -> list[Matching]:
    """All matchings, optionally restricted to a fixed boundary trace.

    Returns a duplicate-free list in a deterministic order.  When
    boundary_subset is given only matchings covering exactly that set of
    boundary vertices are produced.
    """
    if len(g.vertices) > max_vertices:
        raise EnumerationCapExceeded(
            f"{len(g.vertices)} vertices exceed the cap of {max_vertices}"
        )
    required: frozenset | None = None
    if boundary_subset is not None:
        required = frozenset(boundary_subset)
        stray = required - g.boundary_set
        if stray:
            raise ValueError(f"subset contains non-boundary vertices {sorted(stray)}")
    internal = list(g.internal_vertices)
    boundary = [
        b for b in g.boundary if required is None or b in required
    ]
    results: list[Matching] = []
    covered: set = set()
    chosen: list = []

    def allowed(u: str) -> bool:
        if u in covered:
            return False
        if required is not None and u in g.boundary_set and u not in required:
            return False
        return True

    def extend_boundary(idx: int) -> None:
        while idx < len(boundary) and boundary[idx] in covered:
            idx += 1
        if idx == len(boundary):
            results.append(frozenset(chosen))
            return
        v = boundary[idx]
        if required is None:
            extend_boundary(idx + 1)  # leave v uncovered
        for u in g.adjacency[v]:
            # Internal vertices are all covered by now, so any available
            # partner here is a boundary vertex.
            if u == v or not allowed(u):
                continue
            covered.update((u, v))
            chosen.append(edge_key(u, v))
            extend_boundary(idx + 1)
            chosen.pop()
            covered.difference_update((u, v))

    def extend_internal(idx: int) -> None:
        while idx < len(internal) and internal[idx] in covered:
            idx += 1
        if idx == len(internal):
            extend_boundary(0)
            return
        v = internal[idx]
        for u in g.adjacency[v]:
            if u == v or not allowed(u):
                continue
            covered.update((u, v))
            chosen.append(edge_key(u, v))
            extend_internal(idx + 1)
            chosen.pop()
            covered.difference_update((u, v))

    extend_internal(0)
    unique = sorted(set(results), key=lambda m: sorted(m))
    return unique


def oracle_measurement(
    g: GraphWithBoundary,
    boundary_subset: Iterable = (),
    weights: Mapping | None = None,
    max_vertices: int = DEFAULT_VERTEX_CAP,
) -> Fraction:
    """Count (or weight-sum) of matchings with the given boundary trace."""
    weights = checked_weights(g.edges, weights)
    subset = frozenset(boundary_subset)
    total = Fraction(0)
    for m in enumerate_matchings(g, subset, max_vertices):
        total += matching_weight(g, m, weights)
    return total


def signed_sum(
    g: GraphWithBoundary,
    c: Configuration,
    boundary_subset: Iterable = (),
    weights: Mapping | None = None,
    max_vertices: int = DEFAULT_VERTEX_CAP,
) -> Fraction:
    """Crossing-signed (weighted) sum over matchings with the given trace.

    At an embedding every sign is +1 and this reduces to
    oracle_measurement; at a crossing drawing it is the quantity the
    transported determinant or Pfaffian must reproduce.
    """
    weights = checked_weights(g.edges, weights)
    subset = frozenset(boundary_subset)
    total = Fraction(0)
    for m in enumerate_matchings(g, subset, max_vertices):
        total += matching_sign(g, c, m) * matching_weight(g, m, weights)
    return total
