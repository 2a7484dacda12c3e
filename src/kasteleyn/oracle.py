"""Brute-force ground truth: enumerate matchings and signed sums.

The enumerator walks the internal vertices, then the admissible boundary
vertices, and branches on the first one not yet taken: it is matched to
each free neighbour or, if it is a boundary vertex of a free trace, left
uncovered, and it is taken either way, so no matching is built twice.
It is deliberately simple; it referees the matrix pipeline and must stay
independent of it.
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

    Each matching is built once; the list is sorted by each matching's
    sorted edges.  When boundary_subset is given only matchings covering
    exactly that set of boundary vertices are produced.
    """
    if len(g.vertices) > max_vertices:
        raise EnumerationCapExceeded(
            f"{len(g.vertices)} vertices exceed the cap of {max_vertices}"
        )
    taken: set = set()
    required: frozenset | None = None
    if boundary_subset is not None:
        required = frozenset(boundary_subset)
        stray = required - g.boundary_set
        if stray:
            raise ValueError(f"subset contains non-boundary vertices {sorted(stray)}")
        taken.update(g.boundary_set - required)
    order = list(g.internal_vertices) + [b for b in g.boundary if b not in taken]
    may_skip = g.boundary_set if required is None else frozenset()
    results: list[Matching] = []
    chosen: list = []

    def extend(idx: int) -> None:
        while idx < len(order) and order[idx] in taken:
            idx += 1
        if idx == len(order):
            results.append(frozenset(chosen))
            return
        v = order[idx]
        taken.add(v)
        if v in may_skip:
            extend(idx + 1)  # leave v uncovered
        for u in g.adjacency[v]:
            if u in taken:  # a self-loop's u == v is taken too
                continue
            taken.add(u)
            chosen.append(edge_key(u, v))
            extend(idx + 1)
            chosen.pop()
            taken.discard(u)
        taken.discard(v)

    extend(0)
    return sorted(results, key=sorted)


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
