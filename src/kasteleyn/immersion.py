"""Vertex configurations in the plane and the canonical start drawings.

A configuration maps every vertex to an exact point.  Membership tests
distinguish nested classes: immersions (every edge of positive length,
no vertex on a non-incident closed edge), embeddings (additionally no
edge crossings) and disc embeddings, which pin the boundary on the unit
circle in its circular order with everything else strictly inside.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .geometry import (
    Point,
    SegmentRelation,
    circle_sort_key,
    inside_unit_circle,
    on_unit_circle,
    orient,
    point_on_segment,
    segment_relation,
    unit_circle_param,
    unit_circle_point,
)
from .graphs import GraphWithBoundary, Matching, bipartite_vertex_classes, graph_kind

Configuration = dict  # vertex id -> Point


class DegenerateDrawing(Exception):
    """A crossing count was requested for overlapping or touching edges."""


@dataclass(frozen=True)
class PathPlan:
    """Piecewise-linear deformation: waypoint configurations, pinned ids."""

    waypoints: tuple
    pinned: frozenset

    @property
    def segments(self) -> int:
        return len(self.waypoints) - 1


def _check_total(g: GraphWithBoundary, c: Configuration) -> None:
    missing = [v for v in g.vertices if v not in c]
    if missing:
        raise ValueError(f"configuration misses vertices {missing}")


def _segment(c: Configuration, e) -> tuple[Point, Point]:
    return (c[e[0]], c[e[1]])


def edge_is_clear(c: Configuration, vertices, u, v) -> bool:
    """The edge uv has positive length and no other vertex on it."""
    a, b = c[u], c[v]
    return a != b and all(
        point_on_segment(c[w], a, b) is None for w in vertices if w != u and w != v
    )


def edges_cross(c: Configuration, e1, e2) -> bool:
    """Two edges of positive length cross at one point interior to both."""
    p, q = _segment(c, e1)
    r, s = _segment(c, e2)
    return orient(p, q, r) * orient(p, q, s) < 0 and orient(r, s, p) * orient(r, s, q) < 0


def is_immersion(g: GraphWithBoundary, c: Configuration) -> bool:
    """Every edge has positive length and no vertex sits on a non-incident edge."""
    _check_total(g, c)
    return all(edge_is_clear(c, g.vertices, u, v) for u, v in g.sorted_edges)


def is_embedding(g: GraphWithBoundary, c: Configuration) -> bool:
    """Crossing-free immersion: a planar straight-line drawing.

    In an immersion, edges sharing a vertex meet only there, and two
    edges without a common vertex either cross transversally or are
    disjoint; so only the crossings of the latter need testing.
    """
    if not is_immersion(g, c):
        return False
    edges = g.sorted_edges
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            e1, e2 = edges[i], edges[j]
            if not set(e1) & set(e2) and edges_cross(c, e1, e2):
                return False
    return True


def boundary_in_ccw_order(g: GraphWithBoundary, c: Configuration) -> bool:
    """Boundary images on the unit circle in the declared circular order."""
    if not g.boundary:
        return True
    for b in g.boundary:
        if not on_unit_circle(c[b]):
            return False
    ccw = sorted(g.boundary, key=lambda b: circle_sort_key(c[b]))
    start = ccw.index(g.boundary[0])
    rotated = ccw[start:] + ccw[:start]
    return tuple(rotated) == g.boundary


def is_disc_embedding(g: GraphWithBoundary, c: Configuration) -> bool:
    """Embedding with the boundary on the unit circle, in order, rest inside."""
    _check_total(g, c)
    if not boundary_in_ccw_order(g, c):
        return False
    for v in g.internal_vertices:
        if not inside_unit_circle(c[v]):
            return False
    return is_embedding(g, c)


def crossing_number(g: GraphWithBoundary, c: Configuration, m: Matching) -> int:
    """Number of pairs of matching edges whose segments cross."""
    edges = sorted(m)
    crossings = 0
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            rel = segment_relation(_segment(c, edges[i]), _segment(c, edges[j]))
            if rel is SegmentRelation.TRANSVERSAL_CROSS:
                crossings += 1
            elif rel is not SegmentRelation.DISJOINT:
                raise DegenerateDrawing(
                    f"edges {edges[i]} and {edges[j]} meet degenerately ({rel.value})"
                )
    return crossings


def matching_sign(g: GraphWithBoundary, c: Configuration, m: Matching) -> int:
    return -1 if crossing_number(g, c, m) % 2 else 1


def _jitter(rng: Random) -> Fraction:
    return Fraction(rng.randrange(1 << 16), 1 << 16)


def _arc_parameters(p_from: Point, p_to: Point, m: int, rng: Random) -> list[Fraction]:
    """m half-angle parameters strictly inside the ccw arc p_from -> p_to."""
    if m == 0:
        return []
    t_from = unit_circle_param(p_from)
    t_to = unit_circle_param(p_to)
    if t_from is None:
        # Arc starts at (-1, 0): climb towards t_to from below.
        return [t_to - (m + 1) + j + _jitter(rng) / 2 for j in range(1, m + 1)]
    if t_to is None or t_from >= t_to:
        # Arc wraps through (-1, 0): stay on the near side of the wrap.
        return [t_from + j + _jitter(rng) / 2 for j in range(1, m + 1)]
    step = (t_to - t_from) / (m + 1)
    return [t_from + j * step + _jitter(rng) * step / 2 for j in range(1, m + 1)]


def canonical_start(
    g: GraphWithBoundary, target: Configuration, seed: int = 0
) -> Configuration:
    """The start drawing at which the all-plus-ones matrix is valid.

    The layout follows `graph_kind(g)` and the boundary, so a graph that
    mixes colored and uncolored vertices raises ValueError.  Closed
    bipartite graphs start on two parallel lines (blacks above whites, both
    in index order); closed general graphs on the unit circle in index
    order.  With a boundary, the boundary vertices are pinned at their
    target circle positions and the free vertices go on the arc between
    the last and first boundary vertex so that the counterclockwise order
    reads: internal whites, boundary, blacks reversed (bipartite), or
    internal vertices then boundary (general).  At such a drawing the crossing count of every matching
    equals the inversion count of its determinant term (resp. the crossing
    parity of its Pfaffian term), so signs may start at +1 everywhere.
    """
    bipartite = graph_kind(g) == "bipartite"
    rng = Random(f"start:{seed}")
    config: Configuration = {}
    if bipartite and not g.boundary:
        blacks, whites = bipartite_vertex_classes(g)
        for i, v in enumerate(blacks):
            config[v] = (Fraction(i) + _jitter(rng) / 2, Fraction(1))
        for j, v in enumerate(whites):
            config[v] = (Fraction(j) + _jitter(rng) / 2, Fraction(0))
        return config
    if not g.boundary:
        for j, v in enumerate(g.vertices):
            config[v] = unit_circle_point(Fraction(j) + _jitter(rng) / 2)
        return config
    for b in g.boundary:
        if not on_unit_circle(target[b]):
            raise ValueError(f"target boundary vertex {b!r} is not on the unit circle")
        config[b] = target[b]
    if bipartite:
        blacks, whites = bipartite_vertex_classes(g)
        free = list(reversed(blacks)) + whites[: -len(g.boundary)]
    else:
        free = list(g.internal_vertices)
    params = _arc_parameters(target[g.boundary[-1]], target[g.boundary[0]], len(free), rng)
    for v, t in zip(free, params):
        config[v] = unit_circle_point(t)
    return config
