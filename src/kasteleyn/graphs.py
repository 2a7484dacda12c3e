"""Graphs with a circularly ordered boundary, matchings and validation.

A matching here covers every internal vertex exactly once and each
boundary vertex at most once; its boundary trace is the set of boundary
vertices it covers.  All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

Edge = tuple[str, str]
Matching = frozenset  # frozenset[Edge]

BLACK = "black"
WHITE = "white"
PLAIN = "plain"
COLORS = (BLACK, WHITE, PLAIN)


def edge_key(u: str, v: str) -> Edge:
    """Canonical unordered representation of an edge."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class GraphWithBoundary:
    vertices: tuple[str, ...]
    color: Mapping[str, str]
    edges: frozenset
    boundary: tuple[str, ...] = ()

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def boundary_set(self) -> frozenset:
        return frozenset(self.boundary)

    @cached_property
    def internal_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if v not in self.boundary_set)

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        nbrs: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in sorted(self.edges):
            nbrs[u].append(v)
            if v != u:
                nbrs[v].append(u)
        return {v: tuple(sorted(ns, key=self.vertex_index.__getitem__)) for v, ns in nbrs.items()}

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        idx = self.vertex_index
        return tuple(sorted(self.edges, key=lambda e: (idx[e[0]], idx[e[1]])))


def make_graph(
    vertices: Iterable[str],
    color: Mapping[str, str] | None = None,
    edges: Iterable[tuple[str, str]] = (),
    boundary: Iterable[str] = (),
) -> GraphWithBoundary:
    """Construct a graph; structural problems raise, hypothesis checks don't.

    A graph is structure only: edge weights are an argument of each
    count (see `checked_weights`).  Duplicate vertices and edges
    referencing unknown vertices are rejected here; everything the
    counting theorems need (coloring discipline, boundary membership, no
    self-loops) is reported by `validate`, which raises ValueError on a
    graph that mixes colored and uncolored vertices.
    """
    vs = tuple(vertices)
    if len(set(vs)) != len(vs):
        raise ValueError("duplicate vertex ids")
    colors = {v: PLAIN for v in vs}
    for v, c in (color or {}).items():
        if v not in colors:
            raise ValueError(f"color given for unknown vertex {v!r}")
        if c not in COLORS:
            raise ValueError(f"unknown color {c!r}")
        colors[v] = c
    vset = set(vs)
    eset = set()
    for u, v in edges:
        if u not in vset or v not in vset:
            raise ValueError(f"edge ({u!r}, {v!r}) references unknown vertex")
        eset.add(edge_key(u, v))
    return GraphWithBoundary(vs, colors, frozenset(eset), tuple(boundary))


def checked_weights(edges, weights: Mapping | None) -> dict | None:
    """The weights table keyed by canonical edge, as Fractions; None stays None.

    Floats (refused like float coordinates, to protect exactness),
    nonpositive values and keys that are not edges raise ValueError.
    """
    if weights is None:
        return None
    table = {}
    for e, w in weights.items():
        k = edge_key(*e)
        if k not in edges:
            raise ValueError(f"weight given for non-edge {e!r}")
        if isinstance(w, float):
            raise ValueError(f"float weight {w!r} for {e!r}; supply int, str or Fraction")
        w = Fraction(w)
        if w <= 0:
            raise ValueError(f"weight for {e!r} must be positive")
        table[k] = w
    return table


@dataclass(frozen=True)
class ValidationReport:
    mode: str
    problems: tuple[str, ...]
    n_internal: int
    k: int | None
    n_boundary: int

    @property
    def ok(self) -> bool:
        return not self.problems


def bipartite_vertex_classes(g: GraphWithBoundary) -> tuple[list, list]:
    """Row/column vertex orders: blacks, then internal whites + boundary."""
    blacks = [v for v in g.vertices if g.color[v] == BLACK]
    internal_whites = [
        v for v in g.vertices if g.color[v] == WHITE and v not in g.boundary_set
    ]
    return blacks, internal_whites + list(g.boundary)


def graph_kind(g: GraphWithBoundary) -> str:
    """The theorem variant a graph's coloring selects.

    'bipartite' when every vertex is colored, 'general' when none is; a
    graph that mixes colored and uncolored vertices raises ValueError.
    """
    colored = [v for v in g.vertices if g.color[v] != PLAIN]
    if not colored:
        return "general"
    if len(colored) != len(g.vertices):
        raise ValueError("graph mixes colored and uncolored vertices")
    return "bipartite"


def validate(g: GraphWithBoundary) -> ValidationReport:
    """Check the hypotheses of the counting theorems for the graph's kind.

    The kind is `graph_kind(g)`, so a mixed coloring raises ValueError.
    Bipartite graphs need a proper 2-coloring, all boundary vertices
    white and at least as many blacks as internal whites.  The report
    carries every violation plus the kind and the derived counts (N, k, n).
    """
    kind = graph_kind(g)
    problems: list[str] = []
    seen = set()
    for b in g.boundary:
        if b not in g.vertex_index:
            problems.append(f"boundary vertex {b!r} is not a vertex of the graph")
        if b in seen:
            problems.append(f"boundary vertex {b!r} repeated")
        seen.add(b)
    for u, v in sorted(g.edges):
        if u == v:
            problems.append(f"self-loop at {u!r}")
    if kind == "bipartite":
        for u, v in sorted(g.edges):
            if u != v and g.color[u] == g.color[v]:
                problems.append(f"non-bipartite edge ({u!r}, {v!r})")
        for b in g.boundary:
            if b in g.vertex_index and g.color[b] != WHITE:
                problems.append(f"boundary vertex {b!r} is not white")
        blacks, whites = bipartite_vertex_classes(g)
        n_internal = len(whites) - len(g.boundary)
        k = len(blacks) - n_internal
        if k < 0:
            problems.append(
                f"{len(blacks)} black vertices cannot cover {n_internal} internal whites"
            )
    else:
        n_internal = len(g.internal_vertices)
        k = None
    return ValidationReport(kind, tuple(problems), n_internal, k, len(g.boundary))


def is_matching(g: GraphWithBoundary, m: Matching) -> bool:
    covered: set[str] = set()
    for e in m:
        if edge_key(*e) not in g.edges:
            return False
        u, v = e
        if u in covered or v in covered or u == v:
            return False
        covered.update((u, v))
    return all(v in covered for v in g.internal_vertices)


def boundary_of(m: Matching, g: GraphWithBoundary) -> frozenset:
    """The set of boundary vertices covered by the matching m."""
    if not is_matching(g, m):
        raise ValueError("not a matching of the graph")
    covered = {v for e in m for v in e}
    return frozenset(covered & g.boundary_set)


def matching_weight(g: GraphWithBoundary, m: Matching, weights: Mapping | None = None) -> Fraction:
    """Product of the edge weights of m under a `checked_weights` table.

    None means unweighted; edges missing from the table weigh 1.
    """
    total = Fraction(1)
    if weights:
        for e in m:
            total *= weights.get(edge_key(*e), 1)
    return total
