"""Deterministic fixture generators: grids, diamonds, random disc graphs.

All generators are pure functions of their arguments; rerunning with the
same seed reproduces the graph and drawing bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .geometry import Point, unit_circle_point
from .graphs import BLACK, WHITE, GraphWithBoundary, make_graph, validate
from .immersion import (
    Configuration,
    edge_is_clear,
    edges_cross,
    is_disc_embedding,
    is_embedding,
)


class UnrealizableParameters(Exception):
    """No valid instance exists (or was found) for the requested parameters."""


def generate_grid(rows: int, cols: int) -> tuple[GraphWithBoundary, Configuration]:
    """Checkerboard-colored grid graph on integer coordinates, no boundary."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    names = {}
    colors = {}
    config: Configuration = {}
    for r in range(rows):
        for c in range(cols):
            v = f"g{r}x{c}"
            names[(r, c)] = v
            colors[v] = BLACK if (r + c) % 2 == 0 else WHITE
            config[v] = (Fraction(c), Fraction(r))
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((names[(r, c)], names[(r, c + 1)]))
            if r + 1 < rows:
                edges.append((names[(r, c)], names[(r + 1, c)]))
    g = make_graph(names.values(), colors, edges)
    return g, config


def generate_aztec(order: int) -> tuple[GraphWithBoundary, Configuration]:
    """Dual graph of the diamond-shaped union of 2*order*(order+1) squares.

    Vertices are the unit squares, adjacent when they share a side;
    matchings correspond to domino tilings.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    cells = {}
    colors = {}
    config: Configuration = {}
    for i in range(-order, order):
        for j in range(-order, order):
            if abs(2 * i + 1) + abs(2 * j + 1) <= 2 * order:
                v = f"s{i}x{j}"
                cells[(i, j)] = v
                colors[v] = BLACK if (i + j) % 2 == 0 else WHITE
                config[v] = (Fraction(2 * i + 1), Fraction(2 * j + 1))
    edges = []
    for (i, j), v in cells.items():
        for di, dj in ((1, 0), (0, 1)):
            if (i + di, j + dj) in cells:
                edges.append((v, cells[(i + di, j + dj)]))
    g = make_graph(cells.values(), colors, edges)
    return g, config


def _distinct_circle_params(rng: Random, count: int) -> list[Fraction]:
    params: set[Fraction] = set()
    while len(params) < count:
        params.add(Fraction(rng.randrange(-(1 << 12), 1 << 12), 1 << 8))
    return sorted(params)


def _interior_points(rng: Random, count: int, taken: set[Point]) -> list[Point]:
    grain = 1 << 10
    points: list[Point] = []
    while len(points) < count:
        x = Fraction(rng.randrange(-grain + 1, grain), grain)
        y = Fraction(rng.randrange(-grain + 1, grain), grain)
        p = (x, y)
        if x * x + y * y < 1 and p not in taken:
            taken.add(p)
            points.append(p)
    return points


def _segment_ok(config: Configuration, vertices, existing, u: str, v: str) -> bool:
    """Candidate edge may enter: no vertex on it, no crossing with a vertex-disjoint edge.

    Every accepted edge passed the same vertex test, so edges sharing a
    vertex meet only there, as in `is_embedding`.
    """
    return edge_is_clear(config, vertices, u, v) and not any(
        edges_cross(config, (u, v), (x, y)) for x, y in existing if not {u, v} & {x, y}
    )


def _greedy_planar_edges(
    config: Configuration, vertices, candidates, rng: Random
) -> list[tuple[str, str]]:
    order = list(candidates)
    rng.shuffle(order)
    chosen: list[tuple[str, str]] = []
    for u, v in order:
        if _segment_ok(config, vertices, chosen, u, v):
            chosen.append((u, v))
    return chosen


def generate_random_disc_graph(
    mode: str,
    n_boundary: int,
    n_internal: int = 0,
    k: int = 0,
    seed: int = 0,
) -> tuple[GraphWithBoundary, Configuration]:
    """Random straight-line planar graph drawn in the unit disc.

    mode 'bipartite': n_internal internal whites, n_internal + k blacks and
    n_boundary white boundary vertices; edges only between blacks and
    whites.  mode 'general': n_internal uncolored internal vertices plus
    the boundary.  The result always passes validation and the disc
    embedding predicate.
    """
    rng = Random(f"disc:{mode}:{n_boundary}:{n_internal}:{k}:{seed}")
    if mode not in ("bipartite", "general"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "bipartite" and k > n_boundary:
        raise UnrealizableParameters(
            f"k={k} extra blacks but only {n_boundary} boundary vertices: "
            "no k-subset can be matched"
        )
    if mode == "bipartite" and k < 0:
        raise UnrealizableParameters("k must be nonnegative")
    if mode == "bipartite" and n_boundary == n_internal == 0:
        raise UnrealizableParameters("an empty graph has no colors, so its kind is general")
    boundary = [f"t{i}" for i in range(n_boundary)]
    config: Configuration = {}
    for b, t in zip(boundary, _distinct_circle_params(rng, n_boundary)):
        config[b] = unit_circle_point(t)
    taken = set(config.values())
    colors = {}
    if mode == "bipartite":
        blacks = [f"b{i}" for i in range(n_internal + k)]
        whites = [f"w{i}" for i in range(n_internal)]
        interior = blacks + whites
        colors.update({b: BLACK for b in blacks})
        colors.update({w: WHITE for w in whites})
        colors.update({b: WHITE for b in boundary})
        candidates = [
            (b, w) for b in blacks for w in whites + boundary
        ]
    else:
        interior = [f"v{i}" for i in range(n_internal)]
        everything = interior + boundary
        candidates = [
            (everything[i], everything[j])
            for i in range(len(everything))
            for j in range(i + 1, len(everything))
        ]
    for v, p in zip(interior, _interior_points(rng, len(interior), taken)):
        config[v] = p
    vertices = interior + boundary
    edges = _greedy_planar_edges(config, vertices, candidates, rng)
    g = make_graph(vertices, colors, edges, boundary)
    report = validate(g)
    assert report.ok and report.mode == mode, report
    assert is_disc_embedding(g, config)
    return g, config


def generate_triangulation_subgraph(
    n_vertices: int, seed: int = 0, drop_one_in: int = 4
) -> tuple[GraphWithBoundary, Configuration]:
    """Maximal random planar graph on disc points with some edges dropped.

    Closed (no boundary), uncolored; a fixture source for the skew
    counting checks.
    """
    rng = Random(f"tri:{n_vertices}:{seed}:{drop_one_in}")
    vertices = [f"v{i}" for i in range(n_vertices)]
    config: Configuration = {}
    for v, p in zip(vertices, _interior_points(rng, n_vertices, set())):
        config[v] = p
    candidates = [
        (vertices[i], vertices[j])
        for i in range(n_vertices)
        for j in range(i + 1, n_vertices)
    ]
    edges = _greedy_planar_edges(config, vertices, candidates, rng)
    kept = [e for e in edges if drop_one_in <= 1 or rng.randrange(drop_one_in) != 0]
    g = make_graph(vertices, {}, kept)
    assert is_embedding(g, config)
    return g, config
