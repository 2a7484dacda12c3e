"""The line-oriented graph file format and its exact round-trip codec.

Grammar (one record per line, `#` starts a comment, blank lines ignored):

    vertex <id> <black|white|plain> <x> <y>
    edge <id> <id> [<weight>]
    boundary <id> <id> ...        # at most once, counterclockwise order

Coordinates and weights are integers or fractions `p/q`; decimal literals
are rejected so nothing is silently rounded.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .graphs import COLORS, GraphWithBoundary, edge_key, make_graph
from .immersion import Configuration

_NUMBER = re.compile(r"^[+-]?\d+(/\d+)?$")


class GraphFileError(Exception):
    """Parse failure with a 1-based line and column position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


def _tokens(line: str) -> list[tuple[int, str]]:
    out = []
    for m in re.finditer(r"\S+", line):
        if m.group().startswith("#"):
            break
        out.append((m.start() + 1, m.group()))
    return out


def _number(line_no: int, col: int, token: str, what: str) -> Fraction:
    if not _NUMBER.match(token):
        raise GraphFileError(
            line_no, col, f"{what} {token!r} is not an integer or fraction p/q"
        )
    _, _, denominator = token.partition("/")
    if denominator and int(denominator) == 0:
        raise GraphFileError(line_no, col, f"{what} {token!r} has zero denominator")
    return Fraction(token)


def parse(text: str) -> tuple[GraphWithBoundary, Configuration]:
    """Parse a graph file into a graph plus its drawing."""
    vertices: list[str] = []
    colors: dict[str, str] = {}
    config: Configuration = {}
    edges: list[tuple[str, str]] = []
    seen_edges: set = set()
    weights: dict = {}
    boundary: tuple[str, ...] | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokens(raw)
        if not tokens:
            continue
        col0, keyword = tokens[0]
        rest = tokens[1:]
        if keyword == "vertex":
            if len(rest) != 4:
                raise GraphFileError(
                    line_no, col0, "vertex takes: id, color, x, y"
                )
            (c1, vid), (c2, color), (c3, x), (c4, y) = rest
            if vid in colors:
                raise GraphFileError(line_no, c1, f"duplicate vertex id {vid!r}")
            if color not in COLORS:
                raise GraphFileError(
                    line_no, c2, f"color must be one of {'/'.join(COLORS)}, got {color!r}"
                )
            vertices.append(vid)
            colors[vid] = color
            config[vid] = (_number(line_no, c3, x, "coordinate"),
                           _number(line_no, c4, y, "coordinate"))
        elif keyword == "edge":
            if len(rest) not in (2, 3):
                raise GraphFileError(line_no, col0, "edge takes: id, id, [weight]")
            (c1, u), (c2, v) = rest[:2]
            for cc, vid in ((c1, u), (c2, v)):
                if vid not in colors:
                    raise GraphFileError(line_no, cc, f"undeclared vertex {vid!r}")
            if u == v:
                raise GraphFileError(line_no, c2, f"self-loop at {u!r}")
            key = edge_key(u, v)
            if key in seen_edges:
                raise GraphFileError(line_no, c1, f"duplicate edge {u!r}-{v!r}")
            seen_edges.add(key)
            edges.append((u, v))
            if len(rest) == 3:
                c3, w = rest[2]
                value = _number(line_no, c3, w, "weight")
                if value <= 0:
                    raise GraphFileError(line_no, c3, f"weight must be positive, got {w}")
                weights[key] = value
        elif keyword == "boundary":
            if boundary is not None:
                raise GraphFileError(line_no, col0, "second boundary line")
            if not rest:
                raise GraphFileError(line_no, col0, "boundary line lists vertex ids")
            ids = []
            for cc, vid in rest:
                if vid not in colors:
                    raise GraphFileError(line_no, cc, f"undeclared vertex {vid!r}")
                if vid in ids:
                    raise GraphFileError(line_no, cc, f"repeated boundary vertex {vid!r}")
                ids.append(vid)
            boundary = tuple(ids)
        else:
            raise GraphFileError(
                line_no, col0, f"unknown directive {keyword!r}"
            )
    g = make_graph(vertices, colors, edges, boundary or (), weights or None)
    return g, config


def serialize(g: GraphWithBoundary, c: Configuration) -> str:
    """Canonical text form; parse(serialize(g, c)) reproduces (g, c)."""
    lines = []
    for v in g.vertices:
        x, y = c[v]
        lines.append(f"vertex {v} {g.color[v]} {x} {y}")
    if g.boundary:
        lines.append("boundary " + " ".join(g.boundary))
    for e in g.sorted_edges:
        u, v = e
        if g.weights is not None and e in g.weights:
            lines.append(f"edge {u} {v} {g.weights[e]}")
        else:
            lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"
