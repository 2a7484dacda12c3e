"""Sign transport along a piecewise-linear deformation of a drawing.

Starting from a canonical drawing where every matrix entry may be +1, the
configuration is deformed to the target.  Whenever a vertex passes
transversally through the interior of a non-incident edge, the crossing
parity of exactly the matchings containing that edge flips, so the sign of
that edge's entry is switched.  Events are located exactly as roots
a + b*sqrt(d) of quadratics and validated by the exact signs of other
quadratics evaluated at the root in closed form; anything ambiguous
(tangency, a hit at a segment junction, a vertex meeting an edge
endpoint) raises DegeneratePath and the caller retries with a perturbed
path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .geometry import (
    QuadNum,
    _motion_differences,
    motion_betweenness_polys,
    motion_collinearity_poly,
    roots_in_open_unit_interval,
)
from .graphs import GraphWithBoundary
from .immersion import Configuration, _check_total, canonical_start


class DegeneratePath(Exception):
    """The path hit a configuration where an event cannot be classified."""


class RetriesExhausted(Exception):
    """Every perturbed path degenerated; carries the last diagnostic."""

    def __init__(self, attempts: int, last: DegeneratePath):
        super().__init__(f"no usable path after {attempts} attempts: {last}")
        self.attempts = attempts
        self.last = last


@dataclass(frozen=True)
class EventRecord:
    segment: int
    t: QuadNum
    vertex: str
    edge: tuple

    def to_jsonable(self) -> dict:
        return {
            "segment": self.segment,
            "vertex": self.vertex,
            "edge": list(self.edge),
            "t": {"a": str(self.t.a), "b": str(self.t.b), "d": str(self.t.d)},
            "transversal": True,  # every recorded event is a transversal pass
        }


@dataclass(frozen=True)
class SignAssignment:
    signs: dict
    events: tuple
    seed: int | None = None  # the `compute_signed_structure` seed; None for a given path
    attempts: int = 1

    def sign(self, e) -> int:
        return self.signs[e]

    def digest(self) -> str:
        payload = ";".join(
            f"{ev.segment}|{ev.vertex}|{ev.edge}|{ev.t}" for ev in self.events
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_jsonable(self) -> dict:
        return {
            "seed": self.seed,
            "attempts": self.attempts,
            "signs": {f"{u},{v}": s for (u, v), s in sorted(self.signs.items())},
            "events": [ev.to_jsonable() for ev in self.events],
        }


def derive_seed(seed: int, attempt: int) -> int:
    return seed * 1_000_003 + attempt


def _random_waypoint(
    g: GraphWithBoundary, start: Configuration, target: Configuration, rng: Random
) -> Configuration:
    """One waypoint on the 1/2^16 lattice for all non-boundary vertices.

    The boundary stays at its target positions and the samples strictly
    inside the unit disc, which keeps every edge interior off the circle
    and the boundary vertices safe from events.
    """
    grain = 1 << 16
    config: Configuration = {}
    if g.boundary:
        for v in g.vertices:
            if v in g.boundary_set:
                config[v] = target[v]
                continue
            while True:
                x = Fraction(rng.randrange(-grain + 1, grain), grain)
                y = Fraction(rng.randrange(-grain + 1, grain), grain)
                if x * x + y * y < 1:
                    config[v] = (x, y)
                    break
        return config
    xs = [p[0] for c in (start, target) for p in c.values()]
    ys = [p[1] for c in (start, target) for p in c.values()]
    x_lo, x_hi = min(xs) - 1, max(xs) + 1
    y_lo, y_hi = min(ys) - 1, max(ys) + 1
    for v in g.vertices:
        x = x_lo + Fraction(rng.randrange(int((x_hi - x_lo) * grain)), grain)
        y = y_lo + Fraction(rng.randrange(int((y_hi - y_lo) * grain)), grain)
        config[v] = (x, y)
    return config


def build_path(
    g: GraphWithBoundary,
    target: Configuration,
    seed: int = 0,
    extra_waypoints: int = 0,
) -> tuple:
    """Waypoints of a straight-line path from the canonical start to the target.

    The start drawing follows the graph's own mode (`canonical_start`), so
    a graph mixing colored and uncolored vertices, or a graph with a
    boundary whose target breaks the disc rule, raises ValueError.
    Boundary vertices stay at their target positions throughout.
    Optional seeded interior waypoints are inserted to break degeneracies
    found during transport.  A path has two waypoints or more, even a still one.
    """
    start = canonical_start(g, target, seed)
    rng = Random(f"waypoints:{seed}")
    waypoints = [start]
    for _ in range(extra_waypoints):
        waypoints.append(_random_waypoint(g, start, target, rng))
    waypoints.append(dict(target))
    return tuple(waypoints)


def transport_signs(g: GraphWithBoundary, waypoints: tuple) -> SignAssignment:
    """Accumulate edge sign flips over every vertex-through-edge event.

    Each segment and pair (vertex v, edge e not at v) is read from its
    motion polynomials alone: the collinearity quadratic f and the dot
    products of `motion_betweenness_polys`.  A simple root of f in (0, 1)
    with v strictly between e's endpoints flips e's sign; tangencies, hits
    at segment junctions or at an endpoint and collinear motions raise
    DegeneratePath.  Each waypoint is checked once, at its time t (0 or 1)
    on a segment: f(t) = 0 with both dot products >= 0 is a contact,
    'interior' if both are > 0, else 'endpoint' (so is a zero-length edge);
    a ValueError at the first or last waypoint (the path endpoints must be
    immersions), a DegeneratePath at an interior one.  Before that, a
    waypoint that misses a vertex is a ValueError and one with a float
    coordinate a TypeError.  Only a vertex that every matching covers may
    flip a sign, so after the scan an event on a boundary vertex raises
    ValueError.
    """
    for w in waypoints:
        _check_total(g, w)
    signs = {e: 1 for e in g.sorted_edges}
    events: list[EventRecord] = []
    # A path without motion is one still segment, so its drawing is checked too.
    waypoints = waypoints if len(waypoints) > 1 else waypoints * 2
    last = len(waypoints) - 1
    for si in range(last):
        w0, w1 = waypoints[si], waypoints[si + 1]
        moving = {v for v in g.vertices if w0[v] != w1[v]}
        unchecked = (0, 1) if si == 0 else (1,)  # waypoint times no earlier segment read
        for e in g.sorted_edges:
            a, b = e
            for v in g.vertices:
                if v == a or v == b:
                    continue
                diffs = _motion_differences(w0[v], w1[v], w0[a], w1[a], w0[b], w1[b])
                f = motion_collinearity_poly(*diffs)
                for t in (t for t in unchecked if f(t) == 0):
                    d1, d2 = (p(t) for p in motion_betweenness_polys(*diffs)[:2])
                    if d1 < 0 or d2 < 0:
                        continue
                    if si + t in (0, last):
                        raise ValueError("path endpoints must be immersions")
                    where = "interior" if d1 > 0 and d2 > 0 else "endpoint"
                    raise DegeneratePath(
                        f"vertex {v!r} meets edge {e} exactly at waypoint {si + t} ({where})"
                    )
                if v not in moving and a not in moving and b not in moving:
                    continue
                if f.is_zero:
                    raise DegeneratePath(
                        f"vertex {v!r} stays collinear with edge {e} on segment {si}"
                    )
                roots = roots_in_open_unit_interval(f)
                if not roots:
                    continue
                dot_va, dot_vb, len2 = motion_betweenness_polys(*diffs)
                for t0, mult in roots:
                    if len2.at(t0).sign() == 0:
                        raise DegeneratePath(
                            f"edge {e} collapses while vertex {v!r} is collinear "
                            f"(segment {si})"
                        )
                    s1 = dot_va.at(t0).sign()
                    s2 = dot_vb.at(t0).sign()
                    if s1 == 0 or s2 == 0:
                        raise DegeneratePath(
                            f"vertex {v!r} meets an endpoint of edge {e} (segment {si})"
                        )
                    between = s1 > 0 and s2 > 0
                    if mult == 2:
                        if between:
                            raise DegeneratePath(
                                f"tangential contact of vertex {v!r} with edge {e} "
                                f"(segment {si})"
                            )
                        continue
                    if between:
                        signs[e] = -signs[e]
                        events.append(EventRecord(si, t0, v, e))
    # Stable sort: roots of one (vertex, edge) pair keep their time order.
    events.sort(key=lambda ev: (ev.segment, ev.vertex, ev.edge))
    for ev in events:
        if ev.vertex in g.boundary_set:
            raise ValueError(f"boundary vertex {ev.vertex!r} meets edge {ev.edge}")
    return SignAssignment(signs, tuple(events))


def compute_signed_structure(
    g: GraphWithBoundary,
    target: Configuration,
    seed: int = 0,
    max_retries: int = 32,
) -> SignAssignment:
    """Transport with deterministic retry on degeneracy.

    The start drawing follows from the graph and the target (`build_path`);
    a graph mixing colored and uncolored vertices, or a boundary graph's
    target that breaks the disc rule, raises ValueError.  Attempt i reruns
    the whole construction with a derived seed; retries insert one random
    interior waypoint to step around the codimension-two bad set.  The
    result carries `seed` itself.  Deterministic in (inputs, seed).
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be nonnegative, not {max_retries}")
    last: DegeneratePath | None = None
    for attempt in range(max_retries + 1):
        attempt_seed = derive_seed(seed, attempt)
        path = build_path(g, target, attempt_seed, extra_waypoints=0 if attempt == 0 else 1)
        try:
            result = transport_signs(g, path)
        except DegeneratePath as exc:
            last = exc
            continue
        return SignAssignment(result.signs, result.events, seed, attempts=attempt + 1)
    assert last is not None
    raise RetriesExhausted(max_retries + 1, last)
