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
    point_on_segment,
    roots_in_open_unit_interval,
)
from .graphs import GraphWithBoundary
from .immersion import Configuration, PathPlan, _check_total, canonical_start


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
    transversal: bool = True

    def to_jsonable(self) -> dict:
        return {
            "segment": self.segment,
            "vertex": self.vertex,
            "edge": list(self.edge),
            "t": {"a": str(self.t.a), "b": str(self.t.b), "d": str(self.t.d)},
            "transversal": self.transversal,
        }


@dataclass(frozen=True)
class SignAssignment:
    signs: dict
    events: tuple
    seed: int
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
    g: GraphWithBoundary,
    pinned: frozenset,
    start: Configuration,
    target: Configuration,
    rng: Random,
) -> Configuration:
    """One interior waypoint on the 1/2^16 lattice for all unpinned vertices.

    With a pinned boundary the samples stay strictly inside the unit disc,
    which keeps every edge interior off the circle and the pinned vertices
    safe from events.
    """
    grain = 1 << 16
    config: Configuration = {}
    if pinned:
        for v in g.vertices:
            if v in pinned:
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
) -> PathPlan:
    """Straight-line path from the canonical start to the target.

    The start drawing follows the graph's own mode (`canonical_start`), so
    a graph mixing colored and uncolored vertices raises ValueError.
    Boundary vertices are pinned at their target positions throughout.
    Optional seeded interior waypoints are inserted to break degeneracies
    found during transport.
    """
    pinned = frozenset(g.boundary)
    start = canonical_start(g, target, seed)
    rng = Random(f"waypoints:{seed}")
    waypoints = [start]
    for _ in range(extra_waypoints):
        waypoints.append(_random_waypoint(g, pinned, start, target, rng))
    waypoints.append(dict(target))
    deduped = [waypoints[0]]
    for w in waypoints[1:]:
        if w != deduped[-1]:
            deduped.append(w)
    return PathPlan(tuple(deduped), pinned)


def transport_signs(g: GraphWithBoundary, path: PathPlan, seed: int = 0) -> SignAssignment:
    """Accumulate edge sign flips over every vertex-through-edge event.

    For each path segment and each pair (vertex v, edge e) with v not an
    endpoint of e, the collinearity quadratic is solved exactly; a simple
    root in (0, 1) at which v lies strictly between the endpoints of e
    flips e's sign.  Tangential contacts, hits at segment junctions,
    vertex-meets-endpoint coincidences and identically-collinear motions
    raise DegeneratePath.  Every waypoint is checked once for a vertex on a
    non-incident edge: at the first or last waypoint that is a ValueError
    (the path endpoints must be immersions), at an interior one a
    DegeneratePath.  Before that, a waypoint that misses a vertex is a
    ValueError and one with a float coordinate a TypeError.
    """
    for w in path.waypoints:
        _check_total(g, w)
    signs = {e: 1 for e in g.sorted_edges}
    events: list[EventRecord] = []
    # A path without motion is one still segment, so its drawing is checked too.
    waypoints = path.waypoints if path.segments else path.waypoints * 2
    last = len(waypoints) - 1
    for si in range(last):
        w0, w1 = waypoints[si], waypoints[si + 1]
        moving = {v for v in g.vertices if w0[v] != w1[v]}
        checked = (si, si + 1) if si == 0 else (si + 1,)
        for e in g.sorted_edges:
            a, b = e
            for v in g.vertices:
                if v == a or v == b:
                    continue
                for wi in checked:
                    w = waypoints[wi]
                    where = point_on_segment(w[v], w[a], w[b])
                    if where is not None:
                        if wi == 0 or wi == last:
                            raise ValueError("path endpoints must be immersions")
                        raise DegeneratePath(
                            f"vertex {v!r} meets edge {e} exactly at waypoint {wi} ({where})"
                        )
                if v not in moving and a not in moving and b not in moving:
                    continue
                diffs = _motion_differences(w0[v], w1[v], w0[a], w1[a], w0[b], w1[b])
                f = motion_collinearity_poly(*diffs)
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
                        events.append(EventRecord(si, t0, v, e, True))
    # Stable sort: roots of one (vertex, edge) pair keep their time order.
    events.sort(key=lambda ev: (ev.segment, ev.vertex, ev.edge))
    for ev in events:
        assert ev.vertex not in path.pinned, "pinned vertex named as event mover"
    return SignAssignment(signs, tuple(events), seed)


def compute_signed_structure(
    g: GraphWithBoundary,
    target: Configuration,
    seed: int = 0,
    max_retries: int = 32,
) -> SignAssignment:
    """Transport with deterministic retry on degeneracy.

    The start drawing and the pinned vertices follow from the graph alone
    (`build_path`); a graph mixing colored and uncolored vertices raises
    ValueError.  Attempt i reruns the whole construction with a derived
    seed; retries insert one random interior waypoint to step around the
    codimension-two bad set.  Deterministic in (inputs, seed).
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be nonnegative, not {max_retries}")
    last: DegeneratePath | None = None
    for attempt in range(max_retries + 1):
        attempt_seed = derive_seed(seed, attempt)
        path = build_path(g, target, attempt_seed, extra_waypoints=0 if attempt == 0 else 1)
        try:
            result = transport_signs(g, path, seed=attempt_seed)
        except DegeneratePath as exc:
            last = exc
            continue
        return SignAssignment(result.signs, result.events, seed, attempts=attempt + 1)
    assert last is not None
    raise RetriesExhausted(max_retries + 1, last)
