"""Exact plane geometry over the rationals and single quadratic extensions.

Coordinates are exact rationals (`int` or `fractions.Fraction`) and every
predicate returns an exact sign.  Nothing here re-checks a value: a drawing
with a float coordinate is refused once, by `immersion`, before any
predicate sees it.  An event time (a root of the collinearity polynomial of
a moving vertex/edge pair) is a value a + b*sqrt(d), made canonical once,
where `roots_in_open_unit_interval` creates it; rational quadratics are
evaluated at it in closed form, without rounding, and only the sign of the
result is read.  There is no float fallback anywhere: degeneracies must
surface as typed outcomes, not tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt

Point = tuple[Fraction, Fraction]
Segment = tuple[Point, Point]


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError(f"float coordinate {x!r}; supply int, str or Fraction")
    return Fraction(x)


def point(x, y) -> Point:
    """Build an exact point; floats are refused to protect exactness."""
    return (_frac(x), _frac(y))


def sign_of(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of twice the signed area of the triangle (p, q, r)."""
    return sign_of((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))


class SegmentRelation(Enum):
    DISJOINT = "disjoint"
    TRANSVERSAL_CROSS = "transversal_cross"
    SHARED_ENDPOINT_ONLY = "shared_endpoint_only"
    DEGENERATE = "degenerate"


def point_on_segment(p: Point, a: Point, b: Point) -> str | None:
    """Where p lies against the closed segment ab: None, 'endpoint' or 'interior'.

    A zero-length segment (a == b) reports 'endpoint' for every p, so a
    caller that rejects any contact also rejects a collapsed edge.
    """
    if orient(a, b, p) != 0:
        return None
    d1 = (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])
    d2 = (p[0] - b[0]) * (a[0] - b[0]) + (p[1] - b[1]) * (a[1] - b[1])
    if d1 < 0 or d2 < 0:
        return None
    if d1 == 0 or d2 == 0:
        return "endpoint"
    return "interior"


def segment_relation(s1: Segment, s2: Segment) -> SegmentRelation:
    """Exact classification of how two positive-length segments meet.

    DEGENERATE covers an endpoint of one segment in the interior of the
    other, which includes every collinear overlap but one: two copies of
    the same segment.  These are the cases downstream sign logic must
    never silently count.
    """
    (p, q), (r, s) = s1, s2
    if p == q or r == s:
        raise ValueError("zero-length segment")
    o1 = orient(p, q, r)
    o2 = orient(p, q, s)
    o3 = orient(r, s, p)
    o4 = orient(r, s, q)
    if o1 and o2 and o3 and o4:
        if o1 != o2 and o3 != o4:
            return SegmentRelation.TRANSVERSAL_CROSS
        return SegmentRelation.DISJOINT
    touches = [
        point_on_segment(pt, *seg) for pt, seg in ((r, s1), (s, s1), (p, s2), (q, s2))
    ]
    if "interior" in touches or {p, q} == {r, s}:
        return SegmentRelation.DEGENERATE
    if "endpoint" in touches:
        return SegmentRelation.SHARED_ENDPOINT_ONLY
    return SegmentRelation.DISJOINT


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class QuadNum:
    """The real number a + b*sqrt(d), d >= 0 rational, with an exact sign.

    A plain value: nothing is checked or normalised on construction.  The
    roots that `roots_in_open_unit_interval` returns are canonical: b = 0
    and d = 0 when the root is rational, and otherwise d is not a rational
    square.  That fixes their `str` and every digest built from it.
    Values from `QuadPoly.at` are only asked for their sign.
    """

    a: Fraction
    b: Fraction = Fraction(0)
    d: Fraction = Fraction(0)

    def sign(self) -> int:
        if self.b == 0 or self.d == 0:
            return sign_of(self.a)
        if self.a == 0:
            return sign_of(self.b)
        sa, sb = sign_of(self.a), sign_of(self.b)
        if sa == sb:
            return sa
        # a and b*sqrt(d) pull in opposite directions: compare squares.
        diff = self.a * self.a - self.b * self.b * self.d
        if diff == 0:
            return 0
        return sa if diff > 0 else sb

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.d})"


@dataclass(frozen=True)
class QuadPoly:
    """c2*t**2 + c1*t + c0 with rational coefficients."""

    c2: Fraction
    c1: Fraction
    c0: Fraction

    @property
    def is_zero(self) -> bool:
        return self.c2 == 0 and self.c1 == 0 and self.c0 == 0

    def __call__(self, t: Fraction) -> Fraction:
        return (self.c2 * t + self.c1) * t + self.c0

    def at(self, t: QuadNum) -> QuadNum:
        """The value at t = a + b*sqrt(d), in closed form:

        c2*(a**2 + b**2*d) + c1*a + c0 + b*(2*c2*a + c1)*sqrt(d).
        """
        a, b, d = t.a, t.b, t.d
        return QuadNum(
            self.c2 * (a * a + b * b * d) + self.c1 * a + self.c0,
            b * (2 * self.c2 * a + self.c1),
            d,
        )


def roots_in_open_unit_interval(p: QuadPoly) -> list[tuple[QuadNum, int]]:
    """Exact roots of p in (0, 1) as (root, multiplicity), ascending.

    Raises ValueError on the identically-zero polynomial: the caller owns
    that degeneracy.
    """
    if p.is_zero:
        raise ValueError("identically zero polynomial has no isolated roots")
    found: list[tuple[QuadNum, int]] = []
    if p.c2 == 0:
        if p.c1 != 0:
            found.append((QuadNum(Fraction(-p.c0, p.c1)), 1))
    else:
        disc = p.c1 * p.c1 - 4 * p.c2 * p.c0
        if disc == 0:
            found.append((QuadNum(Fraction(-p.c1, 2 * p.c2)), 2))
        elif disc > 0:
            centre = Fraction(-p.c1, 2 * p.c2)
            spread = Fraction(1, 2 * abs(p.c2))  # positive: the lower root comes first
            root = _rational_sqrt(disc)
            if root is None:
                lo, hi = QuadNum(centre, -spread, disc), QuadNum(centre, spread, disc)
            else:
                lo, hi = QuadNum(centre - spread * root), QuadNum(centre + spread * root)
            found.extend([(lo, 1), (hi, 1)])
    return [
        (r, m) for (r, m) in found if r.sign() > 0 and QuadNum(r.a - 1, r.b, r.d).sign() < 0
    ]


def _lin_mul(u0: Fraction, u1: Fraction, v0: Fraction, v1: Fraction):
    """(u0 + u1 t)(v0 + v1 t) -> quadratic coefficient triple (c2, c1, c0)."""
    return u1 * v1, u0 * v1 + u1 * v0, u0 * v0


def _motion_differences(v_start, v_end, a_start, a_end, b_start, b_end):
    """Coordinates of b - a and v - a along the motion, each as (value at 0, slope)."""
    bx0, by0 = b_start[0] - a_start[0], b_start[1] - a_start[1]
    vx0, vy0 = v_start[0] - a_start[0], v_start[1] - a_start[1]
    return (
        (bx0, (b_end[0] - a_end[0]) - bx0),
        (by0, (b_end[1] - a_end[1]) - by0),
        (vx0, (v_end[0] - a_end[0]) - vx0),
        (vy0, (v_end[1] - a_end[1]) - vy0),
    )


def motion_collinearity_poly(bx, by, vx, vy) -> QuadPoly:
    """Signed area of (v(t), a(t), b(t)) under linear interpolation.

    Takes the four (value at 0, slope) pairs of `_motion_differences`.
    Roots in (0, 1) are the candidate times at which the vertex path v(t)
    meets the line through the moving edge (a(t), b(t)).
    """
    t2a, t1a, t0a = _lin_mul(*bx, *vy)
    t2b, t1b, t0b = _lin_mul(*by, *vx)
    return QuadPoly(t2a - t2b, t1a - t1b, t0a - t0b)


def motion_betweenness_polys(bx, by, vx, vy) -> tuple[QuadPoly, QuadPoly, QuadPoly]:
    """Quadratics (v-a).(b-a), (v-b).(a-b) and |b-a|^2 along the motion.

    Takes the four (value at 0, slope) pairs of `_motion_differences`.  At
    a collinearity root both dot products strictly positive means the
    vertex sits strictly between the edge endpoints.
    """

    def add3(u, v):
        return QuadPoly(u[0] + v[0], u[1] + v[1], u[2] + v[2])

    dot_va = add3(_lin_mul(*vx, *bx), _lin_mul(*vy, *by))
    len2 = add3(_lin_mul(*bx, *bx), _lin_mul(*by, *by))
    # (v-b).(a-b) = |b-a|^2 - (v-a).(b-a)
    dot_vb = QuadPoly(len2.c2 - dot_va.c2, len2.c1 - dot_va.c1, len2.c0 - dot_va.c0)
    return dot_va, dot_vb, len2


# Rational points on the unit circle via the half-angle parametrization.
# t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)) is increasing in the angle on (-pi, pi)
# and misses only (-1, 0).

def unit_circle_point(t: Fraction) -> Point:
    t = _frac(t)
    den = 1 + t * t
    return (Fraction(1 - t * t, 1) / den, 2 * t / den)


def on_unit_circle(p: Point) -> bool:
    return p[0] * p[0] + p[1] * p[1] == 1


def inside_unit_circle(p: Point) -> bool:
    return p[0] * p[0] + p[1] * p[1] < 1


def unit_circle_param(p: Point) -> Fraction | None:
    """Inverse of unit_circle_point; None encodes the missing point (-1, 0)."""
    if not on_unit_circle(p):
        raise ValueError(f"{p} is not on the unit circle")
    if p[0] == -1:
        return None
    return p[1] / (1 + p[0])


def circle_sort_key(p: Point) -> tuple[int, Fraction]:
    """Sort key realizing the counterclockwise order of unit-circle points.

    Ascending keys sweep the angle from just above -pi around to +pi,
    with (-1, 0) greatest.
    """
    t = unit_circle_param(p)
    if t is None:
        return (1, Fraction(0))
    return (0, t)
