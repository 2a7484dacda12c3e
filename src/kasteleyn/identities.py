"""Checkers for the quadratic identities among boundary measurements.

Each checker takes already-computed tables or points, never a graph, so it
verifies the algebraic consequence independently of how the values were
produced; run against oracle-built tables they double as a test of the
oracle itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random

from . import linalg
from .measurements import (
    GrassmannPoint,
    MeasurementTable,
    PfaffianPoint,
    SkewKasteleynMatrix,
)

# check_pfaffian_consistency: every subset up to this boundary size, else a sample.
EXHAUSTIVE_LIMIT = 12
SAMPLE_SIZE = 256


@dataclass(frozen=True)
class IdentityReport:
    name: str
    holds: bool
    lhs: Fraction
    rhs: Fraction
    detail: str = ""

    def to_jsonable(self) -> dict:
        return {
            "identity": self.name,
            "holds": self.holds,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "detail": self.detail,
        }


def _require_circular(boundary: tuple, quad: tuple) -> None:
    order = {b: i for i, b in enumerate(boundary)}
    missing = [q for q in quad if q not in order]
    if missing:
        raise ValueError(f"{missing} are not boundary vertices")
    if len(set(quad)) != 4:
        raise ValueError("need four distinct boundary vertices")
    pos = [order[q] for q in quad]
    shift = pos.index(min(pos))
    rotated = pos[shift:] + pos[:shift]
    if rotated != sorted(pos):
        raise ValueError(f"{quad} is not in circular boundary order")


def check_kuo_bipartite(t: MeasurementTable, a, b, c, d) -> IdentityReport:
    """D(ac) D(bd) = D(ab) D(cd) + D(ad) D(bc) for circular a, b, c, d."""
    if t.mode != "bipartite" or t.k != 2:
        raise ValueError("needs a bipartite table with two extra white vertices")
    _require_circular(t.boundary, (a, b, c, d))
    lhs = t.value({a, c}) * t.value({b, d})
    rhs = t.value({a, b}) * t.value({c, d}) + t.value({a, d}) * t.value({b, c})
    return IdentityReport("kuo-bipartite", lhs == rhs, lhs, rhs, f"quad={a},{b},{c},{d}")


def check_kuo_general(t: MeasurementTable, a, b, c, d) -> IdentityReport:
    """D(ac) D(bd) + D() D(abcd) = D(ab) D(cd) + D(ad) D(bc), circular quads."""
    if t.mode != "general":
        raise ValueError("needs a general-mode table")
    if t.n_internal % 2:
        raise ValueError("needs an even number of internal vertices")
    _require_circular(t.boundary, (a, b, c, d))
    lhs = t.value({a, c}) * t.value({b, d}) + t.value(()) * t.value({a, b, c, d})
    rhs = t.value({a, b}) * t.value({c, d}) + t.value({a, d}) * t.value({b, c})
    return IdentityReport("kuo-general", lhs == rhs, lhs, rhs, f"quad={a},{b},{c},{d}")


def check_plucker_three_term(p: GrassmannPoint, columns) -> IdentityReport:
    """P13 P24 = P12 P34 + P14 P23 on four increasing boundary columns."""
    if p.k != 2:
        raise ValueError("three-term relation needs k = 2")
    cols = tuple(columns)
    order = {b: i for i, b in enumerate(p.boundary)}
    if len(cols) != 4 or any(c not in order for c in cols):
        raise ValueError("need four boundary columns")
    pos = [order[c] for c in cols]
    if pos != sorted(pos) or len(set(pos)) != 4:
        raise ValueError("columns must be distinct and increasing along the boundary")
    x1, x2, x3, x4 = cols
    lhs = p.value({x1, x3}) * p.value({x2, x4})
    rhs = p.value({x1, x2}) * p.value({x3, x4}) + p.value({x1, x4}) * p.value({x2, x3})
    return IdentityReport(
        "plucker-three-term", lhs == rhs, lhs, rhs, f"columns={','.join(cols)}"
    )


def check_pfaffian_consistency(
    x: SkewKasteleynMatrix,
    y: PfaffianPoint,
    seed: int = 0,
) -> IdentityReport:
    """Pf(X on internals+I) = Pf(Y on I) * Pf(X on internals), X's side as full-size minors."""
    if tuple(y.boundary) != tuple(x.boundary):
        raise ValueError("mismatched boundary labels")
    n = len(x.boundary)
    internals = list(range(x.n_internal))
    base = linalg.pfaffian_minor(x.matrix, internals)
    subsets = [s for size in range(n + 1) for s in combinations(x.boundary, size)]
    if n > EXHAUSTIVE_LIMIT:
        rng = Random(f"pfaffian-consistency:{seed}")
        subsets = rng.sample(subsets, min(SAMPLE_SIZE, len(subsets)))
    checked = 0
    for subset in subsets:
        keep = internals + [x.n_internal + p for p in x.boundary_positions(subset)]
        lhs = linalg.pfaffian_minor(x.matrix, keep)
        rhs = y.value(subset) * base
        checked += 1
        if lhs != rhs:
            return IdentityReport(
                "pfaffian-consistency",
                False,
                lhs,
                rhs,
                f"first failure on subset {{{','.join(subset)}}}",
            )
    return IdentityReport(
        "pfaffian-consistency", True, base, base, f"{checked} subsets verified"
    )
