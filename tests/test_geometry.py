from fractions import Fraction
from random import Random

import pytest

from kasteleyn.geometry import (
    QuadNum,
    QuadPoly,
    SegmentRelation,
    motion_betweenness_polys,
    motion_collinearity_poly,
    on_unit_circle,
    orient,
    point_on_segment,
    roots_in_open_unit_interval,
    segment_relation,
    sign_at,
    unit_circle_param,
    unit_circle_point,
)

F = Fraction


def pt(x, y):
    return (F(x), F(y))


class TestOrient:
    def test_unit_triangle(self):
        assert orient(pt(0, 0), pt(1, 0), pt(0, 1)) == 1

    def test_collinear(self):
        assert orient(pt(0, 0), pt(1, 1), pt(2, 2)) == 0

    def test_reflected(self):
        assert orient(pt(0, 0), pt(0, 1), pt(1, 0)) == -1

    def test_antisymmetry_random(self):
        rng = Random(7)
        for _ in range(100):
            p, q, r = (
                (F(rng.randrange(-9, 10)), F(rng.randrange(-9, 10))) for _ in range(3)
            )
            base = orient(p, q, r)
            assert orient(q, p, r) == -base
            assert orient(p, r, q) == -base
            assert orient(r, q, p) == -base


class TestSegmentRelation:
    def test_x_shape(self):
        rel = segment_relation((pt(0, 0), pt(1, 1)), (pt(0, 1), pt(1, 0)))
        assert rel is SegmentRelation.TRANSVERSAL_CROSS

    def test_far_apart(self):
        rel = segment_relation((pt(0, 0), pt(1, 0)), (pt(2, 0), pt(3, 0)))
        assert rel is SegmentRelation.DISJOINT

    def test_endpoint_in_interior(self):
        rel = segment_relation((pt(0, 0), pt(2, 0)), (pt(1, 0), pt(1, 1)))
        assert rel is SegmentRelation.DEGENERATE

    def test_collinear_overlap(self):
        rel = segment_relation((pt(0, 0), pt(2, 0)), (pt(1, 0), pt(3, 0)))
        assert rel is SegmentRelation.DEGENERATE

    def test_collinear_touch(self):
        rel = segment_relation((pt(0, 0), pt(1, 0)), (pt(1, 0), pt(2, 0)))
        assert rel is SegmentRelation.SHARED_ENDPOINT_ONLY

    def test_shared_endpoint_angled(self):
        rel = segment_relation((pt(0, 0), pt(1, 0)), (pt(1, 0), pt(1, 1)))
        assert rel is SegmentRelation.SHARED_ENDPOINT_ONLY

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            segment_relation((pt(0, 0), pt(0, 0)), (pt(1, 0), pt(2, 0)))


class TestPointOnSegment:
    @pytest.mark.parametrize(
        "p,a,b,where",
        [
            (pt(1, 1), pt(0, 0), pt(2, 2), "interior"),
            (pt(0, 0), pt(0, 0), pt(2, 2), "endpoint"),
            (pt(2, 2), pt(0, 0), pt(2, 2), "endpoint"),
            (pt(1, 0), pt(0, 0), pt(2, 2), None),  # off the line
            (pt(3, 3), pt(0, 0), pt(2, 2), None),  # collinear, beyond b
            (pt(-1, -1), pt(0, 0), pt(2, 2), None),  # collinear, before a
            (pt(1, 1), pt(0, 0), pt(0, 0), "endpoint"),  # zero length
            (pt(0, 0), pt(0, 0), pt(0, 0), "endpoint"),
        ],
    )
    def test_table(self, p, a, b, where):
        assert point_on_segment(p, a, b) == where
        assert point_on_segment(p, b, a) == where


class TestQuadNum:
    def test_rational_collapse(self):
        # sqrt(9/4) collapses to 3/2.
        x = QuadNum(F(1), F(2), F(9, 4))
        assert x.is_rational and x.as_fraction() == 4

    def test_sign_opposing_parts(self):
        # 2 - sqrt(2) > 0, 1 - sqrt(2) < 0.
        assert QuadNum(F(2), F(-1), F(2)).sign() == 1
        assert QuadNum(F(1), F(-1), F(2)).sign() == -1

    def test_sign_zero(self):
        # sqrt(2)*sqrt(2) - 2 = 0 via multiplication.
        r = QuadNum(F(0), F(1), F(2))
        assert (r * r - 2).sign() == 0

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            QuadNum(F(0), F(1), F(2)) + QuadNum(F(0), F(1), F(3))

    def test_comparisons(self):
        root2 = QuadNum(F(0), F(1), F(2))
        assert QuadNum(F(1)) < root2 < QuadNum(F(3, 2))


class TestRoots:
    def test_two_rational_roots(self):
        roots = roots_in_open_unit_interval(QuadPoly(F(1), F(-1), F(3, 16)))
        assert [(r.as_fraction(), m) for r, m in roots] == [(F(1, 4), 1), (F(3, 4), 1)]

    def test_no_real_roots(self):
        assert roots_in_open_unit_interval(QuadPoly(F(1), F(0), F(1))) == []

    def test_double_root(self):
        roots = roots_in_open_unit_interval(QuadPoly(F(1), F(-1), F(1, 4)))
        assert [(r.as_fraction(), m) for r, m in roots] == [(F(1, 2), 2)]

    def test_irrational_roots(self):
        # t^2 - t + 1/8: roots (1 +- sqrt(1/2))/2, both in (0, 1).
        roots = roots_in_open_unit_interval(QuadPoly(F(1), F(-1), F(1, 8)))
        assert len(roots) == 2
        for r, m in roots:
            assert m == 1
            assert sign_at([F(1), F(-1), F(1, 8)], r) == 0
        assert (roots[0][0] - roots[1][0]).sign() < 0

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            roots_in_open_unit_interval(QuadPoly(F(0), F(0), F(0)))

    def test_linear(self):
        roots = roots_in_open_unit_interval(QuadPoly(F(0), F(2), F(-1)))
        assert [(r.as_fraction(), m) for r, m in roots] == [(F(1, 2), 1)]

    def test_roots_match_grid_sign_changes(self):
        rng = Random(13)
        grid = [F(i, 64) for i in range(65)]
        for _ in range(120):
            p = QuadPoly(
                F(rng.randrange(-6, 7)), F(rng.randrange(-6, 7)), F(rng.randrange(-6, 7))
            )
            if p.is_zero:
                continue
            roots = roots_in_open_unit_interval(p)
            # Every root is a genuine zero inside (0, 1).
            for r, _ in roots:
                assert sign_at([p.c2, p.c1, p.c0], r) == 0
                assert r.sign() > 0 and (r - 1).sign() < 0
            # Every sign change on the grid brackets a returned root.
            for a, b in zip(grid, grid[1:]):
                if p(a) * p(b) < 0:
                    assert any((r - a).sign() > 0 and (r - b).sign() < 0 for r, _ in roots)


class TestSignAt:
    def test_identity_poly(self):
        assert sign_at([F(1), F(0)], QuadNum(F(1, 2))) == 1

    def test_root_of_its_polynomial(self):
        assert sign_at([F(1), F(0), F(-2)], QuadNum(F(0), F(1), F(2))) == 0

    def test_shifted_linear(self):
        # 2t - 1 at (1 + sqrt(2))/4 has the sign of (sqrt(2) - 1)/2.
        t0 = QuadNum(F(1, 4), F(1, 4), F(2))
        assert sign_at([F(2), F(-1)], t0) == 1


class TestMotionPolys:
    def test_static_noncollinear_is_constant(self):
        p = motion_collinearity_poly(
            pt(0, 0), pt(0, 0), pt(1, 0), pt(1, 0), pt(0, 1), pt(0, 1)
        )
        assert p.c2 == 0 and p.c1 == 0 and p.c0 != 0

    def test_vertex_sweeping_static_edge(self):
        p = motion_collinearity_poly(
            pt(0, -1), pt(0, 1), pt(-1, 0), pt(-1, 0), pt(1, 0), pt(1, 0)
        )
        roots = roots_in_open_unit_interval(p)
        assert [(r.as_fraction(), m) for r, m in roots] == [(F(1, 2), 1)]

    def test_static_on_line_is_identically_zero(self):
        p = motion_collinearity_poly(
            pt(2, 0), pt(3, 0), pt(0, 0), pt(0, 0), pt(1, 0), pt(1, 0)
        )
        assert p.is_zero

    def test_betweenness_split(self):
        args = (pt(0, -1), pt(0, 1), pt(-1, 0), pt(-1, 0), pt(1, 0), pt(1, 0))
        dot_va, dot_vb, len2 = motion_betweenness_polys(*args)
        half = QuadNum(F(1, 2))
        assert dot_va.at(half).sign() == 1
        assert dot_vb.at(half).sign() == 1
        assert len2.at(half).as_fraction() == 4
        # dot_va + dot_vb == len2 identically.
        assert dot_va.c0 + dot_vb.c0 == len2.c0
        assert dot_va.c1 + dot_vb.c1 == len2.c1
        assert dot_va.c2 + dot_vb.c2 == len2.c2


class TestCirclePoints:
    @pytest.mark.parametrize("t", [F(0), F(1), F(-3, 7), F(22, 5)])
    def test_roundtrip(self, t):
        p = unit_circle_point(t)
        assert on_unit_circle(p)
        assert unit_circle_param(p) == t

    def test_missing_point(self):
        assert unit_circle_param((F(-1), F(0))) is None
