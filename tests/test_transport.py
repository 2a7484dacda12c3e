from fractions import Fraction
from itertools import combinations

import pytest

import kasteleyn as K
from kasteleyn.geometry import QuadNum
from kasteleyn.immersion import PathPlan
from kasteleyn import transport
from kasteleyn.transport import DegeneratePath

F = Fraction


def sweep_fixture():
    """A static edge plus a free vertex that can sweep across it."""
    g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
    low = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(-1))}
    high = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(1))}
    return g, low, high


class TestTransportSigns:
    def test_no_motion_no_events(self):
        g, low, _ = sweep_fixture()
        plan = PathPlan((low,), frozenset())
        result = K.transport_signs(g, plan)
        assert result.signs == {("a", "b"): 1}
        assert result.events == ()

    def test_single_sweep_flips_the_edge(self):
        g, low, high = sweep_fixture()
        plan = PathPlan((low, high), frozenset())
        result = K.transport_signs(g, plan)
        assert result.signs == {("a", "b"): -1}
        assert len(result.events) == 1
        event = result.events[0]
        assert event.vertex == "v" and event.edge == ("a", "b")
        assert event.t == QuadNum(F(1, 2))
        assert event.transversal

    def test_out_and_back_restores_the_sign(self):
        g, low, high = sweep_fixture()
        plan = PathPlan((low, high, low), frozenset())
        result = K.transport_signs(g, plan)
        assert result.signs == {("a", "b"): 1}
        assert len(result.events) == 2

    def test_reversed_path_composes_to_identity(self):
        g, low, high = sweep_fixture()
        forward = K.transport_signs(g, PathPlan((low, high), frozenset()))
        backward = K.transport_signs(g, PathPlan((high, low), frozenset()))
        assert len(forward.events) == len(backward.events) == 1
        for e in g.sorted_edges:
            assert forward.signs[e] * backward.signs[e] == 1

    def test_near_miss_is_not_an_event(self):
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        lo = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(2), F(-1))}
        hi = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(2), F(1))}
        result = K.transport_signs(g, PathPlan((lo, hi), frozenset()))
        assert result.signs == {("a", "b"): 1}
        assert result.events == ()

    def test_endpoint_hit_is_degenerate(self):
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        lo = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(1), F(-1))}
        hi = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(1), F(1))}
        with pytest.raises(DegeneratePath):
            K.transport_signs(g, PathPlan((lo, hi), frozenset()))

    def test_double_crossing_over_two_segments(self):
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        lo = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(-1), F(1))}
        hi = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(1), F(1))}
        mid = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(-1))}
        result = K.transport_signs(g, PathPlan((lo, mid, hi), frozenset()))
        assert result.signs == {("a", "b"): 1}
        assert len(result.events) == 2

    def test_junction_hit_is_degenerate(self):
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        below = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(-1))}
        on_edge = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(0))}
        with pytest.raises(DegeneratePath):
            K.transport_signs(g, PathPlan((below, on_edge, below), frozenset()))

    def test_tangential_contact_is_degenerate(self):
        # The edge rotates about its midpoint while v passes through it:
        # the collinearity quadratic acquires an exact double root with v
        # strictly between the endpoints.
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        w0 = {"a": (F(-1), F(1)), "b": (F(1), F(-1)), "v": (F(-1, 2), F(0))}
        w1 = {"a": (F(-1), F(-1)), "b": (F(1), F(1)), "v": (F(1, 2), F(0))}
        with pytest.raises(DegeneratePath):
            K.transport_signs(g, PathPlan((w0, w1), frozenset()))

    def test_double_root_outside_edge_is_ignored(self):
        # Same tangency shape but v grazes the supporting line beyond the
        # endpoints: no event and no degeneracy.
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        w0 = {"a": (F(0), F(0)), "b": (F(0), F(1)), "v": (F(-1), F(-2))}
        w1 = {"a": (F(0), F(0)), "b": (F(2), F(1)), "v": (F(-1), F(0))}
        result = K.transport_signs(g, PathPlan((w0, w1), frozenset()))
        assert result.signs == {("a", "b"): 1}
        assert result.events == ()

    def test_collinear_slide_is_degenerate(self):
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        lo = {"a": (F(0), F(0)), "b": (F(1), F(0)), "v": (F(3), F(0))}
        hi = {"a": (F(0), F(0)), "b": (F(1), F(0)), "v": (F(2), F(0))}
        with pytest.raises(DegeneratePath):
            K.transport_signs(g, PathPlan((lo, hi), frozenset()))

    def test_endpoints_must_be_immersions(self):
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        on_edge = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(0))}
        off = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(1))}
        with pytest.raises(ValueError):
            K.transport_signs(g, PathPlan((on_edge, off), frozenset()))

    def test_contact_at_each_end_or_inside_the_path(self):
        # The last waypoint and a one-waypoint path are endpoints too; a
        # contact at an interior waypoint is a degenerate path instead.
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        on_edge = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(0))}
        above = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(1))}
        below = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(-1))}
        for waypoints in ((above, on_edge), (on_edge,)):
            with pytest.raises(ValueError, match="path endpoints must be immersions"):
                K.transport_signs(g, PathPlan(waypoints, frozenset()))
        with pytest.raises(DegeneratePath, match="at waypoint 1"):
            K.transport_signs(g, PathPlan((above, on_edge, below), frozenset()))
        assert K.transport_signs(g, PathPlan((above,), frozenset())).signs == {("a", "b"): 1}


class TestBuildPath:
    def test_single_segment_by_default(self):
        g, c = K.generate_grid(2, 2)
        plan = K.build_path(g, c, seed=0)
        assert plan.segments == 1
        assert plan.pinned == frozenset()
        assert plan.waypoints[-1] == c

    def test_empty_motion_for_all_boundary_graph(self, boundary_cycle):
        g, c = boundary_cycle
        plan = K.build_path(g, c, seed=0)
        assert plan.segments == 0

    def test_extra_waypoint_stays_pinned(self, fan):
        g, c = fan
        plan = K.build_path(g, c, seed=1, extra_waypoints=1)
        assert plan.segments == 2
        for b in g.boundary:
            for w in plan.waypoints:
                assert w[b] == c[b]


def colliding_fixture():
    """Closed bipartite graph whose target reverses the blacks on a line.

    Interpolating straight from the canonical two-lines start makes the
    two blacks slide through each other on y = 1, which is a degeneracy
    for every start jitter; only a bent (retried) path can avoid it.
    """
    g = K.make_graph(
        ["b1", "b2", "w1", "w2"],
        {"b1": "black", "b2": "black", "w1": "white", "w2": "white"},
        [("b1", "w1"), ("b2", "w2"), ("b1", "w2")],
    )
    target = {
        "b1": (F(10), F(1)),
        "b2": (F(0), F(1)),
        "w1": (F(0), F(0)),
        "w2": (F(1), F(0)),
    }
    return g, target


class TestRetries:
    def test_direct_path_degenerates(self):
        from kasteleyn.transport import derive_seed

        g, target = colliding_fixture()
        plan = K.build_path(g, target, seed=derive_seed(0, 0))
        with pytest.raises(DegeneratePath):
            K.transport_signs(g, plan)

    def test_retry_succeeds_with_extra_waypoint(self):
        g, target = colliding_fixture()
        result = K.compute_signed_structure(g, target, seed=0)
        assert result.attempts >= 2
        matrix = K.kasteleyn_matrix(g, target, require_embedded=False)
        assert matrix.measurement(()) == K.signed_sum(g, target)

    def test_retries_exhausted(self):
        g, target = colliding_fixture()
        with pytest.raises(K.RetriesExhausted) as err:
            K.compute_signed_structure(g, target, seed=0, max_retries=0)
        assert err.value.attempts == 1
        assert isinstance(err.value.last, DegeneratePath)


class TestComputeSignedStructure:
    def test_deterministic(self, fan):
        g, c = fan
        one = K.compute_signed_structure(g, c, seed=9)
        two = K.compute_signed_structure(g, c, seed=9)
        assert one.signs == two.signs
        assert one.events == two.events
        assert one.digest() == two.digest()

    def test_no_event_names_a_pinned_vertex(self):
        for seed in range(5):
            g, c = K.generate_random_disc_graph(
                "general", 5, n_internal=4, seed=seed
            )
            result = K.compute_signed_structure(g, c, seed=seed)
            for event in result.events:
                assert event.vertex not in g.boundary_set

    def test_signed_sum_matches_at_target(self):
        # The transported determinant reproduces the crossing-signed sum
        # for every boundary subset, embedded target or not.
        for seed in range(4):
            g, c = K.generate_random_disc_graph(
                "bipartite", 4, n_internal=1, k=1, seed=seed
            )
            m = K.kasteleyn_matrix(g, c, seed=seed)
            for size in range(len(g.boundary) + 1):
                for subset in combinations(g.boundary, size):
                    expected = K.signed_sum(g, c, subset)
                    assert m.measurement(subset) == expected

    def test_motion_differences_once_per_pair_test(self, monkeypatch):
        calls = {"differences": 0, "pair_tests": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        for name, key in (("_motion_differences", "differences"),
                          ("motion_collinearity_poly", "pair_tests")):
            monkeypatch.setattr(transport, name, counted(key, getattr(transport, name)))
        g, c = K.generate_grid(6, 6)
        assert K.compute_signed_structure(g, c).digest() == "5e1424dc1e300fa4"
        assert calls == {"differences": 2040, "pair_tests": 2040}


class TestSerialization:
    def test_event_log_roundtrips_to_json(self):
        g, low, high = sweep_fixture()
        result = K.transport_signs(g, PathPlan((low, high), frozenset()))
        payload = result.to_jsonable()
        assert payload["signs"] == {"a,b": -1}
        assert payload["events"][0]["vertex"] == "v"
        assert payload["events"][0]["t"] == {"a": "1/2", "b": "0", "d": "0"}


class TestModeFromGraph:
    @pytest.mark.parametrize(
        "fn", [K.canonical_start, K.build_path, K.compute_signed_structure]
    )
    def test_mixed_coloring_refused(self, fn):
        g = K.make_graph(["a", "b", "v"], {"a": "black", "b": "white"}, [("a", "b")])
        _, low, _ = sweep_fixture()
        with pytest.raises(ValueError, match="mixes colored and uncolored"):
            fn(g, low)


class TestRetryBudget:
    def test_negative_retries_rejected_before_any_attempt(self):
        g, c = K.generate_grid(2, 3)
        with pytest.raises(ValueError, match="max_retries must be nonnegative, not -1"):
            K.compute_signed_structure(g, c, max_retries=-1)
