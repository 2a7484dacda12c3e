import hashlib
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

import kasteleyn as K
from kasteleyn.geometry import QuadNum
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
        result = K.transport_signs(g, (low,))
        assert result.signs == {("a", "b"): 1}
        assert result.events == ()

    def test_single_sweep_flips_the_edge(self):
        g, low, high = sweep_fixture()
        result = K.transport_signs(g, (low, high))
        assert result.signs == {("a", "b"): -1}
        assert len(result.events) == 1
        event = result.events[0]
        assert event.vertex == "v" and event.edge == ("a", "b")
        assert event.t == QuadNum(F(1, 2))
        assert event.to_jsonable()["transversal"] is True

    def test_out_and_back_restores_the_sign(self):
        g, low, high = sweep_fixture()
        result = K.transport_signs(g, (low, high, low))
        assert result.signs == {("a", "b"): 1}
        assert len(result.events) == 2

    def test_reversed_path_composes_to_identity(self):
        g, low, high = sweep_fixture()
        forward = K.transport_signs(g, (low, high))
        backward = K.transport_signs(g, (high, low))
        assert len(forward.events) == len(backward.events) == 1
        for e in g.sorted_edges:
            assert forward.signs[e] * backward.signs[e] == 1

    def test_near_miss_is_not_an_event(self):
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        lo = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(2), F(-1))}
        hi = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(2), F(1))}
        result = K.transport_signs(g, (lo, hi))
        assert result.signs == {("a", "b"): 1}
        assert result.events == ()

    def test_endpoint_hit_is_degenerate(self):
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        lo = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(1), F(-1))}
        hi = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(1), F(1))}
        with pytest.raises(DegeneratePath):
            K.transport_signs(g, (lo, hi))

    def test_double_crossing_over_two_segments(self):
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        lo = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(-1), F(1))}
        hi = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(1), F(1))}
        mid = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(-1))}
        result = K.transport_signs(g, (lo, mid, hi))
        assert result.signs == {("a", "b"): 1}
        assert len(result.events) == 2

    def test_junction_hit_is_degenerate(self):
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        below = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(-1))}
        on_edge = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(0))}
        with pytest.raises(DegeneratePath):
            K.transport_signs(g, (below, on_edge, below))

    def test_tangential_contact_is_degenerate(self):
        # The edge rotates about its midpoint while v passes through it:
        # the collinearity quadratic acquires an exact double root with v
        # strictly between the endpoints.
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        w0 = {"a": (F(-1), F(1)), "b": (F(1), F(-1)), "v": (F(-1, 2), F(0))}
        w1 = {"a": (F(-1), F(-1)), "b": (F(1), F(1)), "v": (F(1, 2), F(0))}
        with pytest.raises(DegeneratePath):
            K.transport_signs(g, (w0, w1))

    def test_double_root_outside_edge_is_ignored(self):
        # Same tangency shape but v grazes the supporting line beyond the
        # endpoints: no event and no degeneracy.
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        w0 = {"a": (F(0), F(0)), "b": (F(0), F(1)), "v": (F(-1), F(-2))}
        w1 = {"a": (F(0), F(0)), "b": (F(2), F(1)), "v": (F(-1), F(0))}
        result = K.transport_signs(g, (w0, w1))
        assert result.signs == {("a", "b"): 1}
        assert result.events == ()

    def test_collinear_slide_is_degenerate(self):
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        lo = {"a": (F(0), F(0)), "b": (F(1), F(0)), "v": (F(3), F(0))}
        hi = {"a": (F(0), F(0)), "b": (F(1), F(0)), "v": (F(2), F(0))}
        with pytest.raises(DegeneratePath):
            K.transport_signs(g, (lo, hi))

    def test_endpoints_must_be_immersions(self):
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        on_edge = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(0))}
        off = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(1))}
        with pytest.raises(ValueError):
            K.transport_signs(g, (on_edge, off))

    def test_contact_at_each_end_or_inside_the_path(self):
        # The last waypoint and a one-waypoint path are endpoints too; a
        # contact at an interior waypoint is a degenerate path instead.
        g = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
        on_edge = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(0))}
        above = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(1))}
        below = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "v": (F(0), F(-1))}
        for waypoints in ((above, on_edge), (on_edge,)):
            with pytest.raises(ValueError, match="path endpoints must be immersions"):
                K.transport_signs(g, waypoints)
        with pytest.raises(DegeneratePath, match="at waypoint 1"):
            K.transport_signs(g, (above, on_edge, below))
        assert K.transport_signs(g, (above,)).signs == {("a", "b"): 1}


class TestBuildPath:
    def test_single_segment_by_default(self):
        g, c = K.generate_grid(2, 2)
        path = K.build_path(g, c, seed=0)
        assert len(path) - 1 == 1
        assert path[-1] == c

    def test_empty_motion_for_all_boundary_graph(self, boundary_cycle):
        g, c = boundary_cycle
        path = K.build_path(g, c, seed=0)
        assert path == (c, c)  # one still segment, so the drawing is checked

    def test_extra_waypoint_stays_pinned(self, fan):
        g, c = fan
        path = K.build_path(g, c, seed=1, extra_waypoints=1)
        assert len(path) - 1 == 2
        for b in g.boundary:
            for w in path:
                assert w[b] == c[b]


def disc_graph_and_broken_targets():
    """A general 5+3 disc graph and two crossing targets that break the disc rule.

    One swaps boundary vertices t0 and t1 (both still on the circle, out of
    order); the other moves internal v0 out of the disc to (0, -3).
    """
    g, c = K.generate_random_disc_graph("general", 5, 3, seed=0)
    swapped = dict(c, t0=c["t1"], t1=c["t0"])
    moved = dict(c, v0=(F(0), F(-3)))
    return g, c, swapped, moved


class TestDiscRule:
    """A boundary graph's target keeps the boundary on the circle in order, the rest inside."""

    def test_broken_targets_are_refused_before_transport(self, monkeypatch):
        g, c, swapped, moved = disc_graph_and_broken_targets()
        assert K.keeps_disc_rule(g, c)
        monkeypatch.setattr(transport, "transport_signs", lambda *args: pytest.fail("transported"))
        for target in (swapped, moved):
            assert K.is_immersion(g, target) and not K.keeps_disc_rule(g, target)
            with pytest.raises(ValueError, match="target breaks the disc rule"):
                K.skew_kasteleyn_matrix(g, target, require_embedded=False)

    @pytest.mark.parametrize("seed", range(4))
    def test_swapped_bipartite_boundary_is_refused(self, seed):
        g, c = K.generate_random_disc_graph("bipartite", 5, 2, k=2, seed=seed)
        swapped = dict(c, t0=c["t2"], t2=c["t0"])
        with pytest.raises(ValueError, match="target breaks the disc rule"):
            K.kasteleyn_matrix(g, swapped, require_embedded=False)

    def test_crossed_boundary_vertex_is_refused(self):
        g, c, _, moved = disc_graph_and_broken_targets()
        with pytest.raises(ValueError, match=r"boundary vertex 't2' meets edge \('v0', 'v1'\)"):
            K.transport_signs(g, (K.canonical_start(g, c), moved))

    def test_refusal_survives_optimized_mode(self):
        code = (
            "from fractions import Fraction as F\n"
            "import kasteleyn as K\n"
            "g, c = K.generate_random_disc_graph('general', 5, 3, seed=0)\n"
            "moved = dict(c, v0=(F(0), F(-3)))\n"
            "try:\n"
            "    K.transport_signs(g, (K.canonical_start(g, c), moved))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.stdout.decode() == "boundary vertex 't2' meets edge ('v0', 'v1')\n"

    def test_degenerate_path_wins_over_a_crossed_boundary(self):
        # v (boundary) sweeps through ab; w slides along the line of pq.
        g = K.make_graph(["a", "b", "p", "q", "v", "w"], {}, [("a", "b"), ("p", "q")], ["v"])
        fixed = {"a": (F(-1), F(0)), "b": (F(1), F(0)), "p": (F(0), F(5)), "q": (F(1), F(5))}
        start = dict(fixed, v=(F(0), F(-1)), w=(F(2), F(5)))
        end = dict(fixed, v=(F(0), F(1)), w=(F(3), F(5)))
        with pytest.raises(DegeneratePath, match="stays collinear"):
            K.transport_signs(g, (start, end))
        with pytest.raises(ValueError, match="boundary vertex 'v' meets edge"):
            K.transport_signs(g, (start, dict(end, w=start["w"])))


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
        path = K.build_path(g, target, seed=derive_seed(0, 0))
        with pytest.raises(DegeneratePath):
            K.transport_signs(g, path)

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


    def test_target_checked_once(self, monkeypatch):
        # Transport reads every contact from the pair's motion polynomials, so
        # the builder's immersion check is the only caller of point_on_segment.
        from kasteleyn import immersion

        calls = []
        real = immersion.point_on_segment

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(immersion, "point_on_segment", counted)
        g, c = K.generate_grid(4, 4)
        K.kasteleyn_matrix(g, c)
        assert not hasattr(transport, "point_on_segment")
        assert len(calls) == len(g.sorted_edges) * (len(g.vertices) - 2)


class TestSerialization:
    def test_event_log_roundtrips_to_json(self):
        g, low, high = sweep_fixture()
        result = K.transport_signs(g, (low, high))
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


def _outcome(g, waypoints) -> str:
    """What `transport_signs` decides on a path: its refusal, or its event list."""
    try:
        result = K.transport_signs(g, waypoints)
    except (ValueError, DegeneratePath) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "; ".join(f"{ev.segment}|{ev.vertex}|{ev.edge}|{ev.t}" for ev in result.events)


def _contact_cases():
    """Hand-made paths, each aimed at one contact decision, with its pinned outcome."""
    line = K.make_graph(["a", "b", "v"], {}, [("a", "b")])
    four = K.make_graph(["a", "b", "v", "w"], {}, [("a", "b")])
    ab = {"a": (F(-1), F(0)), "b": (F(1), F(0))}
    above, below = dict(ab, v=(F(0), F(1))), dict(ab, v=(F(0), F(-1)))
    inside, at_b = dict(ab, v=(F(0), F(0))), dict(ab, v=(F(1), F(0)))
    collapsed = {"a": (F(0), F(0)), "b": (F(0), F(0)), "v": (F(0), F(1))}
    beyond = dict(ab, v=(F(3), F(0)))

    def moved_w(config, x):
        return dict(config, w=(F(x), F(5)))

    endpoints = "ValueError: path endpoints must be immersions"
    return {
        "first waypoint, interior": (line, (inside, above), endpoints),
        "first waypoint, endpoint": (line, (at_b, above), endpoints),
        "last waypoint, interior": (line, (below, above, inside), endpoints),
        "last waypoint, endpoint": (line, (above, at_b), endpoints),
        "one still waypoint": (line, (at_b,), endpoints),
        "interior waypoint, interior": (
            line, (below, inside, above),
            "DegeneratePath: vertex 'v' meets edge ('a', 'b') exactly at waypoint 1 (interior)",
        ),
        "interior waypoint, endpoint": (
            line, (below, at_b, above),
            "DegeneratePath: vertex 'v' meets edge ('a', 'b') exactly at waypoint 1 (endpoint)",
        ),
        "zero-length edge at the first waypoint": (line, (collapsed, above), endpoints),
        "zero-length edge at an interior waypoint": (
            line, (below, collapsed, above),
            "DegeneratePath: vertex 'v' meets edge ('a', 'b') exactly at waypoint 1 (endpoint)",
        ),
        "static collinear vertex outside a static edge on a later segment": (
            four, (moved_w(above, 0), moved_w(beyond, 1), moved_w(beyond, 2)), "",
        ),
        "static collinear vertex on a static edge on a later segment": (
            four, (moved_w(above, 0), moved_w(above, 1), moved_w(inside, 2), moved_w(inside, 3)),
            "DegeneratePath: vertex 'v' meets edge ('a', 'b') exactly at waypoint 2 (interior)",
        ),
        "tangency": (
            line,
            ({"a": (F(-1), F(1)), "b": (F(1), F(-1)), "v": (F(-1, 2), F(0))},
             {"a": (F(-1), F(-1)), "b": (F(1), F(1)), "v": (F(1, 2), F(0))}),
            "DegeneratePath: tangential contact of vertex 'v' with edge ('a', 'b') (segment 0)",
        ),
        "edge collapse": (
            line,
            ({"a": (F(-1), F(-1)), "b": (F(1), F(1)), "v": (F(0), F(1))},
             {"a": (F(1), F(1)), "b": (F(-1), F(-1)), "v": (F(0), F(1))}),
            "DegeneratePath: edge ('a', 'b') collapses while vertex 'v' is collinear (segment 0)",
        ),
        "endpoint passage": (
            line, (dict(ab, v=(F(1), F(-1))), dict(ab, v=(F(1), F(1)))),
            "DegeneratePath: vertex 'v' meets an endpoint of edge ('a', 'b') (segment 0)",
        ),
        "collinear slide": (
            line, (beyond, dict(ab, v=(F(2), F(0)))),
            "DegeneratePath: vertex 'v' stays collinear with edge ('a', 'b') on segment 0",
        ),
        "sweep": (line, (below, above), "0|v|('a', 'b')|1/2"),
    }


def _seeded_contact_corpus():
    """Small graphs on a 5x5 integer lattice, where contacts at waypoints are common."""
    rng = Random("transport-contact-corpus")
    paths = []
    for _ in range(300):
        names = [f"p{i}" for i in range(rng.randrange(3, 6))]
        edges = {tuple(rng.sample(names, 2)) for _ in range(rng.randrange(1, 4))}
        boundary = [names[0]] if rng.random() < 0.3 else []
        g = K.make_graph(names, {}, sorted(edges), boundary)
        waypoints = []
        for _ in range(rng.randrange(1, 4)):
            config = {v: (F(rng.randrange(-2, 3)), F(rng.randrange(-2, 3))) for v in names}
            if waypoints:
                config.update({b: waypoints[0][b] for b in boundary})
            waypoints.append(config)
        paths.append((g, tuple(waypoints)))
    return paths


class TestPinnedContactDecisions:
    """Every contact decision of `transport_signs`, pinned by its exact outcome."""

    @pytest.mark.parametrize("name", list(_contact_cases()))
    def test_hand_made_case(self, name):
        g, waypoints, want = _contact_cases()[name]
        assert _outcome(g, waypoints) == want

    def test_retrying_colliding_fixture(self):
        from kasteleyn.transport import derive_seed

        g, target = colliding_fixture()
        outcomes = [
            _outcome(g, K.build_path(g, target, derive_seed(0, attempt), min(attempt, 1)))
            for attempt in range(3)
        ]
        assert outcomes[0] == (
            "DegeneratePath: vertex 'b2' meets an endpoint of edge ('b1', 'w1') (segment 0)"
        )
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()[:16]
        assert digest == "871de56e7e68a81a"

    def test_seeded_corpus(self):
        outcomes = [_outcome(g, waypoints) for g, waypoints in _seeded_contact_corpus()]
        kinds = Counter(
            re.sub(r"'[^']*'|\(.*?\)|\d+", "_", o) if ":" in o else ("events" if o else "none")
            for o in outcomes
        )
        assert kinds == {
            "none": 119,
            "events": 38,
            "ValueError: path endpoints must be immersions": 88,
            "ValueError: boundary vertex _ meets edge _": 1,
            "DegeneratePath: vertex _ meets an endpoint of edge _ _": 30,
            "DegeneratePath: vertex _ meets edge _ exactly at waypoint _ _": 18,
            "DegeneratePath: edge _ collapses while vertex _ is collinear _": 6,
        }
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()[:16]
        assert digest == "b7d8194c0807b2ae"
