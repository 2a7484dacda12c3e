from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

import kasteleyn as K
from kasteleyn import measurements
from kasteleyn.immersion import edges_cross

F = Fraction


def square_cycle():
    g = K.make_graph(
        ["b1", "w1", "b2", "w2"],
        {"b1": "black", "b2": "black", "w1": "white", "w2": "white"},
        [("b1", "w1"), ("w1", "b2"), ("b2", "w2"), ("w2", "b1")],
    )
    c = {
        "b1": (F(0), F(0)),
        "w1": (F(1), F(0)),
        "b2": (F(1), F(1)),
        "w2": (F(0), F(1)),
    }
    return g, c


class TestPredicates:
    def test_square_is_immersion(self):
        g, c = square_cycle()
        assert K.is_immersion(g, c)
        assert K.is_embedding(g, c)

    def test_vertex_on_edge(self):
        g = K.make_graph(["a", "b", "c"], {}, [("a", "b")])
        c = {"a": (F(0), F(0)), "b": (F(2), F(0)), "c": (F(1), F(0))}
        assert not K.is_immersion(g, c)

    def test_zero_length_edge(self):
        g = K.make_graph(["a", "b"], {}, [("a", "b")])
        c = {"a": (F(0), F(0)), "b": (F(0), F(0))}
        assert not K.is_immersion(g, c)

    def test_crossing_is_immersion_not_embedding(self, bowtie):
        g, c = bowtie
        assert K.is_immersion(g, c)
        assert not K.is_embedding(g, c)

    def test_overlapping_edges_not_generic(self):
        g = K.make_graph(["a", "b", "c", "d"], {}, [("a", "b"), ("c", "d")])
        c = {
            "a": (F(0), F(0)),
            "b": (F(2), F(0)),
            "c": (F(1), F(0)),
            "d": (F(3), F(0)),
        }
        assert not K.is_immersion(g, c)

    def test_implication_chain(self):
        for seed in range(4):
            g, c = K.generate_random_disc_graph("general", 4, n_internal=3, seed=seed)
            assert K.is_disc_embedding(g, c)
            assert K.is_embedding(g, c)
            assert K.is_immersion(g, c)


def _pairwise_embedding_rule(g, c):
    """Reference: immersion, and every edge pair classified by segment_relation."""
    if not K.is_immersion(g, c):
        return False
    edges = g.sorted_edges
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            rel = K.segment_relation((c[edges[i][0]], c[edges[i][1]]),
                                     (c[edges[j][0]], c[edges[j][1]]))
            if set(edges[i]) & set(edges[j]):
                if rel is not K.SegmentRelation.SHARED_ENDPOINT_ONLY:
                    return False
            elif rel is not K.SegmentRelation.DISJOINT:
                return False
    return True


class TestEmbeddingRule:
    def test_matches_pairwise_classification(self):
        # Small integer grids make collinear and touching edges common.
        rng = Random(11)
        outcomes = set()
        for _ in range(1500):
            n = rng.randrange(3, 7)
            vs = [f"v{i}" for i in range(n)]
            pairs = list(combinations(vs, 2))
            g = K.make_graph(vs, {}, rng.sample(pairs, rng.randrange(1, len(pairs) + 1)))
            c = {v: (F(rng.randrange(3)), F(rng.randrange(3))) for v in vs}
            expected = _pairwise_embedding_rule(g, c)
            assert K.is_embedding(g, c) == expected
            outcomes.add((K.is_immersion(g, c), expected))
        assert outcomes == {(False, False), (True, False), (True, True)}


class TestEdgesCross:
    def test_matches_segment_relation(self):
        # A 7x7 lattice makes collinear, touching and shared-endpoint pairs
        # common; every fourth pair is forced to share an endpoint.
        rng = Random(7)
        lattice = [(F(x), F(y)) for x in range(7) for y in range(7)]
        relations = set()
        tested = collinear = 0
        for i in range(12000):
            p, q, r, s = (rng.choice(lattice) for _ in range(4))
            if i % 4 == 0:
                r = p
            if p == q or r == s:
                continue
            c = {"p": p, "q": q, "r": r, "s": s}
            rel = K.segment_relation((p, q), (r, s))
            assert edges_cross(c, ("p", "q"), ("r", "s")) == (
                rel is K.SegmentRelation.TRANSVERSAL_CROSS
            ), (p, q, r, s)
            relations.add(rel)
            tested += 1
            collinear += K.orient(p, q, r) == 0 and K.orient(p, q, s) == 0
        assert tested >= 10_000
        assert relations == set(K.SegmentRelation)
        assert collinear > 100


class TestDiscEmbedding:
    def test_boundary_cycle(self, boundary_cycle):
        g, c = boundary_cycle
        assert K.is_disc_embedding(g, c)

    def test_order_violation(self, boundary_cycle):
        g, c = boundary_cycle
        swapped = dict(c)
        swapped["v2"], swapped["v4"] = swapped["v4"], swapped["v2"]
        assert not K.is_disc_embedding(g, swapped)
        assert not K.keeps_disc_rule(g, swapped)

    def test_scaled_grid(self):
        g, c = K.generate_grid(3, 3)
        assert not K.is_disc_embedding(g, c)  # raw coordinates leave the disc
        assert K.is_disc_embedding(g, {v: (x / 4, y / 4) for v, (x, y) in c.items()})

    def test_internal_vertex_must_be_inside(self, fan):
        g, c = fan
        pushed = dict(c)
        pushed["b1"] = (F(3, 5), F(4, 5))  # on the circle
        assert not K.is_disc_embedding(g, pushed)


class TestCrossingCounts:
    def test_embedding_has_no_crossings(self):
        g, c = square_cycle()
        for m in K.enumerate_matchings(g):
            assert K.crossing_number(g, c, m) == 0
            assert K.matching_sign(g, c, m) == 1

    def test_bowtie_crossing_pair(self, bowtie):
        g, c = bowtie
        crossing = frozenset({K.edge_key("b1", "w2"), K.edge_key("b2", "w1")})
        straight = frozenset({K.edge_key("b1", "w1"), K.edge_key("b2", "w2")})
        assert K.crossing_number(g, c, crossing) == 1
        assert K.matching_sign(g, c, crossing) == -1
        assert K.crossing_number(g, c, straight) == 0

    def test_degenerate_pair_raises(self):
        from kasteleyn.immersion import DegenerateDrawing

        g = K.make_graph(["a", "b", "c", "d"], {}, [("a", "b"), ("c", "d")])
        c = {
            "a": (F(0), F(0)),
            "b": (F(2), F(0)),
            "c": (F(1), F(0)),
            "d": (F(1), F(1)),
        }
        m = frozenset({("a", "b"), ("c", "d")})
        with pytest.raises(DegenerateDrawing):
            K.crossing_number(g, c, m)


def _bipartite_term_sign(g, matching, subset):
    """Sign of the determinant term a matching contributes, by inversions."""
    blacks = [v for v in g.vertices if g.color[v] == "black"]
    whites = [v for v in g.vertices if g.color[v] == "white" and v not in g.boundary_set]
    whites += [b for b in g.boundary if b in subset]
    col = {w: i for i, w in enumerate(whites)}
    sigma = {}
    for u, v in matching:
        b, w = (u, v) if g.color[u] == "black" else (v, u)
        sigma[blacks.index(b)] = col[w]
    perm = [sigma[i] for i in range(len(blacks))]
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def _pfaffian_term_sign(g, matching, subset):
    """Chord-crossing parity of a matching on the selected label positions."""
    order = list(g.internal_vertices) + list(g.boundary)
    keep = [v for v in order if v not in g.boundary_set or v in subset]
    pos = {v: i for i, v in enumerate(keep)}
    chords = sorted((min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in matching)
    crossings = 0
    for a in range(len(chords)):
        for b in range(a + 1, len(chords)):
            (l1, h1), (l2, h2) = chords[a], chords[b]
            if l1 < l2 < h1 < h2:
                crossings += 1
    return -1 if crossings % 2 else 1


class TestCanonicalStart:
    def test_two_lines_for_closed_bipartite(self):
        g, c = square_cycle()
        start = K.canonical_start(g, c, seed=0)
        assert {p[1] for v, p in start.items() if g.color[v] == "black"} == {1}
        assert {p[1] for v, p in start.items() if g.color[v] == "white"} == {0}
        assert K.is_immersion(g, start)

    def test_boundary_positions_are_pinned(self, fan):
        g, c = fan
        start = K.canonical_start(g, c, seed=5)
        for b in g.boundary:
            assert start[b] == c[b]
        assert K.is_immersion(g, start)

    def test_all_boundary_start_equals_target(self, boundary_cycle):
        g, c = boundary_cycle
        start = K.canonical_start(g, c, seed=0)
        assert start == c

    def test_sign_law_bipartite(self, fan):
        # At the canonical start the geometric sign of every matching
        # equals the sign of its determinant term.
        g, c = fan
        start = K.canonical_start(g, c, seed=3)
        for m in K.enumerate_matchings(g):
            subset = K.boundary_of(m, g)
            assert K.matching_sign(g, start, m) == _bipartite_term_sign(g, m, subset)

    def test_sign_law_bipartite_closed(self):
        g, c = square_cycle()
        start = K.canonical_start(g, c, seed=1)
        for m in K.enumerate_matchings(g):
            assert K.matching_sign(g, start, m) == _bipartite_term_sign(g, m, frozenset())

    def test_sign_law_general(self):
        for seed in range(3):
            g, c = K.generate_random_disc_graph("general", 4, n_internal=2, seed=seed)
            start = K.canonical_start(g, c, seed=seed)
            assert K.is_immersion(g, start)
            for m in K.enumerate_matchings(g):
                subset = K.boundary_of(m, g)
                assert K.matching_sign(g, start, m) == _pfaffian_term_sign(g, m, subset)

    def test_sign_law_general_closed(self):
        g, c = K.generate_triangulation_subgraph(6, seed=4)
        start = K.canonical_start(g, c, seed=0)
        for m in K.enumerate_matchings(g):
            assert K.matching_sign(g, start, m) == _pfaffian_term_sign(g, m, frozenset())

    @pytest.mark.parametrize("bipartite", [False, True])
    def test_one_boundary_vertex_at_minus_one(self, bipartite):
        # (-1, 0) has no half-angle parameter, and the arc from the only
        # boundary vertex back to itself is the rest of the circle.
        if bipartite:
            color = {"b": "white", "x": "black", "y": "white", "z": "black"}
            edges = [("x", "b"), ("x", "y"), ("z", "y"), ("z", "b")]
        else:
            color = {}
            edges = [("b", "x"), ("x", "y")]
        g = K.make_graph(["b", "x", "y", "z"] if bipartite else ["b", "x", "y"], color, edges, ["b"])
        c = {"b": (F(-1), F(0)), "x": (F(0), F(0)), "y": (F(1, 2), F(0)), "z": (F(0), F(1, 2))}
        c = {v: c[v] for v in g.vertices}
        for seed in range(3):
            start = K.canonical_start(g, c, seed=seed)
            assert start["b"] == c["b"] and K.is_immersion(g, start)
        build = K.kasteleyn_matrix if bipartite else K.skew_kasteleyn_matrix
        matrix = build(g, c)
        for subset in ((), ("b",)):
            assert matrix.measurement(subset) == K.oracle_measurement(g, subset)

    def test_off_circle_boundary_rejected(self, fan):
        g, c = fan
        broken = dict(c)
        broken["a"] = (F(1, 2), F(0))
        with pytest.raises(ValueError):
            K.canonical_start(g, broken, seed=0)


def float_grid():
    g, c = K.generate_grid(2, 2)
    return g, {v: (float(x), float(y)) for v, (x, y) in c.items()}


FLOAT_REFUSAL = "float coordinate 0.0; supply int, str or Fraction"


class TestExactnessDoor:
    """A float coordinate is refused once per drawing, before any geometry."""

    def test_drawing_predicates(self):
        g, c = float_grid()
        for predicate in (K.is_immersion, K.is_embedding, K.is_disc_embedding):
            with pytest.raises(TypeError, match=FLOAT_REFUSAL):
                predicate(g, c)

    def test_transport_checks_each_waypoint(self):
        g, c = float_grid()
        with pytest.raises(TypeError, match=FLOAT_REFUSAL):
            K.transport_signs(g, (c, c))
        exact = K.generate_grid(2, 2)[1]
        with pytest.raises(TypeError, match=FLOAT_REFUSAL):
            K.transport_signs(g, (exact, c))

    def test_canonical_start_checks_the_target(self, fan):
        g, c = fan
        broken = dict(c, a=(1.0, 0.0))
        with pytest.raises(TypeError, match="float coordinate 1.0"):
            K.canonical_start(g, broken)

    def test_matrix_refuses_before_transport(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            measurements, "compute_signed_structure", lambda *args: calls.append(args)
        )
        g, c = float_grid()
        with pytest.raises(TypeError, match=FLOAT_REFUSAL):
            K.kasteleyn_matrix(g, c)
        assert calls == []


class TestGraphKind:
    def test_modes(self, fan, boundary_cycle):
        assert K.graph_kind(fan[0]) == "bipartite"
        assert K.graph_kind(boundary_cycle[0]) == "general"
        g, _ = square_cycle()
        assert K.graph_kind(g) == K.validate(g).mode == "bipartite"
        g, _ = K.generate_triangulation_subgraph(5, seed=0)
        assert K.graph_kind(g) == K.validate(g).mode == "general"

    def test_mixed_coloring_rejected(self):
        g = K.make_graph(["a", "b"], {"a": "black"}, [])
        for fn in (K.graph_kind, K.validate):
            with pytest.raises(ValueError, match="mixes colored and uncolored"):
                fn(g)
