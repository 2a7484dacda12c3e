import hashlib
from fractions import Fraction

import pytest

import kasteleyn as K
from kasteleyn.graphs import checked_weights

F = Fraction


def four_cycle():
    return K.make_graph(
        ["b1", "w1", "b2", "w2"],
        {"b1": "black", "b2": "black", "w1": "white", "w2": "white"},
        [("b1", "w1"), ("w1", "b2"), ("b2", "w2"), ("w2", "b1")],
    )


class TestValidate:
    def test_balanced_cycle(self):
        report = K.validate(four_cycle())
        assert report.ok
        assert (report.n_internal, report.k, report.n_boundary) == (2, 0, 0)

    def test_non_bipartite_edge(self):
        g = K.make_graph(
            ["w1", "w2"], {"w1": "white", "w2": "white"}, [("w1", "w2")]
        )
        report = K.validate(g)
        assert not report.ok
        assert any("non-bipartite" in p for p in report.problems)

    def test_star_counts(self):
        g = K.make_graph(
            ["b1", "w1", "w2"],
            {"b1": "black", "w1": "white", "w2": "white"},
            [("b1", "w1"), ("b1", "w2")],
            boundary=["w1", "w2"],
        )
        report = K.validate(g)
        assert report.ok
        assert (report.n_internal, report.k, report.n_boundary) == (0, 1, 2)

    def test_general_mode_rejects_colors(self):
        g = four_cycle()
        c = {"b1": (F(0), F(0)), "w1": (F(1), F(0)), "b2": (F(1), F(1)), "w2": (F(0), F(1))}
        assert K.graph_kind(g) == K.validate(g).mode == "bipartite"
        with pytest.raises(ValueError, match="needs a general graph, not a bipartite one"):
            K.skew_kasteleyn_matrix(g, c)

    def test_boundary_must_be_white(self):
        g = K.make_graph(
            ["b1", "w1"],
            {"b1": "black", "w1": "white"},
            [("b1", "w1")],
            boundary=["b1"],
        )
        report = K.validate(g)
        assert any("not white" in p for p in report.problems)

    def test_unknown_boundary_vertex(self):
        g = K.GraphWithBoundary(("a",), {"a": "plain"}, frozenset(), ("ghost",))
        report = K.validate(g)
        assert any("not a vertex" in p for p in report.problems)


class TestBoundaryOf:
    def test_empty_matching_needs_no_internal_vertices(self):
        g = four_cycle()
        # every vertex of the closed cycle is internal, so nothing matches
        with pytest.raises(ValueError):
            K.boundary_of(frozenset(), g)

    def test_boundary_cycle(self):
        g = K.make_graph(
            ["v1", "v2", "v3", "v4"],
            {},
            [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v1")],
            boundary=["v1", "v2", "v3", "v4"],
        )
        assert K.boundary_of(frozenset(), g) == frozenset()
        m = frozenset({K.edge_key("v1", "v2")})
        assert K.boundary_of(m, g) == {"v1", "v2"}

    def test_star(self):
        g = K.make_graph(
            ["b1", "w1", "w2"],
            {"b1": "black", "w1": "white", "w2": "white"},
            [("b1", "w1"), ("b1", "w2")],
            boundary=["w1", "w2"],
        )
        assert K.boundary_of(frozenset({("b1", "w1")}), g) == {"w1"}

    def test_rejects_non_matching(self):
        g = four_cycle()
        overlap = frozenset({K.edge_key("b1", "w1"), K.edge_key("w1", "b2")})
        with pytest.raises(ValueError):
            K.boundary_of(overlap, g)


class TestConstruction:
    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError):
            K.make_graph(["a", "a"], {}, [])

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(ValueError):
            K.make_graph(["a"], {}, [("a", "zz")])

    def test_nonpositive_weight_rejected(self):
        g = K.make_graph(["a", "b"], {}, [("a", "b")])
        with pytest.raises(ValueError):
            checked_weights(g.edges, {("a", "b"): 0})

    def test_weight_lookup(self):
        g = K.make_graph(["a", "b", "c"], {}, [("a", "b"), ("b", "c")])
        w = checked_weights(g.edges, {("b", "a"): F(3, 2)})
        # no table means unweighted; entries missing from a table count as 1
        assert K.matching_weight(frozenset({("a", "b")})) == 1
        assert K.matching_weight(frozenset({("a", "b")}), w) == F(3, 2)
        assert K.matching_weight(frozenset({("b", "c")}), w) == 1


PINNED_SHAPES = {
    "general10+8": lambda s: K.generate_random_disc_graph("general", 10, 8, seed=s),
    "bipartite12+4k2": lambda s: K.generate_random_disc_graph("bipartite", 12, 4, k=2, seed=s),
    "triangulation24": lambda s: K.generate_triangulation_subgraph(24, seed=s, drop_one_in=8),
}

# sha256 of serialize(g, c).  Benchmark instances are drawn from these
# generators, so their output must not drift from one version to the next.
PINNED_DIGESTS = {
    ("general10+8", 0): "02e3afea92458a0dd2c0ef8467dfa1217e7a378e5de68d2ed6b1e725e21a6da5",
    ("general10+8", 2): "3fccff45b920570f2840a2324dd58eaf96b54be2972174d89eaa94b00ad411e3",
    ("bipartite12+4k2", 0): "a8db182cff2e01103a5c2b645cfff181da4c9be059e70d80b3c5b4b060391643",
    ("bipartite12+4k2", 1): "2b12df7c2db23b40b58ac6af733747df7c25008bce875671635fb7b0b22758c4",
    ("triangulation24", 0): "98fa94a70a47b67dc158fd442f99b90aae2a5077dec79abd19d891a1cc9364ae",
    ("triangulation24", 1): "849de83b0c395a60605b729545e758675f1a3436f1ef194e268022214da45c2f",
}


class TestGenerators:
    @pytest.mark.parametrize("rows,cols,count", [(2, 2, 2), (2, 3, 3), (4, 4, 36)])
    def test_grid_counts(self, rows, cols, count):
        g, c = K.generate_grid(rows, cols)
        assert K.validate(g).ok
        assert K.is_embedding(g, c)
        assert K.oracle_measurement(g) == count

    @pytest.mark.parametrize("order,count", [(1, 2), (2, 8), (3, 64)])
    def test_aztec_counts(self, order, count):
        g, c = K.generate_aztec(order)
        assert K.validate(g).ok
        assert K.is_embedding(g, c)
        assert K.oracle_measurement(g) == count

    def test_disc_generator_is_deterministic(self):
        a = K.generate_random_disc_graph("bipartite", 4, n_internal=2, k=2, seed=7)
        b = K.generate_random_disc_graph("bipartite", 4, n_internal=2, k=2, seed=7)
        assert a == b
        other = K.generate_random_disc_graph("bipartite", 4, n_internal=2, k=2, seed=8)
        assert other != a

    def test_disc_generator_output_is_valid(self):
        for seed in range(6):
            g, c = K.generate_random_disc_graph("general", 5, n_internal=3, seed=seed)
            assert K.validate(g).ok
            assert K.is_disc_embedding(g, c)
            for m in K.enumerate_matchings(g):
                assert K.boundary_of(m, g) <= set(g.boundary)

    def test_odd_closed_general_graph_has_no_matchings(self):
        g, _ = K.generate_random_disc_graph("general", 0, n_internal=5, seed=1)
        assert K.oracle_measurement(g) == 0

    def test_unrealizable_k_rejected(self):
        from kasteleyn.fixtures import UnrealizableParameters

        with pytest.raises(UnrealizableParameters):
            K.generate_random_disc_graph("bipartite", 2, n_internal=1, k=3, seed=0)

    def test_empty_bipartite_graph_rejected(self):
        from kasteleyn.fixtures import UnrealizableParameters

        assert K.graph_kind(K.generate_random_disc_graph("general", 0, 0)[0]) == "general"
        with pytest.raises(UnrealizableParameters, match="empty graph"):
            K.generate_random_disc_graph("bipartite", 0, 0)

    @pytest.mark.parametrize("shape,seed", sorted(PINNED_DIGESTS))
    def test_generator_output_is_pinned(self, shape, seed):
        g, c = PINNED_SHAPES[shape](seed)
        digest = hashlib.sha256(K.serialize(g, c).encode()).hexdigest()
        assert digest == PINNED_DIGESTS[shape, seed]

    def test_triangulation_subgraph_is_planar(self):
        g, c = K.generate_triangulation_subgraph(9, seed=2)
        assert K.validate(g).ok
        assert K.is_embedding(g, c)
