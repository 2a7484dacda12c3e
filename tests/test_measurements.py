from fractions import Fraction
from itertools import combinations

import pytest

import kasteleyn as K
from kasteleyn.graphs import bipartite_vertex_classes, edge_key

from conftest import random_weights

F = Fraction


class TestKasteleynMatrix:
    def test_single_edge(self):
        g = K.make_graph(["b1", "w1"], {"b1": "black", "w1": "white"}, [("b1", "w1")])
        c = {"b1": (F(0), F(0)), "w1": (F(1), F(0))}
        m = K.kasteleyn_matrix(g, c)
        assert m.matrix.shape == (1, 1)
        assert m.measurement(()) == 1

    def test_star_boundary(self):
        g = K.make_graph(
            ["b1", "w1", "w2"],
            {"b1": "black", "w1": "white", "w2": "white"},
            [("b1", "w1"), ("b1", "w2")],
            boundary=["w1", "w2"],
        )
        c = {"w1": (F(1), F(0)), "w2": (F(-1), F(0)), "b1": (F(0), F(-1, 2))}
        m = K.kasteleyn_matrix(g, c)
        assert m.measurement({"w1"}) == 1
        assert m.measurement({"w2"}) == 1
        assert m.measurement({"w1", "w2"}) == 0  # wrong subset size

    def test_support_pattern_and_unit_entries(self, fan):
        g, c = fan
        m = K.kasteleyn_matrix(g, c)
        blacks, whites = m.matrix.row_labels, m.matrix.col_labels
        for i, b in enumerate(blacks):
            for j, w in enumerate(whites):
                entry = m.matrix[i, j]
                if edge_key(b, w) in g.edges:
                    assert entry in (1, -1)
                else:
                    assert entry == 0

    def test_non_embedding_target_rejected(self, bowtie):
        g, c = bowtie
        with pytest.raises(ValueError):
            K.kasteleyn_matrix(g, c)
        K.kasteleyn_matrix(g, c, require_embedded=False)  # explicit opt-in

    def test_wrong_mode_rejected(self, boundary_cycle):
        g, c = boundary_cycle
        with pytest.raises(ValueError):
            K.kasteleyn_matrix(g, c)

    def test_grid_count(self):
        g, c = K.generate_grid(4, 4)
        m = K.kasteleyn_matrix(g, c)
        assert m.measurement(()) == 36


class TestSkewKasteleynMatrix:
    def test_single_boundary_edge(self):
        g = K.make_graph(
            ["v1", "v2"], {}, [("v1", "v2")], boundary=["v1", "v2"]
        )
        c = {"v1": (F(1), F(0)), "v2": (F(-1), F(0))}
        x = K.skew_kasteleyn_matrix(g, c)
        assert x.measurement(()) == 1  # empty matching
        assert x.measurement(("v1", "v2")) == 1

    def test_boundary_cycle_table(self, boundary_cycle):
        g, c = boundary_cycle
        x = K.skew_kasteleyn_matrix(g, c)
        t = K.measurement_table(g, x)
        assert t.value(()) == 1
        assert t.value({"v1", "v2"}) == 1
        assert t.value({"v1", "v3"}) == 0
        assert t.value(("v1", "v2", "v3", "v4")) == 2
        assert t.value({"v1"}) == 0  # odd parity

    def test_triangle_measurements(self, triangle):
        g, c = triangle
        x = K.skew_kasteleyn_matrix(g, c)
        for pair in combinations(g.boundary, 2):
            assert x.measurement(pair) == 1
        assert x.measurement(g.boundary) == 0
        assert x.measurement(("v1",)) == 0


class TestMeasurementTable:
    def test_matches_oracle_on_fixtures(self):
        for seed in range(6):
            g, c = K.generate_random_disc_graph(
                "bipartite", 4, n_internal=2, k=2, seed=seed
            )
            m = K.kasteleyn_matrix(g, c, seed=seed)
            t = K.measurement_table(g, m)
            for subset, value in t.values.items():
                assert value == K.oracle_measurement(g, subset)
            assert t.value({g.boundary[0]}) == 0  # wrong size, not stored

    def test_oracle_across_all_traces_general(self):
        for seed in range(6):
            g, c = K.generate_random_disc_graph("general", 4, n_internal=2, seed=seed)
            x = K.skew_kasteleyn_matrix(g, c, seed=seed)
            for size in range(len(g.boundary) + 1):
                for subset in combinations(g.boundary, size):
                    assert x.measurement(subset) == K.oracle_measurement(g, subset)

    def test_weighted_tables(self):
        for seed in range(4):
            g, c = K.generate_random_disc_graph(
                "bipartite", 4, n_internal=1, k=1, seed=seed
            )
            for wseed in range(3):
                w = random_weights(g, wseed)
                m = K.kasteleyn_matrix(g, c, weights=w, seed=seed)
                for subset in combinations(g.boundary, m.k):
                    assert m.measurement(subset) == K.oracle_measurement(
                        g, subset, weights=w
                    )

    def test_gauge_invariance_across_seeds(self, fan):
        g, c = fan
        tables = []
        for seed in (0, 1, 7, 40, 1001):
            m = K.kasteleyn_matrix(g, c, seed=seed)
            tables.append(K.measurement_table(g, m).values)
        assert all(t == tables[0] for t in tables)

    def test_internal_vertex_weight_scaling(self):
        # Scaling all edges at one internal vertex by l scales every
        # measurement by l and leaves Plucker ratios unchanged.
        g, c = K.generate_random_disc_graph("bipartite", 4, n_internal=2, k=1, seed=2)
        v = g.internal_vertices[0]
        lam = F(7, 3)
        base = {e: F(1) for e in g.sorted_edges}
        scaled = {e: (w * lam if v in e else w) for e, w in base.items()}
        m0 = K.kasteleyn_matrix(g, c, weights=base)
        m1 = K.kasteleyn_matrix(g, c, weights=scaled)
        for subset in combinations(g.boundary, m0.k):
            assert m1.measurement(subset) == lam * m0.measurement(subset)

    def test_materialization_limit(self):
        g, c = K.generate_random_disc_graph("general", 17, 0, seed=1)
        m = K.skew_kasteleyn_matrix(g, c)
        with pytest.raises(ValueError, match="exceeds the materialization limit 16"):
            K.measurement_table(g, m)


class TestBuilderKind:
    def test_kasteleyn_matrix_refuses_a_general_graph(self):
        g, c = K.generate_triangulation_subgraph(6, seed=0)
        with pytest.raises(ValueError, match="bipartite builder needs a bipartite graph"):
            K.kasteleyn_matrix(g, c)

    def test_skew_kasteleyn_matrix_refuses_a_bipartite_graph(self):
        g, c = K.generate_grid(2, 3)
        with pytest.raises(ValueError, match="general builder needs a general graph"):
            K.skew_kasteleyn_matrix(g, c)


class TestNonBoundarySubsets:
    """A label outside the boundary is one ValueError on every entry point."""

    message = "subset contains non-boundary vertices"

    def test_bipartite_matrix(self, fan):
        g, c = fan
        m = K.kasteleyn_matrix(g, c)
        assert m.k == 2
        for subset in ({"zz"}, {"a", "zz"}, {"a", "b", "zz"}):
            with pytest.raises(ValueError, match=self.message):
                m.measurement(subset)
            with pytest.raises(ValueError, match=self.message):
                m.boundary_values([subset])
            with pytest.raises(ValueError, match=self.message):
                m.boundary_positions(subset)
            with pytest.raises(ValueError, match=self.message):
                K.measurement_table(g, m).value(subset)

    def test_general_matrix_and_point(self, boundary_cycle):
        g, c = boundary_cycle
        x = K.skew_kasteleyn_matrix(g, c)
        y = K.pfaffian_point(g, x)
        for subset in ({"zz"}, {"v1", "zz"}):
            with pytest.raises(ValueError, match=self.message):
                x.measurement(subset)
            with pytest.raises(ValueError, match=self.message):
                x.boundary_values([subset])
            with pytest.raises(ValueError, match=self.message):
                y.value(subset)
            with pytest.raises(ValueError, match=self.message):
                K.measurement_table(g, x).value(subset)

    def test_boundary_labels_still_answer(self, boundary_cycle):
        g, c = boundary_cycle
        x = K.skew_kasteleyn_matrix(g, c)
        y = K.pfaffian_point(g, x)
        assert y.value(["v2", "v1", "v1"]) == y.value({"v1", "v2"}) == 1
        assert K.measurement_table(g, x).value(["v1", "v2"]) == 1


class TestGrassmannPoint:
    def test_star_point(self):
        g = K.make_graph(
            ["b1", "w1", "w2"],
            {"b1": "black", "w1": "white", "w2": "white"},
            [("b1", "w1"), ("b1", "w2")],
            boundary=["w1", "w2"],
        )
        c = {"w1": (F(1), F(0)), "w2": (F(-1), F(0)), "b1": (F(0), F(-1, 2))}
        p = K.grassmann_point(g, K.kasteleyn_matrix(g, c))
        assert [v for _, v in p.plucker] == [1, 1]
        assert p.matrix.shape == (1, 2)

    def test_fan_vector_in_colex_order(self, fan):
        g, c = fan
        p = K.grassmann_point(g, K.kasteleyn_matrix(g, c))
        labels = [lbls for lbls, _ in p.plucker]
        assert labels == [
            ("a", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d"), ("c", "d"),
        ]
        assert [v for _, v in p.plucker] == [1, 1, 1, 1, 1, 0]

    def test_minors_of_matrix_equal_vector(self, fan):
        g, c = fan
        p = K.grassmann_point(g, K.kasteleyn_matrix(g, c))
        for subset in combinations(range(p.n), p.k):
            got = K.minor(p.matrix, list(range(p.k)), list(subset))
            assert got == p.value(p.boundary[j] for j in subset)

    def test_graph_without_matchings_gives_zero(self):
        # Internal white with no usable partner: no matchings at all.
        g = K.make_graph(
            ["b1", "w0", "w1", "w2"],
            {"b1": "black", "w0": "white", "w1": "white", "w2": "white"},
            [("b1", "w1"), ("b1", "w2")],
            boundary=["w1", "w2"],
        )
        c = {
            "w1": (F(1), F(0)),
            "w2": (F(-1), F(0)),
            "b1": (F(0), F(-1, 2)),
            "w0": (F(0), F(1, 2)),
        }
        p = K.grassmann_point(g, K.kasteleyn_matrix(g, c))
        assert p.is_zero()
        assert all(v == 0 for row in p.matrix.entries for v in row)

    def test_nonnegative_entries(self):
        for seed in range(6):
            g, c = K.generate_random_disc_graph(
                "bipartite", 5, n_internal=2, k=2, seed=seed
            )
            p = K.grassmann_point(g, K.kasteleyn_matrix(g, c, seed=seed))
            assert all(v >= 0 for _, v in p.plucker)


class TestPfaffianPoint:
    def test_boundary_cycle(self, boundary_cycle):
        g, c = boundary_cycle
        x = K.skew_kasteleyn_matrix(g, c)
        y = K.pfaffian_point(g, x)
        assert y.base == 1
        assert y.value(g.boundary) == 2
        assert y.value(("v1", "v2")) == 1

    def test_single_boundary_edge(self):
        g = K.make_graph(["v1", "v2"], {}, [("v1", "v2")], boundary=["v1", "v2"])
        c = {"v1": (F(1), F(0)), "v2": (F(-1), F(0))}
        y = K.pfaffian_point(g, K.skew_kasteleyn_matrix(g, c))
        assert y.matrix.matrix.entries == ((F(0), F(1)), (F(-1), F(0)))

    def test_reproduces_all_measurements(self):
        for seed in range(8):
            g, c = K.generate_random_disc_graph("general", 4, n_internal=4, seed=seed)
            x = K.skew_kasteleyn_matrix(g, c, seed=seed)
            base = x.measurement(())
            if base == 0:
                continue
            y = K.pfaffian_point(g, x)
            for size in range(len(g.boundary) + 1):
                for subset in combinations(g.boundary, size):
                    assert y.value(subset) * base == K.oracle_measurement(g, subset)

    def test_edgeless_boundary_has_unit_base(self):
        g = K.make_graph(
            ["v1", "v2", "v3"], {}, [], boundary=["v1", "v2", "v3"]
        )
        c = {
            "v1": (F(1), F(0)),
            "v2": (F(-3, 5), F(4, 5)),
            "v3": (F(-3, 5), F(-4, 5)),
        }
        x = K.skew_kasteleyn_matrix(g, c)
        y = K.pfaffian_point(g, x)
        # the empty matching always exists, so the base count is 1
        assert y.base == 1 and not y.base_zero
        assert y.value(("v1", "v2")) == 0

    def test_no_matchings_returns_flagged_zero(self):
        # An isolated internal vertex can never be covered: no matchings
        # at all, for any trace.
        g = K.make_graph(
            ["m", "v1", "v2"], {}, [("v1", "v2")], boundary=["v1", "v2"]
        )
        c = {"v1": (F(1), F(0)), "v2": (F(-1), F(0)), "m": (F(0), F(1, 3))}
        x = K.skew_kasteleyn_matrix(g, c)
        y = K.pfaffian_point(g, x)
        assert y.base_zero and y.base == 0
        assert y.value(("v1", "v2")) == 0

    def test_zero_base_with_matchable_traces_raises(self):
        # A path of two boundary vertices through one internal vertex:
        # the internal vertex can never be matched while avoiding the
        # boundary, but traces of size two exist.
        g = K.make_graph(
            ["m", "v1", "v2"],
            {},
            [("m", "v1"), ("m", "v2")],
            boundary=["v1", "v2"],
        )
        c = {"v1": (F(1), F(0)), "v2": (F(-1), F(0)), "m": (F(0), F(1, 3))}
        x = K.skew_kasteleyn_matrix(g, c)
        with pytest.raises(K.BaseCaseZero):
            K.pfaffian_point(g, x)


class TestMatrixJson:
    def test_jsonable_payloads(self, fan):
        g, c = fan
        m = K.kasteleyn_matrix(g, c)
        payload = m.to_jsonable()
        assert payload["kind"] == "bipartite"
        assert payload["matrix"]["rows"] == ["b1", "b2"]
        assert all(isinstance(x, str) for row in payload["matrix"]["entries"] for x in row)
        t = K.measurement_table(g, m)
        tp = t.to_jsonable()
        assert tp["values"]["a,b"] == "1"


def _reference_bipartite(g, assignment, weights):
    """Reference assembly: rows blacks, columns whites, entry sign * weight."""
    blacks, whites = bipartite_vertex_classes(g)
    wcol = {w: j for j, w in enumerate(whites)}
    rows = []
    for b in blacks:
        row = [Fraction(0)] * len(whites)
        for u in g.adjacency[b]:
            e = K.edge_key(b, u)
            row[wcol[u]] = assignment.sign(e) * Fraction((weights or {}).get(e, 1))
        rows.append(tuple(row))
    return K.RatMatrix(tuple(rows), tuple(blacks), tuple(whites))


def _reference_skew(g, assignment, weights):
    """Reference assembly: internal vertices then boundary, +entry above the diagonal."""
    order = list(g.internal_vertices) + list(g.boundary)
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for e in g.sorted_edges:
        u, v = e
        i, j = pos[u], pos[v]
        if i > j:
            i, j = j, i
        value = assignment.sign(e) * Fraction((weights or {}).get(e, 1))
        rows[i][j] = value
        rows[j][i] = -value
    return K.skew(rows, tuple(order))


# Ten seeded graphs of each kind: closed / boundary, bipartite / general.
BUILDER_CASES = (
    [("bipartite", K.generate_grid, rc)
     for rc in [(2, 2), (2, 3), (3, 2), (2, 5), (3, 4), (4, 3), (4, 4)]]
    + [("bipartite", K.generate_aztec, (n,)) for n in (1, 2, 3)]
    + [("bipartite", K.generate_random_disc_graph, ("bipartite", *p, i)) for i, p in enumerate(
        [(4, 2, 2), (5, 2, 1), (6, 1, 2), (4, 1, 1), (8, 1, 2),
         (5, 1, 2), (6, 2, 1), (4, 3, 1), (7, 1, 3), (6, 0, 2)])]
    + [("general", K.generate_triangulation_subgraph, (n, i))
       for i, n in enumerate([4, 5, 6, 6, 7, 7, 8, 8, 9, 10])]
    + [("general", K.generate_random_disc_graph, ("general", n, N, 0, i))
       for i, (n, N) in enumerate(
        [(4, 4), (4, 2), (6, 2), (5, 3), (6, 4), (3, 1), (4, 6), (6, 0), (2, 4), (5, 5)])]
)


class TestBuilderAssembly:
    @pytest.mark.parametrize(
        "kind, generate, args", BUILDER_CASES,
        ids=[f"{gen.__name__}{args}" for _, gen, args in BUILDER_CASES],
    )
    def test_matches_reference_assembly(self, kind, generate, args):
        g, c = generate(*args)
        build, reference = {
            "bipartite": (K.kasteleyn_matrix, _reference_bipartite),
            "general": (K.skew_kasteleyn_matrix, _reference_skew),
        }[kind]
        for weights in (None, random_weights(g, len(g.vertices))):
            m = build(g, c, weights, seed=3)
            assert m.matrix == reference(g, m.assignment, weights)
            assert (m.graph, m.seed, m.weights) == (g, 3, weights)
            assert m.n_internal == K.validate(g).n_internal
