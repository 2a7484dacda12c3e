from fractions import Fraction

import pytest

import kasteleyn as K
from kasteleyn.measurements import MeasurementTable, grassmann_point_from_matrix

F = Fraction


def perturbed(table: MeasurementTable, subset, delta=F(1)) -> MeasurementTable:
    values = dict(table.values)
    key = frozenset(subset)
    values[key] = values.get(key, F(0)) + delta
    return MeasurementTable(
        table.mode, table.boundary, table.n_internal, table.k, table.weighted, values
    )


class TestKuoBipartite:
    def test_fan_values(self, fan):
        g, c = fan
        t = K.measurement_table(g, K.kasteleyn_matrix(g, c))
        report = K.check_kuo_bipartite(t, "a", "b", "c", "d")
        assert report.holds
        assert (report.lhs, report.rhs) == (1, 1)

    def test_empty_table_holds(self, fan):
        g, _ = fan
        zero = MeasurementTable("bipartite", g.boundary, 0, 2, False, {})
        assert K.check_kuo_bipartite(zero, "a", "b", "c", "d").holds

    def test_non_circular_quadruple_rejected(self, fan):
        g, c = fan
        t = K.measurement_table(g, K.kasteleyn_matrix(g, c))
        with pytest.raises(ValueError):
            K.check_kuo_bipartite(t, "a", "c", "b", "d")

    def test_rotated_quadruple_accepted(self, fan):
        g, c = fan
        t = K.measurement_table(g, K.kasteleyn_matrix(g, c))
        assert K.check_kuo_bipartite(t, "c", "d", "a", "b").holds

    def test_negative_control(self, fan):
        g, c = fan
        t = K.measurement_table(g, K.kasteleyn_matrix(g, c))
        broken = perturbed(t, ("a", "c"))
        assert not K.check_kuo_bipartite(broken, "a", "b", "c", "d").holds

    def test_wrong_k_rejected(self):
        t = MeasurementTable("bipartite", ("a", "b", "c", "d"), 0, 1, False, {})
        with pytest.raises(ValueError):
            K.check_kuo_bipartite(t, "a", "b", "c", "d")

    def test_random_fixtures(self):
        for seed in range(6):
            g, c = K.generate_random_disc_graph(
                "bipartite", 4, n_internal=2, k=2, seed=seed
            )
            t = K.measurement_table(g, K.kasteleyn_matrix(g, c, seed=seed))
            assert K.check_kuo_bipartite(t, *g.boundary).holds


class TestKuoGeneral:
    def test_boundary_cycle(self, boundary_cycle):
        g, c = boundary_cycle
        t = K.measurement_table(g, K.skew_kasteleyn_matrix(g, c))
        report = K.check_kuo_general(t, *g.boundary)
        assert report.holds
        assert (report.lhs, report.rhs) == (2, 2)

    def test_isolated_boundary(self):
        g = K.make_graph(
            ["v1", "v2", "v3", "v4"], {}, [], boundary=["v1", "v2", "v3", "v4"]
        )
        c = {
            "v1": (F(1), F(0)),
            "v2": (F(0), F(1)),
            "v3": (F(-1), F(0)),
            "v4": (F(0), F(-1)),
        }
        t = K.measurement_table(g, K.skew_kasteleyn_matrix(g, c))
        report = K.check_kuo_general(t, "v1", "v2", "v3", "v4")
        assert report.holds and report.lhs == 0

    def test_seed_sweep(self):
        for seed in range(8):
            g, c = K.generate_random_disc_graph("general", 4, n_internal=2, seed=seed)
            t = K.measurement_table(g, K.skew_kasteleyn_matrix(g, c, seed=seed))
            assert K.check_kuo_general(t, *g.boundary).holds

    def test_negative_control(self, boundary_cycle):
        g, c = boundary_cycle
        t = K.measurement_table(g, K.skew_kasteleyn_matrix(g, c))
        broken = perturbed(t, ("v1", "v2"))
        assert not K.check_kuo_general(broken, *g.boundary).holds

    def test_odd_internal_rejected(self):
        t = MeasurementTable("general", ("a", "b", "c", "d"), 3, None, False, {})
        with pytest.raises(ValueError):
            K.check_kuo_general(t, "a", "b", "c", "d")


class TestPluckerThreeTerm:
    def test_explicit_matrix(self):
        L = K.matrix([[1, 0, -1, -1], [0, 1, 1, 1]], col_labels=("a", "b", "c", "d"))
        p = grassmann_point_from_matrix(L)
        report = K.check_plucker_three_term(p, ("a", "b", "c", "d"))
        assert report.holds

    def test_fan_vector(self, fan):
        g, c = fan
        p = K.grassmann_point(g, K.kasteleyn_matrix(g, c))
        report = K.check_plucker_three_term(p, ("a", "b", "c", "d"))
        assert report.holds
        assert (report.lhs, report.rhs) == (1, 1)

    def test_zero_vector(self):
        L = K.matrix([[0, 0, 0, 0], [0, 0, 0, 0]], col_labels=("a", "b", "c", "d"))
        p = grassmann_point_from_matrix(L)
        assert K.check_plucker_three_term(p, ("a", "b", "c", "d")).holds

    def test_every_quadruple_on_wider_fixture(self):
        from itertools import combinations

        for seed in range(4):
            g, c = K.generate_random_disc_graph(
                "bipartite", 5, n_internal=1, k=2, seed=seed
            )
            p = K.grassmann_point(g, K.kasteleyn_matrix(g, c, seed=seed))
            for quad in combinations(g.boundary, 4):
                assert K.check_plucker_three_term(p, quad).holds

    def test_negative_control(self):
        # A vector that is not a Plucker vector must fail the relation.
        L = K.matrix([[1, 0, -1, -1], [0, 1, 1, 1]], col_labels=("a", "b", "c", "d"))
        p = grassmann_point_from_matrix(L)
        tampered = tuple(
            (labels, v + 1 if set(labels) == {"a", "c"} else v)
            for labels, v in p.plucker
        )
        fake = K.GrassmannPoint(L, p.boundary, p.k, tampered)
        assert not K.check_plucker_three_term(fake, ("a", "b", "c", "d")).holds

    def test_wrong_k_rejected(self):
        L = K.matrix([[1, 0, 0, 0]], col_labels=("a", "b", "c", "d"))
        p = grassmann_point_from_matrix(L)
        with pytest.raises(ValueError):
            K.check_plucker_three_term(p, ("a", "b", "c", "d"))


class TestPfaffianConsistency:
    def test_boundary_cycle_all_subsets(self, boundary_cycle):
        g, c = boundary_cycle
        x = K.skew_kasteleyn_matrix(g, c)
        y = K.pfaffian_point(g, x)
        report = K.check_pfaffian_consistency(x, y)
        assert report.holds
        assert "16 subsets" in report.detail

    def test_internal_vertices(self):
        for seed in range(5):
            g, c = K.generate_random_disc_graph("general", 4, n_internal=4, seed=seed)
            x = K.skew_kasteleyn_matrix(g, c, seed=seed)
            if x.measurement(()) == 0:
                continue
            y = K.pfaffian_point(g, x)
            assert K.check_pfaffian_consistency(x, y).holds

    def test_negative_control(self, boundary_cycle):
        g, c = boundary_cycle
        x = K.skew_kasteleyn_matrix(g, c)
        y = K.pfaffian_point(g, x)
        rows = [list(row) for row in y.matrix.matrix.entries]
        rows[0][1] += 1
        rows[1][0] -= 1
        fake = K.PfaffianPoint(K.skew(rows, y.boundary), y.boundary, y.base)
        report = K.check_pfaffian_consistency(x, fake)
        assert not report.holds
        assert "first failure" in report.detail

    def test_json_report(self, boundary_cycle):
        g, c = boundary_cycle
        x = K.skew_kasteleyn_matrix(g, c)
        y = K.pfaffian_point(g, x)
        payload = K.check_pfaffian_consistency(x, y).to_jsonable()
        assert payload["identity"] == "pfaffian-consistency"
        assert payload["holds"] is True
