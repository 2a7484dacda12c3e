"""Tables and points read from one reduction agree with per-subset minors."""

from itertools import combinations

import pytest

import kasteleyn as K
from kasteleyn import linalg

from conftest import random_weights


def all_subsets(boundary):
    return [frozenset(s) for size in range(len(boundary) + 1) for s in combinations(boundary, size)]


def assert_agrees_with_measurement(matrix):
    subsets = all_subsets(matrix.boundary)
    assert matrix.boundary_values(subsets) == [matrix.measurement(s) for s in subsets]


def general(n_boundary, n_internal, seed, weighted=False):
    g, c = K.generate_random_disc_graph("general", n_boundary, n_internal, seed=seed)
    weights = random_weights(g, seed) if weighted else None
    return g, K.skew_kasteleyn_matrix(g, c, weights)


def bipartite(n_boundary, n_internal, k, seed):
    g, c = K.generate_random_disc_graph("bipartite", n_boundary, n_internal, k, seed)
    return g, K.kasteleyn_matrix(g, c)


class TestGeneralValues:
    @pytest.mark.parametrize(
        "n_boundary, n_internal, seed, base",
        [(5, 4, 4, 2), (6, 6, 1, 2), (5, 2, 1, 0), (5, 3, 0, 0), (6, 5, 0, 0), (4, 0, 0, 1)],
    )
    def test_every_subset_matches_the_full_pfaffian(self, n_boundary, n_internal, seed, base):
        g, x = general(n_boundary, n_internal, seed)
        assert x.measurement(()) == base
        assert_agrees_with_measurement(x)

    def test_weighted(self):
        g, x = general(5, 4, 4, weighted=True)
        assert x.measurement(()) not in (0, 1, 2)
        assert_agrees_with_measurement(x)

    def test_base_zero_keeps_rest_rows(self):
        g, x = general(5, 2, 1)
        assert x.measurement(()) == 0
        scale, r = linalg.reduce_leading_block(x.matrix, x.n_internal)
        assert r.dimension > len(g.boundary)
        assert any(K.measurement_table(g, x).values.values())

    def test_table_evaluates_no_full_pfaffian_per_subset(self, monkeypatch):
        g, x = general(6, 6, 1)
        want = K.measurement_table(g, x).values

        def refuse(self, subset):
            raise AssertionError("full-size Pfaffian per subset")

        monkeypatch.setattr(K.SkewKasteleynMatrix, "measurement", refuse)
        assert K.measurement_table(g, x).values == want


class TestBipartiteValues:
    @pytest.mark.parametrize(
        "n_boundary, n_internal, k, seed",
        [(4, 2, 2, 0), (6, 3, 2, 2), (6, 2, 3, 0), (6, 3, 1, 5), (6, 5, 2, 3)],
    )
    def test_every_subset_matches_the_full_minor(self, n_boundary, n_internal, k, seed):
        g, m = bipartite(n_boundary, n_internal, k, seed)
        assert m.k == k
        assert_agrees_with_measurement(m)

    def test_singular_left_block_gives_zeros(self):
        g, m = bipartite(5, 2, 2, 7)
        with pytest.raises(linalg.SingularLeftBlock):
            linalg.reduce_left_block(m.matrix, m.n_internal)
        assert_agrees_with_measurement(m)
        assert not any(K.measurement_table(g, m).values.values())
        point = K.grassmann_point(g, m)
        assert point.is_zero() and point.matrix.shape == (2, 5)

    def test_k_zero_keeps_the_internal_determinant(self):
        g, m = bipartite(6, 4, 0, 2)
        assert m.k == 0 and g.boundary
        assert K.measurement_table(g, m).values == {frozenset(): 2}
        point = K.grassmann_point(g, m)
        assert point.plucker == (((), 2),)
        assert point.matrix.shape == (0, 6)
        assert_agrees_with_measurement(m)

    def test_closed_k_zero(self):
        g, c = K.generate_grid(2, 2)
        m = K.kasteleyn_matrix(g, c)
        assert K.measurement_table(g, m).values == {frozenset(): 2}

    def test_point_evaluates_no_full_minor_per_subset(self, monkeypatch):
        g, m = bipartite(6, 3, 2, 2)
        want = K.grassmann_point(g, m).plucker

        def refuse(self, subset):
            raise AssertionError("full-size minor per subset")

        monkeypatch.setattr(K.KasteleynMatrix, "measurement", refuse)
        g, m = bipartite(6, 3, 2, 2)
        assert K.grassmann_point(g, m).plucker == want
        assert K.measurement_table(g, m).values == {
            frozenset(labels): v for labels, v in want
        }
