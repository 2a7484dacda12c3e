"""Tables and points read from one reduction agree with per-subset minors.

The per-subset minors are full-size minors from `linalg`: every value a
matrix reports, `measurement` included, is read from its one reduction,
so only they referee it.
"""

from fractions import Fraction
from itertools import combinations

import pytest

import kasteleyn as K
from kasteleyn import linalg
from kasteleyn.geometry import unit_circle_point

from conftest import random_weights


def all_subsets(boundary):
    return [frozenset(s) for size in range(len(boundary) + 1) for s in combinations(boundary, size)]


def full_minor(matrix, subset):
    """D(subset) as one full-size (Pfaffian) minor, without the matrix's reduction."""
    positions = matrix.boundary_positions(subset)
    cols = list(range(matrix.n_internal)) + [matrix.n_internal + p for p in positions]
    if matrix.kind == "general":
        return linalg.pfaffian_minor(matrix.matrix, cols)
    if len(positions) != matrix.k:
        return 0
    return linalg.minor(matrix.matrix, list(range(matrix.matrix.shape[0])), cols)


def assert_agrees_with_full_minors(matrix):
    subsets = all_subsets(matrix.boundary)
    want = [full_minor(matrix, s) for s in subsets]
    assert matrix.boundary_values(subsets) == want
    assert [matrix.measurement(s) for s in subsets] == want


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
        assert_agrees_with_full_minors(x)

    def test_weighted(self):
        g, x = general(5, 4, 4, weighted=True)
        assert x.measurement(()) not in (0, 1, 2)
        assert_agrees_with_full_minors(x)

    def test_base_zero_keeps_rest_rows(self):
        g, x = general(5, 2, 1)
        assert x.measurement(()) == 0
        scale, r = linalg.reduce_leading_block(x.matrix, x.n_internal)
        assert r.dimension > len(g.boundary)
        assert any(K.measurement_table(g, x).values.values())

    def test_table_evaluates_no_full_pfaffian_per_subset(self, monkeypatch):
        g, x = general(6, 6, 1)
        want = K.measurement_table(g, x).values
        real = linalg.pfaffian_minor

        def refuse_full(matrix, keep):
            if matrix is x.matrix:
                raise AssertionError("full-size Pfaffian per subset")
            return real(matrix, keep)

        monkeypatch.setattr(linalg, "pfaffian_minor", refuse_full)
        assert K.measurement_table(g, x).values == want
        assert x.measurement(()) == want[frozenset()]


class TestBipartiteValues:
    @pytest.mark.parametrize(
        "n_boundary, n_internal, k, seed",
        [(4, 2, 2, 0), (6, 3, 2, 2), (6, 2, 3, 0), (6, 3, 1, 5), (6, 5, 2, 3)],
    )
    def test_every_subset_matches_the_full_minor(self, n_boundary, n_internal, k, seed):
        g, m = bipartite(n_boundary, n_internal, k, seed)
        assert m.k == k
        assert_agrees_with_full_minors(m)

    def test_singular_left_block_gives_zeros(self):
        g, m = bipartite(5, 2, 2, 7)
        with pytest.raises(linalg.SingularLeftBlock):
            linalg.reduce_left_block(m.matrix, m.n_internal)
        assert_agrees_with_full_minors(m)
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
        assert_agrees_with_full_minors(m)

    def test_closed_k_zero(self):
        g, c = K.generate_grid(2, 2)
        m = K.kasteleyn_matrix(g, c)
        assert K.measurement_table(g, m).values == {frozenset(): 2}

    def test_point_evaluates_no_full_minor_per_subset(self, monkeypatch):
        g, m = bipartite(6, 3, 2, 2)
        want = K.grassmann_point(g, m).plucker
        g, m = bipartite(6, 3, 2, 2)
        m._reduction  # its sample check reads full-size minors once
        real = linalg.minor

        def refuse_full(matrix, rows, cols):
            if matrix is m.matrix:
                raise AssertionError("full-size minor per subset")
            return real(matrix, rows, cols)

        monkeypatch.setattr(linalg, "minor", refuse_full)
        assert K.grassmann_point(g, m).plucker == want
        assert K.measurement_table(g, m).values == {
            frozenset(labels): v for labels, v in want
        }


class TestRefereeIsIndependent:
    def test_corrupted_reduction_fails_the_consistency_check(self):
        # Negate one nonzero entry pair of the cached reduction: the matrix's
        # measurements and its Pfaffian point still agree with each other, so
        # only the full-size minors can tell.
        g, x = general(5, 4, 4)
        scale, r = x._reduction
        assert r.dimension == len(g.boundary)  # no rest rows: r is the point's matrix
        n = r.dimension
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if r[i, j] != 0)
        rows = [list(row) for row in r.matrix.entries]
        rows[i][j], rows[j][i] = -rows[i][j], -rows[j][i]
        x.__dict__["_reduction"] = (scale, linalg.skew(rows, r.labels))
        y = K.pfaffian_point(g, x)
        subsets = all_subsets(g.boundary)
        assert [x.measurement(s) for s in subsets] == [y.value(s) * y.base for s in subsets]
        report = K.check_pfaffian_consistency(x, y)
        assert not report.holds
        assert report.detail == f"first failure on subset {{{g.boundary[i]},{g.boundary[j]}}}"


class TestLargeBoundary:
    """The reduction's sample check draws its subsets instead of listing them all."""

    def test_general(self):
        g, x = general(40, 0, 1)
        u, v = g.sorted_edges[0]  # no internal vertices: one matching covers exactly u, v
        assert x.measurement((u, v)) == full_minor(x, (u, v)) == 1
        assert K.pfaffian_point(g, x).base == 1

    def test_bipartite(self):
        # 20 blacks, each joined to one of 40 boundary whites: D(I) is 1 on
        # that 20-subset and 0 on the other C(40, 20) - 1 > 10**11.
        boundary = [f"t{j}" for j in range(40)]
        blacks = [f"b{i}" for i in range(20)]
        c = {t: unit_circle_point(Fraction(j - 20, 8)) for j, t in enumerate(boundary)}
        c.update({b: (c[f"t{2 * i}"][0] / 2, c[f"t{2 * i}"][1] / 2) for i, b in enumerate(blacks)})
        color = {v: "black" if v in blacks else "white" for v in blacks + boundary}
        edges = [(b, f"t{2 * i}") for i, b in enumerate(blacks)]
        g = K.make_graph(blacks + boundary, color, edges, boundary)
        m = K.kasteleyn_matrix(g, c)
        for subset, count in ((boundary[::2], 1), (boundary[1::2], 0), (boundary[:20], 0)):
            assert m.measurement(subset) == full_minor(m, subset) == count
