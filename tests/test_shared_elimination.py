"""One elimination per matrix kind, run once per matrix.

`det` and `reduce_left_block` share one forward elimination; the left
block and its scale must still equal, entry for entry, the Gauss-Jordan
reduction it replaced (kept below).  `pfaffian_point` reads the skew matrix's cached
reduction; it must still equal the point built from full-size Pfaffian
minors and `skew_congruence_reduce` (also kept below), and a matrix that
serves a table and a point is reduced once.
"""

import contextlib
import json
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

import kasteleyn as K
from kasteleyn import linalg
from kasteleyn.linalg import SingularLeftBlock
from kasteleyn.measurements import BaseCaseZero, PfaffianPoint

from conftest import leibniz_det

F = Fraction


def gauss_jordan_left_block(k_matrix, n_left):
    """The Gauss-Jordan left-block reduction; returns (scale, bottom, repaired)."""
    n_rows, n_cols = k_matrix.shape
    work = [list(row) for row in k_matrix.entries]
    repaired = False
    for c in range(n_left):
        pivot_row = next((r for r in range(c, n_rows) if work[r][c] != 0), None)
        if pivot_row is None:
            raise SingularLeftBlock(f"columns 0..{n_left - 1} are dependent (column {c})")
        if pivot_row != c:
            repaired = True
            for j in range(n_cols):
                work[c][j] += work[pivot_row][j]
        pivot = work[c][c]
        for i in range(n_rows):
            if i == c or work[i][c] == 0:
                continue
            factor = work[i][c] / pivot
            for j in range(n_cols):
                work[i][j] -= factor * work[c][j]
    pivot_product = F(1)
    for c in range(n_left):
        pivot_product *= work[c][c]
    bottom = K.RatMatrix(
        tuple(tuple(work[i][j] for j in range(n_left, n_cols)) for i in range(n_left, n_rows)),
        tuple(k_matrix.row_labels[n_left:]),
        tuple(k_matrix.col_labels[n_left:]),
    )
    return pivot_product, bottom, repaired


def sparse_matrix(rng, rows, cols):
    zero_share = rng.choice((0.3, 0.5, 0.7))
    values = (-2, -1, 1, 2, F(1, 3))
    return K.matrix(
        [[0 if rng.random() < zero_share else rng.choice(values) for _ in range(cols)]
         for _ in range(rows)],
        [f"r{i}" for i in range(rows)],
        [f"c{j}" for j in range(cols)],
    )


class TestLeftBlockMatchesGaussJordan:
    def test_entry_for_entry_on_seeded_matrices(self):
        rng = Random("left-block-vs-gauss-jordan")
        cases = {"reduced": 0, "repaired": 0, "singular": 0, "no bottom rows": 0}
        for _ in range(400):
            n_left = rng.randrange(0, 5)
            k = rng.randrange(0, 4)
            m = sparse_matrix(rng, n_left + k, n_left + k + rng.randrange(0, 4))
            try:
                scale, want, repaired = gauss_jordan_left_block(m, n_left)
            except SingularLeftBlock as exc:
                with pytest.raises(SingularLeftBlock) as got:
                    K.reduce_left_block(m, n_left)
                assert str(got.value) == str(exc)
                cases["singular"] += 1
                continue
            got_scale, got = K.reduce_left_block(m, n_left)
            assert got_scale == scale and got.entries == want.entries
            assert (got.row_labels, got.col_labels) == (want.row_labels, want.col_labels)
            cases["reduced"] += 1
            cases["repaired"] += repaired
            cases["no bottom rows"] += k == 0
        assert cases["reduced"] >= 150 and cases["singular"] >= 50
        assert cases["repaired"] >= 50 and cases["no bottom rows"] >= 20

    def test_singular_message_names_the_column(self):
        m = K.matrix([[1, 1, 0, 1], [2, 2, 0, 1], [0, 0, 1, 1]])
        with pytest.raises(SingularLeftBlock, match=r"columns 0\.\.2 are dependent \(column 1\)"):
            K.reduce_left_block(m, 3)


class TestDetWithZeroLeadingMinors:
    def leading_minors(self, m):
        n = m.shape[0]
        return [leibniz_det(m.submatrix(range(j), range(j))) for j in range(1, n)]

    def test_first_row_zero_but_last(self):
        rng = Random("det-zero-leading")
        for n in range(2, 7):
            for _ in range(12):
                rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
                rows[0] = [0] * (n - 1) + [rng.choice((-2, 1, 3))]
                m = K.matrix(rows)
                assert not any(self.leading_minors(m))
                assert K.det(m) == leibniz_det(m)

    def test_filtered_sparse_matrices(self):
        rng = Random("det-filtered")
        found = nonsingular = 0
        while found < 60:
            n = rng.randrange(2, 6)
            m = K.matrix([[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)])
            if any(self.leading_minors(m)):
                continue
            found += 1
            assert K.det(m) == leibniz_det(m)
            nonsingular += leibniz_det(m) != 0
        assert nonsingular >= 10


def reference_pfaffian_point(X):
    """Full-size Pfaffian minors for D(empty) and the scan, then skew_congruence_reduce.

    The minors come from `linalg`, not from `X.measurement`, which reads the
    same reduction as the point under test.
    """
    n = len(X.boundary)
    internals = list(range(X.n_internal))

    def full_minor(subset):
        keep = internals + [X.n_internal + p for p in X.boundary_positions(subset)]
        return linalg.pfaffian_minor(X.matrix, keep)

    base = full_minor(())
    if base == 0:
        for size in range(n + 1):
            for subset in combinations(X.boundary, size):
                if full_minor(subset) != 0:
                    raise BaseCaseZero(
                        f"no boundary-avoiding matchings but trace {subset} is matchable"
                    )
        zero = linalg.skew([[0] * n] * n, X.boundary)
        return PfaffianPoint(zero, X.boundary, base, base_zero=True)
    y = linalg.skew_congruence_reduce(X.matrix, X.n_internal)
    return PfaffianPoint(y, X.boundary, base)


def outcome(build, X):
    try:
        return json.dumps(build(X).to_jsonable())
    except BaseCaseZero as exc:
        return f"BaseCaseZero: {exc}"


def isolated_internal_vertex():
    g = K.make_graph(["m", "v1", "v2"], {}, [("v1", "v2")], boundary=["v1", "v2"])
    c = {"v1": (F(1), F(0)), "v2": (F(-1), F(0)), "m": (F(0), F(1, 3))}
    return g, c


class TestPfaffianPointMatchesReference:
    def test_seeded_general_disc_graphs(self):
        kinds = {"point": 0, "odd internal": 0, "raised, even internal": 0}
        shapes = [(nb, ni, seed) for nb in (3, 4, 5, 6) for ni in range(6) for seed in range(2)]
        for n_boundary, n_internal, seed in shapes:
            g, c = K.generate_random_disc_graph("general", n_boundary, n_internal, seed=seed)
            X = K.skew_kasteleyn_matrix(g, c, seed=seed)
            want = outcome(reference_pfaffian_point, X)
            assert outcome(lambda x: K.pfaffian_point(g, x), X) == want
            kinds["point"] += want.startswith("{")
            kinds["odd internal"] += n_internal % 2
            kinds["raised, even internal"] += want.startswith("Base") and n_internal % 2 == 0
        assert kinds["point"] >= 10 and kinds["odd internal"] >= 10
        assert kinds["raised, even internal"] >= 2

    def test_no_matchings_at_all(self):
        g, c = isolated_internal_vertex()
        X = K.skew_kasteleyn_matrix(g, c)
        want = outcome(reference_pfaffian_point, X)
        assert json.loads(want)["base_zero"]
        assert outcome(lambda x: K.pfaffian_point(g, x), X) == want


class TestOneReductionPerMatrix:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = linalg.reduce_leading_block

        def counted(x, n_leading):
            seen.append(n_leading)
            return real(x, n_leading)

        monkeypatch.setattr(linalg, "reduce_leading_block", counted)
        return seen

    def test_table_point_and_consistency(self, calls):
        g, c = K.generate_random_disc_graph("general", 5, 4, seed=4)
        X = K.skew_kasteleyn_matrix(g, c)
        K.measurement_table(g, X)
        y = K.pfaffian_point(g, X)
        assert K.check_pfaffian_consistency(X, y).holds
        assert not y.base_zero
        assert calls == [4]

    def test_base_zero_scan(self, calls):
        g, c = K.generate_random_disc_graph("general", 5, 2, seed=1)
        X = K.skew_kasteleyn_matrix(g, c)
        assert any(K.measurement_table(g, X).values.values())
        with pytest.raises(BaseCaseZero):
            K.pfaffian_point(g, X)
        assert calls == [2]

    def test_each_matrix_reduces_once(self, calls):
        g, c = K.generate_random_disc_graph("general", 4, 2, seed=0)
        for seed in (0, 1):
            X = K.skew_kasteleyn_matrix(g, c, seed=seed)
            K.measurement_table(g, X)
            with contextlib.suppress(BaseCaseZero):
                K.pfaffian_point(g, X)
        assert calls == [2, 2]
