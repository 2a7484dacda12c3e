"""The one skew elimination behind pfaffian and the leading-block reductions."""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

import kasteleyn as K
from kasteleyn.linalg import _skew_eliminate, reduce_leading_block

from conftest import random_skew, reference_pfaffian

F = Fraction


def singular_leading(rng: Random, n: int, n_leading: int) -> K.SkewMatrix:
    """Random skew matrix whose leading block has rank at most two."""
    x = random_skew(rng, n)
    u = [F(rng.randrange(-3, 4)) for _ in range(n_leading)]
    v = [F(rng.randrange(-3, 4)) for _ in range(n_leading)]
    rows = [list(row) for row in x.matrix.entries]
    for i in range(n_leading):
        for j in range(n_leading):
            rows[i][j] = u[i] * v[j] - v[i] * u[j]
    return K.skew(rows)


def assert_contract(x: K.SkewMatrix, n_leading: int) -> list:
    """Pf(x on leading + I) = scale * Pf(work on rest + I) for every I."""
    scale, rest, work = _skew_eliminate(x, n_leading)
    leading = list(range(n_leading))
    for size in range(x.dimension - n_leading + 1):
        for subset in combinations(range(n_leading, x.dimension), size):
            keep = rest + list(subset)
            reduced = K.skew([[work[i][j] for j in keep] for i in keep])
            lhs = reference_pfaffian(x.principal(leading + list(subset)))
            assert lhs == scale * reference_pfaffian(reduced), (n_leading, subset)
    return rest


def inverse(rows: list) -> list:
    """Gauss-Jordan inverse of a nonsingular square Fraction matrix."""
    n = len(rows)
    aug = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                aug[r] = [a - aug[r][c] * b for a, b in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


class TestSkewEliminate:
    def test_contract_on_nonsingular_leading_blocks(self):
        rng = Random("eliminate:nonsingular")
        for _ in range(30):
            n_leading = rng.choice([0, 2, 4])
            x = random_skew(rng, n_leading + rng.randrange(0, 4))
            assert_contract(x, n_leading)

    def test_contract_on_singular_leading_blocks(self):
        rng = Random("eliminate:singular")
        for _ in range(30):
            n_leading = rng.choice([4, 6])
            x = singular_leading(rng, n_leading + rng.randrange(1, 4), n_leading)
            assert assert_contract(x, n_leading)

    def test_contract_on_odd_leading_blocks(self):
        rng = Random("eliminate:odd")
        for _ in range(30):
            n_leading = rng.choice([1, 3, 5])
            x = random_skew(rng, n_leading + rng.randrange(0, 4), span=rng.choice([1, 4]))
            assert assert_contract(x, n_leading)

    def test_rest_row_stays_zero_on_the_free_block(self):
        # Row 0 meets only the trailing index 4, so it goes to rest first;
        # the pivot pair (1, 2) must not disturb it.
        x = K.skew(
            [
                [0, 0, 0, 0, 1],
                [0, 0, 2, 1, 1],
                [0, -2, 0, 3, 0],
                [0, -1, -3, 0, 1],
                [-1, -1, 0, -1, 0],
            ]
        )
        scale, rest, work = _skew_eliminate(x, 4)
        assert rest == [0, 3]
        assert scale == 2
        assert work[0][:4] == [0, 0, 0, 0]
        assert_contract(x, 4)

    def test_pivot_sign_follows_the_passed_indices(self):
        # Row 0 pairs with 2, passing the free index 1: Pf = -x[0][2] * x[1][3].
        x = K.skew([[0, 0, 5, 0], [0, 0, 0, 7], [-5, 0, 0, 0], [0, -7, 0, 0]])
        scale, rest, _ = _skew_eliminate(x, 4)
        assert (scale, rest) == (-35, [])
        assert K.pfaffian(x) == reference_pfaffian(x) == -35

    def test_pfaffian_matches_reference(self):
        rng = Random("eliminate:pfaffian")
        for _ in range(40):
            n = rng.randrange(0, 9)
            x = random_skew(rng, n, span=rng.choice([1, 4]))
            assert K.pfaffian(x) == reference_pfaffian(x)


class TestReduceLeadingBlock:
    def test_congruence_reduce_is_the_schur_complement(self):
        rng = Random("reduce:schur")
        done = 0
        while done < 20:
            n_leading = rng.choice([2, 4])
            trailing = rng.randrange(1, 4)
            x = random_skew(rng, n_leading + trailing)
            a = [[x[i, j] for j in range(n_leading)] for i in range(n_leading)]
            if K.pfaffian(K.skew(a)) == 0:
                continue
            done += 1
            a_inv = inverse(a)
            f = [[x[i, n_leading + j] for j in range(trailing)] for i in range(n_leading)]
            want = [
                [
                    x[n_leading + p, n_leading + q]
                    + sum(
                        f[i][p] * a_inv[i][j] * f[j][q]
                        for i in range(n_leading)
                        for j in range(n_leading)
                    )
                    for q in range(trailing)
                ]
                for p in range(trailing)
            ]
            y = K.skew_congruence_reduce(x, n_leading)
            assert [list(row) for row in y.matrix.entries] == want
            assert y.labels == x.labels[n_leading:]

    def test_singular_block_keeps_its_rest_rows(self):
        rng = Random("reduce:rest")
        x = singular_leading(rng, 6, 4)
        scale, r = reduce_leading_block(x, 4)
        assert r.dimension > 2
        assert r.labels[-2:] == x.labels[4:]
        with pytest.raises(K.SingularLeadingBlock):
            K.skew_congruence_reduce(x, 4)

    def test_odd_block_is_rejected_before_elimination(self):
        x = random_skew(Random("reduce:odd"), 5)
        assert reduce_leading_block(x, 3)[1].dimension >= 3
        with pytest.raises(K.OddLeadingBlock):
            K.skew_congruence_reduce(x, 3)

    def test_size_out_of_range(self):
        x = random_skew(Random("reduce:range"), 3)
        with pytest.raises(ValueError):
            reduce_leading_block(x, 4)
