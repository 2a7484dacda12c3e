from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

import kasteleyn as K
from kasteleyn.linalg import OddLeadingBlock, SingularLeftBlock

from conftest import leibniz_det, random_skew, reference_pfaffian

F = Fraction


def rand_matrix(rng: Random, rows: int, cols: int, span: int = 2) -> K.RatMatrix:
    return K.matrix(
        [[F(rng.randrange(-span, span + 1)) for _ in range(cols)] for _ in range(rows)]
    )


class TestDet:
    def test_identity(self):
        assert K.det(K.matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1

    def test_two_by_two(self):
        assert K.det(K.matrix([[1, 2], [3, 4]])) == -2

    def test_repeated_row(self):
        assert K.det(K.matrix([[1, 2, 3], [4, 5, 6], [1, 2, 3]])) == 0

    def test_empty(self):
        assert K.det(K.matrix([])) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            K.det(K.matrix([[1, 2, 3], [4, 5, 6]]))

    def test_matches_leibniz_randomized(self):
        rng = Random(2024)
        for n in range(1, 6):
            for _ in range(20):
                m = rand_matrix(rng, n, n)
                assert K.det(m) == leibniz_det(m)

    def test_fractional_entries(self):
        m = K.matrix([[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]])
        assert K.det(m) == F(1, 14) - F(1, 15)


class TestFloatEntries:
    def test_matrix_refuses_floats(self):
        with pytest.raises(TypeError, match="float entry 0.1"):
            K.matrix([[F(1), 0.1]])
        with pytest.raises(TypeError):
            K.RatMatrix(((0.5,),), (0,), (0,))

    def test_skew_refuses_floats(self):
        with pytest.raises(TypeError):
            K.skew([[0, 0.5], [-0.5, 0]])

    def test_det_never_sees_a_float(self):
        with pytest.raises(TypeError):
            K.det(K.matrix([[0.1]]))
        assert K.det(K.matrix([["1/10"]])) == F(1, 10)


class TestMinor:
    def test_full_selection_is_det(self):
        m = K.matrix([[1, 2], [3, 4]])
        assert K.minor(m, [0, 1], [0, 1]) == K.det(m)

    def test_one_by_one(self):
        m = K.matrix([[1, 1]])
        assert K.minor(m, [0], [1]) == 1

    def test_column_order_flips_sign(self):
        m = K.matrix([[1, 2], [3, 4]])
        assert K.minor(m, [0, 1], [1, 0]) == -K.minor(m, [0, 1], [0, 1])

    def test_duplicate_indices_rejected(self):
        m = K.matrix([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            K.minor(m, [0, 0], [0, 1])

    def test_out_of_range_rejected(self):
        m = K.matrix([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            K.minor(m, [0, 2], [0, 1])


class TestReduceLeftBlock:
    def test_zero_left_columns_is_identity(self):
        m = K.matrix([[1, 2], [3, 4]])
        out = K.reduce_left_block(m, 0)
        assert out.entries == m.entries

    def test_hand_example(self):
        m = K.matrix([[1, 1, 0], [0, 1, 1]])
        out = K.reduce_left_block(m, 1)
        assert out.shape == (1, 2)
        assert K.minor(out, [0], [0]) == K.minor(m, [0, 1], [0, 1]) == 1
        assert K.minor(out, [0], [1]) == K.minor(m, [0, 1], [0, 2]) == 1

    def test_zero_first_column_rejected(self):
        m = K.matrix([[0, 1, 0], [0, 1, 1]])
        with pytest.raises(SingularLeftBlock):
            K.reduce_left_block(m, 1)

    def test_all_maximal_minors_preserved_randomized(self):
        rng = Random(5)
        for _ in range(25):
            n_left = rng.randrange(0, 4)
            k = rng.randrange(1, 3)
            n = rng.randrange(k, 5)
            m = rand_matrix(rng, n_left + k, n_left + n)
            try:
                out = K.reduce_left_block(m, n_left)
            except SingularLeftBlock:
                continue
            for subset in combinations(range(n), k):
                full = list(range(n_left)) + [n_left + j for j in subset]
                assert K.minor(m, list(range(n_left + k)), full) == K.minor(
                    out, list(range(k)), list(subset)
                )


class TestPfaffian:
    def test_two_by_two(self):
        assert K.pfaffian(K.skew([[0, 1], [-1, 0]])) == 1

    def test_odd_dimension_is_zero(self):
        x = random_skew(Random(1), 3)
        assert K.pfaffian(x) == 0

    def test_empty_is_one(self):
        assert K.pfaffian(K.skew([])) == 1

    def test_four_by_four_formula(self):
        rng = Random(3)
        for _ in range(20):
            x = random_skew(rng, 4)
            expected = x[0, 1] * x[2, 3] - x[0, 2] * x[1, 3] + x[0, 3] * x[1, 2]
            assert K.pfaffian(x) == expected

    def test_matches_reference_randomized(self):
        rng = Random(11)
        for n in (2, 4, 6, 8):
            for _ in range(10):
                x = random_skew(rng, n)
                assert K.pfaffian(x) == reference_pfaffian(x)

    def test_square_is_determinant(self):
        rng = Random(17)
        for n in (2, 4, 6, 8):
            for _ in range(10):
                x = random_skew(rng, n)
                assert K.pfaffian(x) ** 2 == K.det(x.matrix)

    def test_congruence_scaling(self):
        # Pf(A X A^T) = det(A) Pf(X)
        rng = Random(23)
        for n in (2, 4, 6):
            for _ in range(10):
                x = random_skew(rng, n)
                a = rand_matrix(rng, n, n)
                conj = K.matrix(
                    [
                        [
                            sum(
                                a[i, p] * x[p, q] * a[j, q]
                                for p in range(n)
                                for q in range(n)
                            )
                            for j in range(n)
                        ]
                        for i in range(n)
                    ]
                )
                assert K.pfaffian(K.SkewMatrix(conj)) == K.det(a) * K.pfaffian(x)

    def test_non_skew_rejected(self):
        with pytest.raises(ValueError):
            K.skew([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            K.skew([[1, 1], [-1, 0]])


class TestPfaffianMinor:
    def test_keep_all(self):
        x = random_skew(Random(29), 4)
        assert K.pfaffian_minor(x, range(4)) == K.pfaffian(x)

    def test_keep_nothing(self):
        x = random_skew(Random(29), 4)
        assert K.pfaffian_minor(x, []) == 1

    def test_principal_pair(self):
        x = random_skew(Random(31), 4)
        assert K.pfaffian_minor(x, [0, 1]) == x[0, 1]

    def test_unsorted_input_is_sorted(self):
        x = random_skew(Random(37), 6)
        assert K.pfaffian_minor(x, [3, 0, 1, 2]) == K.pfaffian_minor(x, [0, 1, 2, 3])


class TestSkewCongruenceReduce:
    def test_zero_leading_block(self):
        x = random_skew(Random(41), 4)
        y = K.skew_congruence_reduce(x, 0)
        assert y.matrix.entries == x.matrix.entries

    def test_already_block_diagonal(self):
        x = K.skew(
            [
                [0, 1, 0, 0],
                [-1, 0, 0, 0],
                [0, 0, 0, 5],
                [0, 0, -5, 0],
            ]
        )
        y = K.skew_congruence_reduce(x, 2)
        assert y.matrix.entries == ((F(0), F(5)), (F(-5), F(0)))

    def test_identity_on_all_subsets_randomized(self):
        rng = Random(43)
        done = 0
        while done < 12:
            x = random_skew(rng, 6)
            base = K.pfaffian_minor(x, range(4))
            if base == 0:
                continue
            done += 1
            y = K.skew_congruence_reduce(x, 4)
            for size in (0, 1, 2):
                for subset in combinations(range(2), size):
                    lhs = K.pfaffian_minor(x, list(range(4)) + [4 + j for j in subset])
                    assert lhs == base * K.pfaffian_minor(y, subset)

    def test_odd_leading_block_rejected(self):
        x = random_skew(Random(47), 5)
        with pytest.raises(OddLeadingBlock):
            K.skew_congruence_reduce(x, 3)

    def test_singular_leading_block_rejected(self):
        x = K.skew([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
        with pytest.raises(K.SingularLeadingBlock):
            K.skew_congruence_reduce(x, 2)
