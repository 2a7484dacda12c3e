"""Minors of a checked matrix: no second check, free odd Pfaffians, sparse pivots.

`principal` and `submatrix` skip the constructor checks, `pfaffian_minor`
answers odd keeps with 0 before building anything, and `_skew_eliminate`
updates only the columns where a pivot row is nonzero.  Each is compared
here with what the checked constructors, the reference Pfaffian and the
dense update loop give.
"""

import dataclasses
from fractions import Fraction
from random import Random

import pytest

import kasteleyn as K
from kasteleyn import linalg
from kasteleyn.linalg import _skew_eliminate

from conftest import random_skew, reference_pfaffian

F = Fraction


def dense_skew_eliminate(x: K.SkewMatrix, n_leading: int):
    """The skew elimination updating every live column of every live row."""
    work = [list(row) for row in x.matrix.entries]
    trailing = range(n_leading, x.dimension)
    free = list(range(n_leading))
    rest: list = []
    scale = Fraction(1)
    while free:
        i = free.pop(0)
        row_i = work[i]
        pos = next((p for p, j in enumerate(free) if row_i[j] != 0), None)
        if pos is None:
            rest.append(i)
            if not any(row_i[t] for t in trailing):
                break  # a zero row: both sides of the contract vanish
            continue
        j = free.pop(pos)
        row_j = work[j]
        pivot = row_i[j]
        scale *= -pivot if pos % 2 else pivot
        live = free + list(trailing)  # rest rows and columns are zero on i, j
        for r in live:
            row_r = work[r]
            a, b = row_r[i] / pivot, row_r[j] / pivot
            if a or b:
                for c in live:
                    row_r[c] += a * row_j[c] - b * row_i[c]
    return scale, rest, work


def seeded_skew(rng: Random, n: int, n_leading: int, rational: bool) -> K.SkewMatrix:
    """Sparse or dense skew matrix; the leading block is sometimes rank two."""
    density = rng.choice([0.25, 0.5, 1.0])
    rows = [[F(0)] * n for _ in range(n)]

    def value():
        return F(rng.randrange(-4, 5), rng.randrange(1, 7) if rational else 1)

    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i][j] = value()
                rows[j][i] = -rows[i][j]
    if n_leading >= 3 and rng.random() < 0.4:
        u = [value() for _ in range(n_leading)]
        v = [value() for _ in range(n_leading)]
        for i in range(n_leading):
            for j in range(n_leading):
                rows[i][j] = u[i] * v[j] - v[i] * u[j]
    return K.skew(rows)


class TestSparsePivotUpdates:
    def test_same_scale_rest_and_work_as_the_dense_loop(self):
        rng = Random("sparse-pivots")
        with_rest = odd = rational_cases = 0
        for _ in range(2400):
            n = rng.randrange(1, 10)
            n_leading = rng.randrange(0, n + 1)
            rational = rng.random() < 0.35
            x = seeded_skew(rng, n, n_leading, rational)
            got = _skew_eliminate(x, n_leading)
            assert got == dense_skew_eliminate(x, n_leading), (n, n_leading)
            assert all(type(v) is Fraction for row in got[2] for v in row)
            with_rest += bool(got[1])
            odd += n_leading % 2
            rational_cases += any(v.denominator != 1 for row in x.matrix.entries for v in row)
        assert with_rest >= 500 and odd >= 500 and rational_cases >= 500


class TestPfaffianMinor:
    def test_equals_the_reference_on_even_odd_and_unsorted_keeps(self):
        rng = Random("pfaffian-minor")
        sizes = set()
        for _ in range(300):
            x = random_skew(rng, rng.randrange(0, 11), span=rng.choice([1, 4]))
            size = rng.randrange(0, min(x.dimension, 8) + 1)
            keep = rng.sample(range(x.dimension), size)  # unsorted
            idx = sorted(keep)
            twin = K.skew([[x[i, j] for j in idx] for i in idx])
            assert K.pfaffian_minor(x, keep) == reference_pfaffian(twin), keep
            sizes.add(size)
        assert {0, 1, 2, 3, 7, 8} <= sizes

    def test_empty_keep_is_one(self):
        assert K.pfaffian_minor(random_skew(Random(0), 4), []) == 1
        assert K.pfaffian_minor(K.skew([]), []) == 1

    def test_odd_keep_is_checked_before_it_answers_zero(self):
        x = random_skew(Random(1), 5)
        with pytest.raises(ValueError, match="duplicate"):
            K.pfaffian_minor(x, [0, 2, 2])
        with pytest.raises(ValueError, match="out of range"):
            K.pfaffian_minor(x, [0, 1, 5])
        with pytest.raises(ValueError, match="out of range"):
            K.pfaffian_minor(x, [-1])


def labelled_skew(rng: Random, n: int) -> K.SkewMatrix:
    x = random_skew(rng, n)
    return K.skew([list(row) for row in x.matrix.entries], [f"v{i}" for i in range(n)])


class TestPrecheckedParts:
    def test_principal_equals_its_checked_twin(self):
        rng = Random("principal-twin")
        for _ in range(200):
            n = rng.randrange(1, 8)
            x = labelled_skew(rng, n)
            keep = [rng.randrange(-n, n) for _ in range(rng.randrange(0, n + 3))]
            idx = sorted(keep)
            m = x.matrix
            twin = K.SkewMatrix(K.RatMatrix(
                tuple(tuple(m[i, j] for j in idx) for i in idx),
                tuple(m.row_labels[i] for i in idx),
                tuple(m.col_labels[j] for j in idx),
            ))
            got = x.principal(keep)
            assert got == twin and hash(got) == hash(twin), keep

    def test_submatrix_equals_its_checked_twin(self):
        rng = Random("submatrix-twin")
        for _ in range(200):
            n_rows, n_cols = rng.randrange(1, 6), rng.randrange(1, 6)
            m = K.matrix(
                [[F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(n_cols)]
                 for _ in range(n_rows)],
                [f"r{i}" for i in range(n_rows)],
                [f"c{j}" for j in range(n_cols)],
            )
            rows = [rng.randrange(-n_rows, n_rows) for _ in range(rng.randrange(0, 6))]
            cols = [rng.randrange(-n_cols, n_cols) for _ in range(rng.randrange(0, 6))]
            twin = K.RatMatrix(
                tuple(tuple(m[i, j] for j in cols) for i in rows),
                tuple(m.row_labels[i] for i in rows),
                tuple(m.col_labels[j] for j in cols),
            )
            got = m.submatrix(rows, cols)
            assert got == twin and hash(got) == hash(twin), (rows, cols)

    def test_parts_stay_frozen(self):
        x = labelled_skew(Random(2), 4)
        part = x.principal([0, 2, 3])
        sub = x.matrix.submatrix([1, 0], [3, 3])
        with pytest.raises(dataclasses.FrozenInstanceError):
            part.matrix = sub
        for field in ("entries", "row_labels", "col_labels"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sub, field, ())
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(part.matrix, field, ())


@pytest.fixture
def post_inits(monkeypatch):
    """Counts of RatMatrix and SkewMatrix __post_init__ runs, by class name."""
    counts = {"RatMatrix": 0, "SkewMatrix": 0}
    for cls in (linalg.RatMatrix, linalg.SkewMatrix):
        original = cls.__post_init__

        def counting(self, _original=original, _name=cls.__name__):
            counts[_name] += 1
            return _original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


def counting_wrapper(monkeypatch, name: str) -> list:
    """Replace linalg.<name> by a wrapper that records each call."""
    original, calls = getattr(linalg, name), []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linalg, name, counting)
    return calls


class TestMechanism:
    def test_minors_run_no_constructor_check(self, post_inits):
        x = random_skew(Random(3), 8)
        m = K.matrix([[F(i * j + 1, i + 1) for j in range(6)] for i in range(5)])
        assert post_inits == {"RatMatrix": 2, "SkewMatrix": 1}  # the constructors count
        post_inits.update(RatMatrix=0, SkewMatrix=0)
        K.pfaffian_minor(x, [0, 3, 5, 6])
        K.pfaffian_minor(x, [1, 2, 4])
        K.pfaffian_minor(x, range(8))
        K.minor(m, [0, 2, 4], [5, 1, 3])
        K.minor(m, [], [])
        assert post_inits == {"RatMatrix": 0, "SkewMatrix": 0}

    def test_odd_minor_never_reaches_pfaffian(self, monkeypatch):
        calls = counting_wrapper(monkeypatch, "pfaffian")
        x = random_skew(Random(4), 7)
        built = []
        monkeypatch.setattr(
            linalg.SkewMatrix, "principal",
            lambda self, keep, _p=linalg.SkewMatrix.principal: built.append(keep) or _p(self, keep),
        )
        assert K.pfaffian_minor(x, [6, 0, 3]) == 0
        assert K.pfaffian_minor(x, range(7)) == 0
        assert (calls, built) == ([], [])
        K.pfaffian_minor(x, [6, 0])  # an even keep still goes through pfaffian
        assert len(calls) == 1 and len(built) == 1

    def test_minor_still_calls_det(self, monkeypatch):
        calls = counting_wrapper(monkeypatch, "det")
        m = K.matrix([[1, 2], [3, 4]])
        assert K.minor(m, [1, 0], [0, 1]) == 2
        assert len(calls) == 1

    def test_public_constructors_still_check(self):
        with pytest.raises(ValueError, match="not opposite"):
            K.SkewMatrix(K.RatMatrix(((0, 1), (1, 0)), (0, 1), (0, 1)))
        with pytest.raises(ValueError, match="zero diagonal"):
            K.SkewMatrix(K.RatMatrix(((1, 0), (0, 0)), (0, 1), (0, 1)))
        with pytest.raises(ValueError, match="square"):
            K.SkewMatrix(K.RatMatrix(((0, 1),), (0,), (0, 1)))
        with pytest.raises(TypeError, match="float"):
            K.SkewMatrix(K.RatMatrix(((0, 0.5), (-0.5, 0)), (0, 1), (0, 1)))
        with pytest.raises(ValueError, match="not opposite"):
            K.skew([[0, 1], [2, 0]])
        with pytest.raises(TypeError, match="float"):
            K.matrix([[1.0]])
