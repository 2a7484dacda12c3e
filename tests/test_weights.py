"""Every weights table passes one check: exact, positive and on edges only.

Weights live only in a call's `weights` argument: the matrix builders and
the oracle share `graphs.checked_weights`, so each rejected case is tried
on every entry point, and a graph carries no weights of its own.
"""

from fractions import Fraction

import pytest

import kasteleyn as K

F = Fraction
EDGE = ("g0x0", "g0x1")
NON_EDGE = ("g0x0", "g1x1")  # the diagonal of the 2x2 grid


def grid(colored: bool = True):
    g, c = K.generate_grid(2, 2)
    if not colored:
        g = K.make_graph(g.vertices, {}, g.edges)
    return g, c


ENTRY_POINTS = {
    "kasteleyn_matrix": lambda w: K.kasteleyn_matrix(*grid(), w),
    "skew_kasteleyn_matrix": lambda w: K.skew_kasteleyn_matrix(*grid(colored=False), w),
    "oracle_measurement": lambda w: K.oracle_measurement(grid()[0], weights=w),
    "signed_sum": lambda w: K.signed_sum(*grid(), weights=w),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
class TestRejected:
    def test_float(self, entry):
        with pytest.raises(ValueError, match="float weight 0.1"):
            ENTRY_POINTS[entry]({EDGE: 0.1})

    def test_zero(self, entry):
        with pytest.raises(ValueError, match="must be positive"):
            ENTRY_POINTS[entry]({EDGE: 0})

    def test_negative(self, entry):
        with pytest.raises(ValueError, match="must be positive"):
            ENTRY_POINTS[entry]({EDGE: -1})

    def test_non_edge(self, entry):
        with pytest.raises(ValueError, match="non-edge"):
            ENTRY_POINTS[entry]({NON_EDGE: 2})


def test_exact_forms_and_either_key_order_agree():
    g, c = grid()
    want = K.kasteleyn_matrix(g, c, {EDGE: F(3, 2)}).matrix
    for w in ({EDGE: "3/2"}, {EDGE[::-1]: F(3, 2)}):
        assert K.kasteleyn_matrix(g, c, w).matrix == want
    assert K.kasteleyn_matrix(g, c, {EDGE: 3}).measurement(()) == 4


def test_a_graph_takes_no_weights():
    g, _ = grid()
    with pytest.raises(TypeError):
        K.make_graph(g.vertices, g.color, g.edges, weights={EDGE: 3})
    assert not hasattr(g, "weights") and not hasattr(g, "weight_of")
