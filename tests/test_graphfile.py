from fractions import Fraction
from pathlib import Path

import pytest

import kasteleyn as K
from kasteleyn.graphfile import GraphFileError

F = Fraction

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestParse:
    def test_minimal_file(self):
        g, c, w = K.parse(
            "vertex a black 0 0\nvertex b white 1 0\nedge a b\n"
        )
        assert g.vertices == ("a", "b")
        assert g.edges == {("a", "b")}
        assert c["b"] == (F(1), F(0))
        assert w is None

    def test_fraction_weight(self):
        g, _, w = K.parse(
            "vertex a plain 0 0\nvertex b plain 1 0\nedge a b 3/2\n"
        )
        assert w == {("a", "b"): F(3, 2)}
        assert K.make_graph(["a", "b"], {}, [("a", "b")]) == g

    def test_comments_and_blank_lines(self):
        text = "# heading\n\nvertex a plain 0 0  # trailing comment\n"
        g, _, _ = K.parse(text)
        assert g.vertices == ("a",)

    def test_boundary_order_is_kept(self):
        g, _, _ = K.parse(
            "vertex a plain 1 0\nvertex b plain 0 1\nboundary b a\n"
        )
        assert g.boundary == ("b", "a")

    def test_decimal_coordinate_rejected(self):
        with pytest.raises(GraphFileError) as err:
            K.parse("vertex a plain 1.5 0\n")
        assert err.value.line == 1
        assert "1.5" in str(err.value)

    def test_unknown_vertex_in_edge(self):
        with pytest.raises(GraphFileError) as err:
            K.parse("vertex a plain 0 0\nedge a zz\n")
        assert err.value.line == 2

    def test_duplicate_vertex(self):
        with pytest.raises(GraphFileError):
            K.parse("vertex a plain 0 0\nvertex a plain 1 0\n")

    def test_duplicate_edge(self):
        with pytest.raises(GraphFileError):
            K.parse(
                "vertex a plain 0 0\nvertex b plain 1 0\nedge a b\nedge b a\n"
            )

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFileError):
            K.parse("vertex a plain 0 0\nedge a a\n")

    def test_second_boundary_line_rejected(self):
        with pytest.raises(GraphFileError):
            K.parse(
                "vertex a plain 1 0\nvertex b plain 0 1\nboundary a\nboundary b\n"
            )

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphFileError):
            K.parse("vertex a plain 0 0\nvertex b plain 1 0\nedge a b 0\n")

    @pytest.mark.parametrize(
        "text,column",
        [
            ("vertex a plain 1/0 0\n", 16),
            ("vertex a plain 0 0\nvertex b plain 1 0\nedge a b 3/00\n", 10),
        ],
        ids=["coordinate", "weight"],
    )
    def test_zero_denominator_rejected(self, text, column):
        with pytest.raises(GraphFileError) as err:
            K.parse(text)
        assert err.value.column == column
        assert "zero denominator" in err.value.reason

    def test_unknown_directive(self):
        with pytest.raises(GraphFileError) as err:
            K.parse("vertices a plain 0 0\n")
        assert err.value.column == 1

    def test_error_column_positions(self):
        with pytest.raises(GraphFileError) as err:
            K.parse("vertex a plain 0 bad\n")
        assert err.value.line == 1
        assert err.value.column == 18


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.kg")))
    def test_fixture_files_round_trip(self, name):
        text = (FIXTURES / f"{name}.kg").read_text()
        parsed = K.parse(text)
        assert K.serialize(*parsed) == text
        assert K.parse(K.serialize(*parsed)) == parsed

    def test_generated_graph_round_trips(self):
        g, c = K.generate_random_disc_graph("bipartite", 4, n_internal=2, k=1, seed=3)
        assert K.parse(K.serialize(g, c)) == (g, c, None)

    def test_weights_round_trip(self):
        g, c = K.generate_grid(2, 3)
        w = {("g0x0", "g0x1"): F(2), ("g1x1", "g1x2"): F(3, 2)}
        assert K.parse(K.serialize(g, c, w)) == (g, c, w)
        assert K.serialize(g, c, w) == (FIXTURES / "grid2x3_weighted.kg").read_text()
        assert K.serialize(g, c) == (FIXTURES / "grid2x3.kg").read_text()

    def test_reversed_weight_key_round_trips(self):
        g, c = K.generate_grid(2, 3)
        text = K.serialize(g, c, {("g0x1", "g0x0"): 2})
        assert "edge g0x0 g0x1 2\n" in text
        assert K.parse(text) == (g, c, {("g0x0", "g0x1"): F(2)})

    @pytest.mark.parametrize(
        "weights, message",
        [
            ({("g0x0", "g0x1"): 0.5}, "float weight 0.5"),
            ({("g0x0", "g1x1"): 2}, "weight given for non-edge"),
            ({("g0x0", "g0x1"): 0}, "must be positive"),
        ],
    )
    def test_weight_table_is_checked(self, weights, message):
        g, c = K.generate_grid(2, 3)
        with pytest.raises(ValueError, match=message):
            K.serialize(g, c, weights)
