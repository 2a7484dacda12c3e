from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import kasteleyn as K
from kasteleyn.oracle import EnumerationCapExceeded

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestEnumeration:
    def test_single_edge(self):
        g = K.make_graph(["a", "b"], {}, [("a", "b")])
        assert K.enumerate_matchings(g) == [frozenset({("a", "b")})]

    def test_boundary_cycle_full_trace(self, boundary_cycle):
        g, _ = boundary_cycle
        full = K.enumerate_matchings(g, g.boundary)
        assert len(full) == 2

    def test_two_by_three_grid(self):
        g, _ = K.generate_grid(2, 3)
        assert len(K.enumerate_matchings(g)) == 3

    def test_boundary_cycle_all_traces(self, boundary_cycle):
        g, _ = boundary_cycle
        matchings = K.enumerate_matchings(g)
        # empty + 4 single edges + 2 full = 7
        assert len(matchings) == 7
        traces = sorted(sorted(K.boundary_of(m, g)) for m in matchings)
        assert ["v1", "v2", "v3", "v4"] in traces
        assert [] in traces

    def test_cap_refusal(self):
        g, _ = K.generate_aztec(4)
        with pytest.raises(EnumerationCapExceeded):
            K.enumerate_matchings(g)
        assert len(K.enumerate_matchings(g, max_vertices=48)) == 1024

    def test_deterministic_order(self, boundary_cycle):
        g, _ = boundary_cycle
        assert K.enumerate_matchings(g) == K.enumerate_matchings(g)

    def test_non_boundary_subset_rejected(self, boundary_cycle):
        g, _ = boundary_cycle
        with pytest.raises(ValueError):
            K.enumerate_matchings(g, {"nope"})


class TestMeasurement:
    def test_missing_trace_is_zero(self, boundary_cycle):
        g, _ = boundary_cycle
        assert K.oracle_measurement(g, {"v1", "v3"}) == 0

    def test_unweighted_equals_all_ones(self, boundary_cycle):
        g, _ = boundary_cycle
        ones = {e: F(1) for e in g.edges}
        for subset in ((), ("v1", "v2"), g.boundary):
            assert K.oracle_measurement(g, subset) == K.oracle_measurement(
                g, subset, weights=ones
            )

    def test_weighted_single_matching(self, boundary_cycle):
        g, _ = boundary_cycle
        w = {K.edge_key("v1", "v2"): F(3, 2)}
        assert K.oracle_measurement(g, {"v1", "v2"}, weights=w) == F(3, 2)

    def test_empty_graph(self):
        g = K.make_graph([], {}, [])
        assert K.oracle_measurement(g) == 1  # the empty matching


class TestSignedSum:
    def test_equals_count_on_embeddings(self):
        g, c = K.generate_grid(2, 3)
        assert K.signed_sum(g, c) == K.oracle_measurement(g) == 3

    def test_bowtie_cancels(self, bowtie):
        g, c = bowtie
        assert K.oracle_measurement(g) == 2
        assert K.signed_sum(g, c) == 0

    def test_single_matching_graph_is_unit(self):
        g = K.make_graph(["a", "b"], {}, [("a", "b")])
        c = {"a": (F(0), F(0)), "b": (F(1), F(0))}
        assert K.signed_sum(g, c) in (1, -1)

    def test_bound_by_unsigned_count(self, bowtie):
        g, c = bowtie
        assert abs(K.signed_sum(g, c)) <= K.oracle_measurement(g)


def two_pass_enumeration(g, boundary_subset=None):
    """Reference enumerator: an internal pass, then a boundary pass.

    The boundary pass leaves a vertex uncovered without taking it, so a
    later boundary vertex can match it and one matching is built more
    than once; the set collapses the copies.  Kept as an independent
    referee for `enumerate_matchings`.
    """
    required = None if boundary_subset is None else frozenset(boundary_subset)
    internal = list(g.internal_vertices)
    boundary = [b for b in g.boundary if required is None or b in required]
    results, covered, chosen = [], set(), []

    def allowed(u):
        if u in covered:
            return False
        return required is None or u not in g.boundary_set or u in required

    def extend(vertices, idx, then):
        while idx < len(vertices) and vertices[idx] in covered:
            idx += 1
        if idx == len(vertices):
            then()
            return
        v = vertices[idx]
        if vertices is boundary and required is None:
            extend(vertices, idx + 1, then)  # leave v uncovered
        for u in g.adjacency[v]:
            if u == v or not allowed(u):
                continue
            covered.update((u, v))
            chosen.append(K.edge_key(u, v))
            extend(vertices, idx + 1, then)
            chosen.pop()
            covered.difference_update((u, v))

    def record():
        results.append(frozenset(chosen))

    extend(internal, 0, lambda: extend(boundary, 0, record))
    return sorted(set(results), key=sorted)


# 126 graphs: general and bipartite disc graphs (the general 10+8 at seed 3
# built 16 415 matchings for 2670 before each was built once), triangulations,
# grid 4x4, Aztec 3 and the c4boundary fixture.
REFEREE_CORPUS = (
    [("general", 2 + s % 5, s % 7, 0, s) for s in range(40)]
    + [("general", 10, 8, 0, 3), ("general", 8, 8, 0, 5)]
    + [("bipartite", 2 + s % 4, 1 + s % 4, s % 3, s) for s in range(40)]
    + [("triangulation", 4 + s % 9, s) for s in range(41)]
    + [("grid", 4, 4), ("aztec", 3), ("file", "c4boundary.kg")]
)


def referee_graph(spec):
    kind, *args = spec
    if kind == "triangulation":
        return K.generate_triangulation_subgraph(*args)[0]
    if kind == "grid":
        return K.generate_grid(*args)[0]
    if kind == "aztec":
        return K.generate_aztec(*args)[0]
    if kind == "file":
        return K.parse((FIXTURES / args[0]).read_text())[0]
    return K.generate_random_disc_graph(kind, *args)[0]


def referee_queries(g):
    """The full enumeration, every boundary prefix and, up to five boundary
    vertices, every boundary subset."""
    queries = [None] + [g.boundary[:i] for i in range(len(g.boundary) + 1)]
    if len(g.boundary) <= 5:
        queries += [s for r in range(len(g.boundary) + 1) for s in combinations(g.boundary, r)]
    return queries


class TestEachMatchingOnce:
    @pytest.mark.parametrize("spec", REFEREE_CORPUS, ids=str)
    def test_equals_two_pass_reference(self, spec):
        g = referee_graph(spec)
        for subset in referee_queries(g):
            got = K.enumerate_matchings(g, subset)
            # the list is not deduplicated, so a matching built twice shows
            assert len(set(got)) == len(got), f"{spec} {subset}: a matching built twice"
            assert got == two_pass_enumeration(g, subset), f"{spec} {subset}"
