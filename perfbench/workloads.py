"""Benchmark workloads: instances, the pipelines they time, their references.

Every instance has a `run` method (the timed span) and carries the exact
answer it must reproduce.  The answers come from closed forms or from the
brute-force matching enumerator in `kasteleyn.oracle`, computed during
set-up; nothing here reuses the signed-matrix code it referees.

A workload is a function `(seed, workdir) -> list[Instance]`.  The seed
picks the random instances, the weightings and the transport seed, so one
seed always yields the same inputs.  Instances are plain data, so that
they can be built, references included, in a separate set-up process;
`Instance.run` dispatches to the runner named by `kind`.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from pathlib import Path
from random import Random
from typing import Callable

import kasteleyn as K
from kasteleyn import cli, oracle

# Domino tilings of the n x n square (Temperley-Fisher 1961, Kasteleyn 1961).
GRID_COUNTS = {6: 6728, 8: 12988816, 10: 258584046368}

SCAN_LIMIT = 200  # random candidates tried before a workload gives up
WEIGHTINGS = 6  # weightings per drawing in the reweight workload


def aztec_count(order: int) -> int:
    """Domino tilings of the Aztec diamond (Elkies-Kuperberg-Larsen-Propp 1992)."""
    return 2 ** (order * (order + 1) // 2)


@dataclass
class Outcome:
    """What one timed run produced, before it is compared with the reference.

    `values` maps ("count",), ("base",), ("D", I) or ("P", I) to a Fraction,
    where I is a frozenset of boundary ids: a closed count, the base count
    of a Pfaffian point, a table entry D(I) and a Plücker coordinate.
    """

    typed: str
    values: dict
    reports: list = field(default_factory=list)


@dataclass
class Instance:
    name: str
    group: str  # instances of one input shape share a group
    kind: str  # key of RUNNERS
    graph: K.GraphWithBoundary
    drawing: dict
    typed: str  # the outcome the reference predicts
    expected: dict  # the values the reference predicts, keyed as in Outcome
    tseed: int  # transport seed
    weights: dict | None = None
    path: str | None = None  # graph file of a CLI instance

    def run(self) -> Outcome:
        """The timed pipeline."""
        return RUNNERS[self.kind](self)

    def problems(self, out: Outcome) -> list[str]:
        """Every way the outcome differs from the reference; empty if verified."""
        found = []
        if out.typed != self.typed:
            found.append(f"outcome {out.typed!r}, reference says {self.typed!r}")
        if out.values != self.expected:
            wrong = sorted(
                str(key) for key in self.expected.keys() | out.values.keys()
                if out.values.get(key) != self.expected.get(key)
            )
            found.append(f"{len(wrong)} values differ from the reference, first {wrong[0]}")
        failed = [r for r in out.reports if not r.holds]
        if failed:
            found.append(f"{len(failed)} identities fail, first {failed[0].name} {failed[0].detail}")
        return found


class CliFailure(Exception):
    """The command line returned a non-zero exit code."""


def reference_traces(g, matchings, weights=None) -> dict:
    """Brute-force D(I) for every boundary trace I with a matching.

    Sums matching weights over the enumerated matchings, in integers scaled
    by the common weight denominator so that the sums stay cheap and exact.
    """
    weights = weights or {}
    scale = lcm(1, *(Fraction(w).denominator for w in weights.values()))
    scaled = {e: int(Fraction(weights.get(e, 1)) * scale) for e in g.sorted_edges}
    sums: dict = {}
    for m in matchings:
        trace = frozenset(v for e in m for v in e if v in g.boundary_set)
        key = (trace, len(m))
        sums[key] = sums.get(key, 0) + prod(scaled[e] for e in m)
    traces: dict = {}
    for (trace, size), total in sums.items():
        traces[trace] = traces.get(trace, Fraction(0)) + Fraction(total, scale**size)
    return {t: v for t, v in traces.items() if v}


def enumerate_all(g) -> list:
    cap = max(oracle.DEFAULT_VERTEX_CAP, len(g.vertices))
    return K.enumerate_matchings(g, None, max_vertices=cap)


def random_weights(g, rng: Random) -> dict:
    """Positive rationals with denominators at most 16 on every edge."""
    return {e: Fraction(rng.randint(1, 32), rng.randint(1, 16)) for e in g.sorted_edges}


def scan(make: Callable[[int], tuple], classify: Callable, wanted: list, rng: Random) -> list:
    """Draw seeded candidates until every slot of `wanted` is filled.

    `classify(traces)` labels a candidate from its reference traces; a
    candidate fills the first empty slot with its label.  Returns one
    (g, c, traces) per slot, or raises after SCAN_LIMIT candidates.
    """
    slots: list = [None] * len(wanted)
    for _ in range(SCAN_LIMIT):
        g, c = make(rng.randrange(1 << 30))
        traces = reference_traces(g, enumerate_all(g))
        label = classify(traces)
        free = [i for i, want in enumerate(wanted) if want == label and slots[i] is None]
        if free:
            slots[free[0]] = (g, c, traces)
            if all(slots):
                return slots
    raise RuntimeError(f"{SCAN_LIMIT} candidates did not fill {wanted}")


def _quads(g) -> list:
    return list(combinations(g.boundary, 4))


def _table_values(table) -> dict:
    return {("D", subset): value for subset, value in table.values.items()}


def run_cli_count(inst: Instance) -> Outcome:
    """`kasteleyn count <file> --json --seed S`, in process, stdout captured."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["count", inst.path, "--json", "--seed", str(inst.tseed)])
    if code != 0:
        raise CliFailure(f"exit code {code}")
    return Outcome("count", {("count",): Fraction(json.loads(buf.getvalue())["count"])})


def run_weighted_count(inst: Instance) -> Outcome:
    m = K.kasteleyn_matrix(inst.graph, inst.drawing, inst.weights, seed=inst.tseed)
    return Outcome("count", {("count",): m.measurement(())})


def run_general_table(inst: Instance) -> Outcome:
    x = K.skew_kasteleyn_matrix(inst.graph, inst.drawing, inst.weights, seed=inst.tseed)
    return Outcome("table", _table_values(K.measurement_table(inst.graph, x)))


def run_general_point(inst: Instance) -> Outcome:
    """Table, then Pfaffian point, its consistency check and Kuo on every quad."""
    g = inst.graph
    x = K.skew_kasteleyn_matrix(g, inst.drawing, inst.weights, seed=inst.tseed)
    table = K.measurement_table(g, x)
    values = _table_values(table)
    reports = []
    try:
        y = K.pfaffian_point(g, x)
    except K.BaseCaseZero:
        typed = "base-case-zero"
    else:
        typed = "point"
        values[("base",)] = y.base
        reports.append(K.check_pfaffian_consistency(x, y, seed=inst.tseed))
    reports += [K.check_kuo_general(table, *q) for q in _quads(g)]
    return Outcome(typed, values, reports)


def run_bipartite(inst: Instance) -> Outcome:
    """Table, Grassmann point, Plücker three-term and Kuo on every quad (k = 2)."""
    g = inst.graph
    m = K.kasteleyn_matrix(g, inst.drawing, inst.weights, seed=inst.tseed)
    table = K.measurement_table(g, m)
    point = K.grassmann_point(g, m)
    values = _table_values(table)
    values.update((("P", frozenset(labels)), v) for labels, v in point.plucker)
    quads = _quads(g)
    reports = [K.check_plucker_three_term(point, q) for q in quads]
    reports += [K.check_kuo_bipartite(table, *q) for q in quads]
    return Outcome("table", values, reports)


RUNNERS = {
    "cli-count": run_cli_count,
    "weighted-count": run_weighted_count,
    "general-table": run_general_table,
    "general-point": run_general_point,
    "bipartite": run_bipartite,
}


def general_outcome(traces) -> str:
    """What `pfaffian_point` must do, from the reference traces."""
    return "base-case-zero" if traces and not traces.get(frozenset()) else "point"


def cli_count_instance(name, group, g, c, count, workdir: Path, tseed) -> Instance:
    path = workdir / f"{name}.kg"
    path.write_text(K.serialize(g, c), encoding="utf-8")
    return Instance(name, group, "cli-count", g, c, "count", {("count",): Fraction(count)},
                    tseed, path=str(path))


def weighted_count_instance(name, group, g, c, weights, count, tseed) -> Instance:
    return Instance(name, group, "weighted-count", g, c, "count", {("count",): count},
                    tseed, weights)


def general_instance(name, group, g, c, traces, tseed, weights=None, point=True) -> Instance:
    """Every admissible D(I); with `point`, the Pfaffian point path as well."""
    n_internal = len(g.internal_vertices)
    expected = {
        ("D", frozenset(s)): traces.get(frozenset(s), Fraction(0))
        for size in range(len(g.boundary) + 1)
        if (n_internal + size) % 2 == 0
        for s in combinations(g.boundary, size)
    }
    if not point:
        return Instance(name, group, "general-table", g, c, "table", expected, tseed, weights)
    typed = general_outcome(traces)
    if typed == "point":
        expected[("base",)] = traces.get(frozenset(), Fraction(0))
    return Instance(name, group, "general-point", g, c, typed, expected, tseed, weights)


def bipartite_instance(name, group, g, c, k, traces, tseed) -> Instance:
    expected = {}
    for s in combinations(g.boundary, k):
        value = traces.get(frozenset(s), Fraction(0))
        expected[("D", frozenset(s))] = value
        expected[("P", frozenset(s))] = value
    return Instance(name, group, "bipartite", g, c, "table", expected, tseed)


def closed_tilings(seed: int, workdir: Path) -> list[Instance]:
    """Closed counts through the CLI: transport and target checks dominate."""
    rng = Random(f"closed-tilings:{seed}")
    instances = []
    for n in (10, 6):
        g, c = K.generate_grid(n, n)
        instances.append(
            cli_count_instance(f"grid{n}x{n}", f"grid{n}x{n}", g, c, GRID_COUNTS[n], workdir, seed)
        )
    for order in (5, 3):
        g, c = K.generate_aztec(order)
        instances.append(
            cli_count_instance(f"aztec{order}", f"aztec{order}", g, c, aztec_count(order), workdir, seed)
        )
    tris = scan(
        lambda s: K.generate_triangulation_subgraph(24, seed=s, drop_one_in=8),
        lambda traces: "matchable" if traces else None,
        ["matchable", "matchable"],
        rng,
    )
    for label, (g, c, traces) in zip("ab", tris):
        instances.append(
            cli_count_instance(f"triangulation24-{label}", "triangulation24", g, c,
                               traces[frozenset()], workdir, seed)
        )
    return instances


def boundary_tables(seed: int, workdir: Path) -> list[Instance]:
    """Whole D(I) tables and their points: Pfaffian and determinant minors dominate.

    Each general shape contributes one drawing with D(empty) != 0 and one
    that ends in BaseCaseZero, so every seed times the same mix of the two
    paths.  The bipartite drawings are the first two with any matching.
    """
    rng = Random(f"boundary-tables:{seed}")
    instances = []
    for nb, ni in ((10, 8), (8, 8)):
        found = scan(
            lambda s: K.generate_random_disc_graph("general", nb, ni, seed=s),
            lambda traces: general_outcome(traces) if traces else None,
            ["point", "base-case-zero"],
            rng,
        )
        for label, (g, c, traces) in zip(("point", "bcz"), found):
            name = f"general{nb}+{ni}-{label}"
            instances.append(general_instance(name, name, g, c, traces, seed))
    found = scan(
        lambda s: K.generate_random_disc_graph("bipartite", 12, 4, k=2, seed=s),
        lambda traces: "matchable" if traces else None,
        ["matchable", "matchable"],
        rng,
    )
    for label, (g, c, traces) in zip("ab", found):
        instances.append(
            bipartite_instance(f"bipartite12+4k2-{label}", "bipartite12+4k2", g, c, 2, traces, seed)
        )
    return instances


def reweight(seed: int, workdir: Path) -> list[Instance]:
    """One drawing per graph under six weightings each: transport repeats per weighting."""
    rng = Random(f"reweight:{seed}")
    instances = []
    g, c = K.generate_grid(6, 6)
    matchings = enumerate_all(g)
    for i in range(WEIGHTINGS):
        w = random_weights(g, rng)
        expected = reference_traces(g, matchings, w)[frozenset()]
        instances.append(weighted_count_instance(f"grid6x6-w{i}", "grid6x6", g, c, w, expected, seed))
    [(g, c, _)] = scan(
        lambda s: K.generate_random_disc_graph("general", 8, 8, seed=s),
        lambda traces: "matchable" if traces else None,
        ["matchable"],
        rng,
    )
    matchings = enumerate_all(g)
    for i in range(WEIGHTINGS):
        w = random_weights(g, rng)
        traces = reference_traces(g, matchings, w)
        instances.append(
            general_instance(f"general8+8-w{i}", "general8+8", g, c, traces, seed, w, point=False)
        )
    return instances


WORKLOADS = {
    "closed-tilings": closed_tilings,
    "boundary-tables": boundary_tables,
    "reweight": reweight,
}
