"""Command-line surface.

`main` is the one front end: it loads the graph file, reads the graph's
kind once and hands both to the subcommand, with the file's weights only
under `--weights`, and it alone turns exceptions
into exit codes.  Exit codes: 0 success, 2 parse error, 3 validation error
(every refusal in `REFUSALS`: the graph, the drawing, a table over
`MATERIALIZE_LIMIT` boundary vertices, the oracle's vertex cap, a
degenerate drawing under `--signed`, no Pfaffian point), 4 degeneracy
(transport retries exhausted), 5 identity failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations

from .graphfile import GraphFileError, parse
from .graphs import bipartite_vertex_classes, graph_kind, validate
from .identities import (
    check_kuo_bipartite,
    check_kuo_general,
    check_pfaffian_consistency,
    check_plucker_three_term,
)
from .immersion import DegenerateDrawing
from .measurements import (
    MATERIALIZE_LIMIT,
    grassmann_point,
    kasteleyn_matrix,
    measurement_table,
    pfaffian_point,
    skew_kasteleyn_matrix,
    BaseCaseZero,
    _checked_inputs,
)
from .oracle import EnumerationCapExceeded, oracle_measurement, signed_sum
from .transport import RetriesExhausted

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DEGENERACY = 4
EXIT_IDENTITY = 5

# The library's refusals of an input; each exits 3 with its message.
REFUSALS = (ValueError, BaseCaseZero, DegenerateDrawing, EnumerationCapExceeded)


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFileError(0, 0, f"cannot read {path}: {exc}") from exc
    return parse(text)


def _refuse_large_table(g) -> None:
    if len(g.boundary) > MATERIALIZE_LIMIT:
        raise ValueError("boundary too large to tabulate; pass --subset")


def _build_matrix(g, config, weights, args, base_mode: str):
    build = kasteleyn_matrix if base_mode == "bipartite" else skew_kasteleyn_matrix
    return build(g, config, weights, seed=args.seed, max_retries=args.max_retries)


def _emit(args, jsonable, text_lines) -> None:
    if args.json:
        print(json.dumps(jsonable, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_subset(g, raw: str) -> frozenset:
    ids = [s for s in raw.split(",") if s]
    stray = [s for s in ids if s not in g.boundary_set]
    if stray:
        raise ValueError(f"not boundary vertices: {','.join(stray)}")
    return frozenset(ids)


def cmd_count(args, g, config, kind, weights) -> int:
    if g.boundary:
        raise ValueError("count needs a closed graph; use measure instead")
    matrix = _build_matrix(g, config, weights, args, kind)
    value = matrix.measurement(())
    _emit(args, {"count": str(value)}, [str(value)])
    return EXIT_OK


def cmd_matrix(args, g, config, kind, weights) -> int:
    want_bipartite = args.theorem in (1, 2)
    if want_bipartite != (kind == "bipartite"):
        raise ValueError(
            f"variant {args.theorem} needs a "
            f"{'bipartite' if want_bipartite else 'general'} graph"
        )
    if args.theorem in (1, 4) and g.boundary:
        raise ValueError(f"variant {args.theorem} needs an empty boundary")
    matrix = _build_matrix(g, config, weights, args, kind)
    payload = matrix.to_jsonable()
    if args.trace:
        payload["events"] = [ev.to_jsonable() for ev in matrix.assignment.events]
    lines = [f"rows: {' '.join(map(str, payload['matrix']['rows']))}",
             f"cols: {' '.join(map(str, payload['matrix']['cols']))}"]
    lines += [" ".join(row) for row in payload["matrix"]["entries"]]
    if args.trace:
        lines.append(f"events: {len(matrix.assignment.events)}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_measure(args, g, config, kind, weights) -> int:
    if args.subset is None:
        _refuse_large_table(g)
    matrix = _build_matrix(g, config, weights, args, kind)
    if args.subset is not None:
        subset = _parse_subset(g, args.subset)
        value = matrix.measurement(subset)
        _emit(args, {"subset": sorted(subset), "value": str(value)}, [str(value)])
        return EXIT_OK
    table = measurement_table(g, matrix)
    payload = table.to_jsonable()
    lines = [
        f"{key or '(empty)'}: {val}" for key, val in payload["values"].items()
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_grassmann(args, g, config, kind, weights) -> int:
    if kind != "bipartite":
        raise ValueError("grassmann needs a bipartite graph")
    matrix = _build_matrix(g, config, weights, args, kind)
    point = grassmann_point(g, matrix)
    payload = point.to_jsonable()
    lines = [f"k={point.k} n={point.n}"]
    lines += [" ".join(row) for row in payload["matrix"]["entries"]]
    lines += [
        f"plucker {','.join(entry['columns'])}: {entry['value']}"
        for entry in payload["plucker"]
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_pfaffian_point(args, g, config, kind, weights) -> int:
    if kind != "general":
        raise ValueError("pfaffian-point needs a general graph")
    matrix = _build_matrix(g, config, weights, args, kind)
    point = pfaffian_point(g, matrix)
    payload = point.to_jsonable()
    lines = [f"base: {point.base}"]
    lines += [" ".join(row) for row in payload["matrix"]["entries"]]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_oracle(args, g, config, kind, weights) -> int:
    report = validate(g)
    if not report.ok:
        raise ValueError("; ".join(report.problems))
    fn = (lambda s: signed_sum(g, config, s, weights)) if args.signed else (
        lambda s: oracle_measurement(g, s, weights)
    )
    if args.subset is not None:
        subset = _parse_subset(g, args.subset)
        value = fn(subset)
        _emit(
            args,
            {"signed": args.signed, "subset": sorted(subset), "value": str(value)},
            [str(value)],
        )
        return EXIT_OK
    _refuse_large_table(g)
    subsets = [
        frozenset(s)
        for size in range(len(g.boundary) + 1)
        for s in combinations(g.boundary, size)
    ]
    order = {b: i for i, b in enumerate(g.boundary)}
    values = {",".join(sorted(s, key=order.__getitem__)): str(fn(s)) for s in subsets}
    lines = [f"{key or '(empty)'}: {val}" for key, val in values.items()]
    _emit(args, {"signed": args.signed, "values": values}, lines)
    return EXIT_OK


def _applicable_checks(g, base: str, which: str) -> tuple[bool, bool]:
    """(Kuo applies, Pluecker or Pfaffian applies), read from the graph alone.

    Kuo needs four boundary vertices and, bipartite, k = 2 or, general, an
    even internal count; Pluecker needs k = 2 and at least four boundary
    vertices; the Pfaffian check applies to every general graph.
    """
    n_boundary = len(g.boundary)
    if base == "bipartite":
        blacks, whites = bipartite_vertex_classes(g)
        k = len(blacks) - (len(whites) - n_boundary)
        kuo = which in ("kuo-bipartite", "all") and k == 2 and n_boundary == 4
        point_checks = which in ("plucker", "all") and k == 2 and n_boundary >= 4
    else:
        kuo = (
            which in ("kuo-general", "all")
            and n_boundary == 4
            and len(g.internal_vertices) % 2 == 0
        )
        point_checks = which in ("pfaffian", "all")
    return kuo, point_checks


def cmd_check(args, g, config, kind, weights) -> int:
    which = args.identity
    kuo, point_checks = _applicable_checks(g, kind, which)
    if not (kuo or point_checks):
        # a bad graph or drawing is reported as a build would report it
        _checked_inputs(g, kind, config, None, require_embedded=True)
        raise ValueError(f"identity {which!r} is not applicable to this graph")
    matrix = _build_matrix(g, config, weights, args, kind)
    reports = []
    if kuo:
        check_kuo = check_kuo_bipartite if kind == "bipartite" else check_kuo_general
        reports.append(check_kuo(measurement_table(g, matrix), *g.boundary))
    if point_checks and kind == "bipartite":
        point = grassmann_point(g, matrix)
        for quad in combinations(g.boundary, 4):
            reports.append(check_plucker_three_term(point, quad))
    elif point_checks:
        point = pfaffian_point(g, matrix)
        reports.append(check_pfaffian_consistency(matrix, point, seed=args.seed))
    payload = [r.to_jsonable() for r in reports]
    lines = [
        f"{r.name}: {'HOLDS' if r.holds else 'FAILS'} lhs={r.lhs} rhs={r.rhs} {r.detail}"
        for r in reports
    ]
    _emit(args, payload, lines)
    failed = sum(not r.holds for r in reports)
    if failed:
        print(f"identity failure: {failed} identities failed", file=sys.stderr)
        return EXIT_IDENTITY
    return EXIT_OK


def _common(subparser) -> None:
    subparser.add_argument("file", help="graph file")
    subparser.add_argument("--json", action="store_true", help="machine-readable output")
    subparser.add_argument("--seed", type=int, default=0, help="transport seed")
    subparser.add_argument(
        "--max-retries", type=int, default=32,
        help="retried paths after the direct one (0: direct path only)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kasteleyn",
        description="Exact matching counts via signed adjacency matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, weights=True):
        p = sub.add_parser(name, help=help)
        _common(p)
        if weights:
            p.add_argument("--weights", action="store_true", help="use edge weights from the file")
        p.set_defaults(fn=fn)
        return p

    command("count", cmd_count, "total matching count of a closed graph")
    p = command("matrix", cmd_matrix, "signed matrix for one theorem variant")
    p.add_argument(
        "--theorem",
        type=int,
        choices=(1, 2, 4, 5),
        required=True,
        help="1: square bipartite, 2: bipartite with boundary, "
        "4: skew closed, 5: skew with boundary",
    )
    p.add_argument("--trace", action="store_true", help="include the event log")
    group = command("measure", cmd_measure, "boundary measurements").add_mutually_exclusive_group()
    group.add_argument("--subset", help="comma-separated boundary ids")
    group.add_argument("--all", action="store_true", help="full table (default)")
    command("grassmann", cmd_grassmann, "boundary matrix and its maximal minors")
    command("pfaffian-point", cmd_pfaffian_point, "boundary skew matrix and base count")
    p = command("oracle", cmd_oracle, "brute-force measurements")
    p.add_argument("--subset", help="comma-separated boundary ids")
    p.add_argument("--signed", action="store_true", help="crossing-signed sums")
    p = command("check", cmd_check, "verify measurement identities", weights=False)
    p.add_argument(
        "--identity",
        choices=("kuo-bipartite", "kuo-general", "plucker", "pfaffian", "all"),
        default="all",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        g, config, weights = _load(args.file)
        weights = weights if getattr(args, "weights", False) else None
        return args.fn(args, g, config, graph_kind(g), weights)
    except GraphFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except REFUSALS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RetriesExhausted as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
