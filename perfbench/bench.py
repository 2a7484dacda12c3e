"""Run one workload, verify every answer, print its metrics.

The timed loop runs the workload's instances in order, one full pass and
then as many further runs as fit in the requested seconds, timing each
instance alone and comparing its answer with the reference afterwards.
With `--trace 1` the loop runs for half the seconds untraced, then one
traced pass, and prints the per-layer metrics instead; see
perfbench/README.md.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A wrong answer, a failed
identity or an unpredicted exception makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import tempfile
from itertools import count
from pathlib import Path
from time import perf_counter

from perfbench.tracing import SETUP, AssignmentTap, Tracer, installed
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3  # set-ups per run; setup_s takes their median
DEFAULT_SECONDS = 30

# Instance group whose median wall time is `largest_instance_s`.
LARGEST = {
    "closed-tilings": "grid10x10",
    "boundary-tables": "general10+8-point",
    "reweight": "grid6x6",
}

END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "largest_instance_s": "s",
    "values_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Printed and recorded, but not in BENCHMARK.json: error_ratio is 0 on a
# correct program, and the median over a handful of unlike instances
# jumps between neighbours from seed to seed.
REPORTED = {"instance_p50_s": "s", "error_ratio": "ratio"}

PER_LAYER = {
    "cli.self_s": "s",
    "graphfile.parse_s": "s",
    "graphfile.bytes": "bytes",
    "graphs.validate_s": "s",
    "immersion.check_s": "s",
    "immersion.check_calls": "count",
    "immersion.start_s": "s",
    "transport.s": "s",
    "transport.calls": "count",
    "transport.attempts": "count",
    "transport.events": "count",
    "transport.retry_ratio": "ratio",
    "geometry.s": "s",
    "geometry.pair_tests": "count",
    "geometry.rooted_ratio": "ratio",
    "linalg.det_s": "s",
    "linalg.det_calls": "count",
    "linalg.pfaffian_s": "s",
    "linalg.pfaffian_calls": "count",
    "linalg.reduce_s": "s",
    "linalg.result_bits_max": "bits",
    "measurements.assemble_s": "s",
    "measurements.table_s": "s",
    "measurements.point_s": "s",
    "measurements.values": "count",
    "identities.s": "s",
    "identities.checks": "count",
    "identities.failed": "count",
    "fixtures.s": "s",
    "oracle.s": "s",
    "oracle.matchings": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Per-layer times: metric -> span names charged to it (see Tracer.times).
LAYER_TIMES = {
    "cli.self_s": ["cli.main"],
    "graphfile.parse_s": ["graphfile.parse"],
    "graphs.validate_s": ["graphs.validate"],
    "immersion.check_s": ["immersion.is_embedding", "immersion.is_disc_embedding",
                          "immersion.is_immersion"],
    "immersion.start_s": ["immersion.canonical_start"],
    "transport.s": ["transport.compute_signed_structure", "transport.build_path",
                    "transport.transport_signs"],
    "geometry.s": ["geometry.motion_collinearity_poly", "geometry.roots_in_open_unit_interval",
                   "geometry.motion_betweenness_polys"],
    "linalg.det_s": ["linalg.det", "linalg.minor"],
    "linalg.pfaffian_s": ["linalg.pfaffian", "linalg.pfaffian_minor"],
    "linalg.reduce_s": ["linalg.reduce_left_block", "linalg.skew_congruence_reduce"],
    "measurements.assemble_s": ["measurements.kasteleyn_matrix",
                                "measurements.skew_kasteleyn_matrix"],
    "measurements.table_s": ["measurements.measurement_table"],
    "measurements.point_s": ["measurements.grassmann_point", "measurements.pfaffian_point"],
    "identities.s": ["identities.check_kuo_bipartite", "identities.check_kuo_general",
                     "identities.check_plucker_three_term",
                     "identities.check_pfaffian_consistency"],
}

# Per-layer call counts: metric -> span names counted.
LAYER_CALLS = {
    "immersion.check_calls": LAYER_TIMES["immersion.check_s"],
    "transport.calls": ["transport.compute_signed_structure"],
    "geometry.pair_tests": ["geometry.motion_collinearity_poly"],
    "linalg.det_calls": ["linalg.det"],
    "linalg.pfaffian_calls": ["linalg.pfaffian"],
    "identities.checks": LAYER_TIMES["identities.s"],
}

SETUP_TIMES = {
    "fixtures.s": ["fixtures.generate_grid", "fixtures.generate_aztec",
                   "fixtures.generate_random_disc_graph",
                   "fixtures.generate_triangulation_subgraph"],
    "oracle.s": ["oracle.enumerate_matchings"],
}


def _values_digest(values: dict) -> str:
    items = sorted(
        (key[0], tuple(sorted(key[1])) if len(key) > 1 else (), str(value))
        for key, value in values.items()
    )
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def _record(pass_no, inst, wall, traced, out, error, assignments) -> dict:
    if error is None:
        problems = inst.problems(out)
        typed, values = out.typed, out.values
    else:
        problems = [f"{type(error).__name__}: {error}"]
        typed, values = type(error).__name__, {}
    record = {
        "pass": pass_no,
        "instance": inst.name,
        "group": inst.group,
        "traced": traced,
        "wall_s": wall,
        "outcome": typed,
        "values": len(values),
        "values_digest": _values_digest(values),
        "event_digests": [a.digest() for a in assignments],
        "events": [len(a.events) for a in assignments],
        "attempts": [a.attempts for a in assignments],
        "verified": not problems,
        "problems": problems,
    }
    if ("count",) in values:
        record["value"] = str(values[("count",)])
    return record


def _signature(record: dict) -> tuple:
    return tuple(
        repr(record.get(key))
        for key in ("outcome", "value", "values", "values_digest", "event_digests", "events", "attempts")
    )


def run_loop(instances, seconds: float, tracer: Tracer | None = None) -> list:
    """One full pass over the instances, then more runs in the same order.

    After the first pass an instance runs again only if its previous wall
    time still fits before `seconds` have elapsed; the loop ends when none
    fits, near max(seconds, first pass).  A tracer gets exactly one pass.
    """
    tap = AssignmentTap()
    records = []
    last: dict = {}
    begin = perf_counter()
    with tap.installed():
        for turn in count():
            inst = instances[turn % len(instances)]
            if turn >= len(instances):
                left = seconds - (perf_counter() - begin)
                if tracer is not None or min(last.values()) > left:
                    break
                if last[inst.name] > left:
                    continue
            tap.taken.clear()
            if tracer is not None:
                tracer.instance = inst.name
            start = perf_counter()
            try:
                out, error = inst.run(), None
            except Exception as exc:  # an unpredicted exception fails the instance
                out, error = None, exc
            wall = perf_counter() - start
            last[inst.name] = wall
            records.append(
                _record(turn // len(instances), inst, wall, tracer is not None, out, error, tap.taken)
            )
    if tracer is not None:
        tracer.instance = None
    return records


def check_repeats(records: list) -> None:
    """Every run of one instance, traced or not, must do identical work."""
    first: dict = {}
    for record in records:
        sig = _signature(record)
        reference = first.setdefault(record["instance"], sig)
        if sig != reference:
            record["verified"] = False
            record["problems"].append("differs from the first run of this instance")


def instance_times(records: list) -> dict:
    """Median wall time of each instance over its runs."""
    walls: dict = {}
    for r in records:
        walls.setdefault(r["instance"], []).append(r["wall_s"])
    return {name: statistics.median(ws) for name, ws in walls.items()}


def end_to_end(records: list, largest: str, setup_s: float) -> dict:
    """Rates are per second of one pass, a pass timed by per-instance medians."""
    times = instance_times(records)
    busy = sum(times.values())
    verified = {r["instance"]: r["values"] for r in records}
    for r in records:
        if not r["verified"]:
            verified.pop(r["instance"], None)
    return {
        "setup_s": setup_s,
        "instances_per_s": len(verified) / busy,
        "largest_instance_s": statistics.median(
            r["wall_s"] for r in records if r["group"] == largest
        ),
        "values_per_s": sum(verified.values()) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, setup_tracer: Tracer, plain: list, traced: list) -> dict:
    """Layer times and counts of the one traced pass, and of the traced set-up."""
    charged, calls, top = tracer.times()
    metrics = {m: sum(charged[s] for s in spans) for m, spans in LAYER_TIMES.items()}
    metrics.update({m: sum(calls[s] for s in spans) for m, spans in LAYER_CALLS.items()})
    counters = tracer.counters
    for name in ("graphfile.bytes", "transport.attempts", "transport.events",
                 "measurements.values", "identities.failed", "linalg.result_bits_max"):
        metrics[name] = counters[name]
    attempts = metrics["transport.attempts"]
    metrics["transport.retry_ratio"] = (attempts - metrics["transport.calls"]) / attempts if attempts else 0.0
    pairs = metrics["geometry.pair_tests"]
    metrics["geometry.rooted_ratio"] = counters["geometry.rooted"] / pairs if pairs else 0.0
    s_charged, _, _ = setup_tracer.times()
    metrics.update({m: sum(s_charged[s] for s in spans) for m, spans in SETUP_TIMES.items()})
    metrics["oracle.matchings"] = setup_tracer.counters["oracle.matchings"]
    for r in traced:
        r["unattributed_s"] = r["wall_s"] - top.get(r["instance"], 0.0)
    metrics["trace.unattributed_s"] = sum(r["unattributed_s"] for r in traced)
    # traced over untraced instances_per_s, over the same instances
    metrics["trace.overhead_ratio"] = sum(instance_times(plain).values()) / sum(
        instance_times(traced).values()
    )
    return metrics


def set_up(builder, seed: int, workdir: str, traced: bool):
    """Body of a set-up process: the instances with their references.

    It runs in its own process so that the references' memory stays out of
    the timed process's peak resident set.
    """
    if not traced:
        return builder(seed, Path(workdir)), None
    tracer = Tracer()
    tracer.instance = SETUP
    with installed(tracer):
        return builder(seed, Path(workdir)), tracer


# A set-up process reads its arguments from stdin and writes its result to
# stdout, both pickled; only this program writes either.
SET_UP_MAIN = (
    "import pickle, sys; from perfbench.bench import set_up; "
    "sys.stdout.buffer.write(pickle.dumps(set_up(*pickle.load(sys.stdin.buffer))))"
)


def build(workload: str, seed: int, workdir: Path, repeats: int, traced: bool):
    """Set the workload up `repeats` times, each in a fresh process.

    Returns the last instances, each set-up's wall time, and the set-up
    tracer when traced.
    """
    request = pickle.dumps((WORKLOADS[workload], seed, str(workdir), traced))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    times = []
    for _ in range(repeats):
        start = perf_counter()
        child = subprocess.run([sys.executable, "-c", SET_UP_MAIN], input=request,
                               stdout=subprocess.PIPE, env=env, check=True)
        instances, tracer = pickle.loads(child.stdout)
        times.append(perf_counter() - start)
    return instances, times, tracer


def run_workload(args, import_s: float) -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        instances, setup_times, setup_tracer = build(
            args.workload, args.seed, Path(work), 1 if args.trace else SETUP_REPEATS, bool(args.trace)
        )
        setup_s = import_s + statistics.median(setup_times)
        if args.trace:
            plain = run_loop(instances, args.seconds / 2)
            tracer = Tracer()
            with installed(tracer):
                traced = run_loop(instances, 0, tracer)
            records = plain + traced
        else:
            records = run_loop(instances, args.seconds)
    check_repeats(records)
    failed = sum(not r["verified"] for r in records)
    if args.trace:
        metrics, units = per_layer(tracer, setup_tracer, plain, traced), PER_LAYER
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for tr in (setup_tracer, tracer):
                for span in tr.jsonable_spans():
                    handle.write(json.dumps(span) + "\n")
    else:
        metrics, units = end_to_end(records, LARGEST[args.workload], setup_s), END_TO_END
    reported = {"error_ratio": failed / len(records),
                "instance_p50_s": statistics.median(instance_times(records).values())}
    with open(f"{stem}.log.jsonl", "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": [inst.name for inst in instances],
        "largest": LARGEST[args.workload],
        "samples": len(records),
        "setup_times_s": setup_times,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "reported": {name: {"value": reported[name], "unit": unit} for name, unit in REPORTED.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{len(records)} instance runs, {len(instances)} instances"]
    lines += [f"  {name} = {metrics[name]:.6g} {unit}" for name, unit in units.items()]
    lines += [f"  {name} = {reported[name]:.6g} {unit} (reported only)" for name, unit in REPORTED.items()]
    lines.append(f"  {failed} of {len(records)} instance runs failed")
    lines += [f"  FAILED {r['instance']} pass {r['pass']}: {'; '.join(r['problems'])}"
              for r in records if not r["verified"]]
    lines.append(f"  log {stem}.log.jsonl")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": summary["metrics"],
    }, sort_keys=True), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another; combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        worst = max(worst, child.returncode)
        if child.returncode not in (0, 1) or not lines:
            print(f"workload {name} exited with {child.returncode}", file=sys.stderr)
            total["correct"] = False
            continue
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(total, sort_keys=True), flush=True)
    return worst


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="picks instances, weightings, transport seed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="timed seconds (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    return parser.parse_args(argv)


def main(argv=None, import_s: float = 0.0) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, import_s)
