"""Tests of the benchmark itself, on a workload small enough for the test suite."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import kasteleyn as K
from perfbench import bench, workloads as W
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def tiny(seed, workdir):
    """One instance of every kind the real workloads use, on small graphs."""
    rng = Random(f"tiny:{seed}")
    g, c = K.generate_grid(2, 3)
    insts = [W.cli_count_instance("grid2x3", "grid2x3", g, c, 3, workdir, seed)]
    w = W.random_weights(g, rng)
    expected = W.reference_traces(g, W.enumerate_all(g), w)[frozenset()]
    insts.append(W.weighted_count_instance("grid2x3-w", "grid2x3-w", g, c, w, expected, seed))
    point, bcz = W.scan(
        lambda s: K.generate_random_disc_graph("general", 5, 2, seed=s),
        lambda traces: W.general_outcome(traces) if traces else None,
        ["point", "base-case-zero"],
        rng,
    )
    for label, (g, c, traces) in (("point", point), ("bcz", bcz)):
        insts.append(W.general_instance(f"general-{label}", "general", g, c, traces, seed))
    [(g, c, traces)] = W.scan(
        lambda s: K.generate_random_disc_graph("bipartite", 5, 1, k=2, seed=s),
        lambda traces: "matchable" if traces else None,
        ["matchable"],
        rng,
    )
    insts.append(W.bipartite_instance("bipartite", "bipartite", g, c, 2, traces, seed))
    return insts


@pytest.fixture
def tiny_bench(monkeypatch, tmp_path):
    monkeypatch.setitem(W.WORKLOADS, "tiny", tiny)
    monkeypatch.setitem(bench.LARGEST, "tiny", "grid2x3")
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    return tmp_path


def _run(capsys, trace: int, seed: int = 3):
    code = bench.main(["--workload", "tiny", "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_printed_with_its_unit(tiny_bench, capsys, trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    code, lines, result = _run(capsys, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    for m in declared:
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"]) for line in lines)


def tampered(seed, workdir):
    """`tiny` with one reference value of the bipartite instance off by one."""
    insts = tiny(seed, workdir)
    key = next(iter(insts[-1].expected))
    insts[-1].expected[key] += 1
    return insts


def test_a_tampered_reference_fails_the_run(tiny_bench, capsys, monkeypatch):
    monkeypatch.setitem(W.WORKLOADS, "tiny", tampered)
    code, lines, result = _run(capsys, 0)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    summary = json.loads((tiny_bench / "tiny-seed3-trace0.json").read_text())
    assert summary["reported"]["error_ratio"]["value"] > 0
    assert any(line.strip().startswith("FAILED bipartite") for line in lines)


def test_traced_and_untraced_runs_do_identical_work(tiny_bench, capsys):
    code, _, result = _run(capsys, 1)
    assert code == 0 and result["correct"]
    records = [json.loads(line) for line in (tiny_bench / "tiny-seed3-trace1.log.jsonl").open()]
    assert {r["traced"] for r in records} == {False, True}
    by_instance = {}
    for r in records:
        assert r["verified"], r["problems"]
        by_instance.setdefault(r["instance"], set()).add(bench._signature(r))
    assert all(len(sigs) == 1 for sigs in by_instance.values())
    assert all(r["event_digests"] for r in records)


def test_the_same_seed_repeats_its_counts(tiny_bench, capsys):
    counts = []
    for _ in range(2):
        code, _, result = _run(capsys, 1)
        assert code == 0
        counts.append({name: entry["value"] for name, entry in result["metrics"].items()
                       if entry["unit"] in ("count", "bytes", "bits")})
    assert counts[0] == counts[1]
    assert counts[0]["transport.events"] > 0 and counts[0]["linalg.pfaffian_calls"] > 0


def test_charged_time_subtracts_children_except_under_inclusive_spans():
    tracer = Tracer()
    tracer.spans = [
        ("cli.main", 0.0, 10.0, -1, "i"),
        ("linalg.minor", 1.0, 4.0, 0, "i"),
        ("linalg.det", 2.0, 3.0, 1, "i"),
        ("linalg.reduce_left_block", 5.0, 9.0, 0, "i"),
        ("linalg.det", 6.0, 8.0, 3, "i"),
    ]
    charged, calls, top = tracer.times()
    assert charged["cli.main"] == 3.0
    assert charged["linalg.minor"] == 2.0
    assert charged["linalg.det"] == 1.0
    assert charged["linalg.reduce_left_block"] == 4.0
    assert calls["linalg.det"] == 2
    assert top == {"i": 10.0}


def test_without_the_library_sources_the_benchmark_refuses(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-tilings", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
