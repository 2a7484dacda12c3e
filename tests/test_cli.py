import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kasteleyn as K
from kasteleyn import measurements
from kasteleyn.cli import _common, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.kg")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_grid(self, capsys):
        code, out, _ = run(capsys, "count", fixture("grid4x4"))
        assert code == 0
        assert out.strip() == "36"

    def test_single_edge_json(self, capsys):
        code, out, _ = run(capsys, "count", fixture("single_edge"), "--json")
        assert code == 0
        assert json.loads(out) == {"count": "1"}

    def test_boundary_graph_rejected(self, capsys):
        code, _, err = run(capsys, "count", fixture("c4boundary"))
        assert code == 3
        assert "closed" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "count", "no_such_file.kg")
        assert code == 2

    def test_zero_denominator_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.kg"
        path.write_text("vertex a black 1/0 0\nvertex b white 1 0\nedge a b\n")
        code, out, err = run(capsys, "count", str(path))
        assert code == 2
        assert out == ""
        assert err == "parse error: line 1, column 16: coordinate '1/0' has zero denominator\n"

    def test_outputs_are_reproducible(self, capsys):
        one = run(capsys, "count", fixture("aztec2"), "--seed", "5")
        two = run(capsys, "count", fixture("aztec2"), "--seed", "5")
        assert one == two
        assert one[1].strip() == "8"


class TestMatrix:
    def test_closed_bipartite(self, capsys):
        code, out, _ = run(
            capsys, "matrix", fixture("grid2x3"), "--theorem", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "bipartite"
        assert len(payload["matrix"]["rows"]) == 3

    def test_trace_includes_events(self, capsys):
        code, out, _ = run(
            capsys, "matrix", fixture("grid2x3"), "--theorem", "1", "--json", "--trace"
        )
        payload = json.loads(out)
        assert code == 0
        assert "events" in payload

    def test_boundary_skew(self, capsys):
        code, out, _ = run(
            capsys, "matrix", fixture("c4boundary"), "--theorem", "5", "--json"
        )
        assert code == 0
        assert json.loads(out)["kind"] == "general"

    def test_mode_mismatch(self, capsys):
        code, _, err = run(capsys, "matrix", fixture("c4boundary"), "--theorem", "2")
        assert code == 3

    def test_closed_variant_needs_empty_boundary(self, capsys):
        code, _, err = run(capsys, "matrix", fixture("triangle"), "--theorem", "4")
        assert code == 3


class TestMeasure:
    def test_full_table(self, capsys):
        code, out, _ = run(capsys, "measure", fixture("c4boundary"), "--json")
        assert code == 0
        values = json.loads(out)["values"]
        assert values[""] == "1"
        assert values["v1,v2,v3,v4"] == "2"
        assert values["v1,v3"] == "0"

    def test_subset(self, capsys):
        code, out, _ = run(
            capsys, "measure", fixture("c4boundary"), "--subset", "v1,v2"
        )
        assert code == 0
        assert out.strip() == "1"

    def test_weighted_subset(self, capsys):
        code, out, _ = run(
            capsys, "measure", fixture("c4boundary"), "--subset", "v1,v2", "--weights"
        )
        assert code == 0
        assert out.strip() == "3/2"

    def test_fan_table_matches_oracle(self, capsys):
        code, out, _ = run(capsys, "measure", fixture("fan"), "--json")
        assert code == 0
        values = json.loads(out)["values"]
        assert values == {
            "a,b": "1", "a,c": "1", "a,d": "1", "b,c": "1", "b,d": "1", "c,d": "0",
        }

    def test_unknown_subset_member(self, capsys):
        code, _, err = run(
            capsys, "measure", fixture("c4boundary"), "--subset", "v1,zz"
        )
        assert code == 3

    def test_boundary_too_large_to_tabulate(self, capsys, tmp_path):
        g, c = K.generate_random_disc_graph("general", 17, 0, seed=1)
        path = tmp_path / "disc17.kg"
        path.write_text(K.serialize(g, c))
        code, out, err = run(capsys, "measure", str(path))
        assert (code, out) == (3, "")
        assert err == "validation error: boundary too large to tabulate; pass --subset\n"
        u, v = g.sorted_edges[0]  # no internal vertices: one matching covers exactly u, v
        code, out, _ = run(capsys, "measure", str(path), "--subset", f"{u},{v}")
        assert (code, out) == (0, "1\n")


class TestGrassmann:
    def test_fan_point(self, capsys):
        code, out, _ = run(capsys, "grassmann", fixture("fan"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 2 and payload["n"] == 4
        values = {tuple(e["columns"]): e["value"] for e in payload["plucker"]}
        assert values[("c", "d")] == "0"
        assert values[("a", "b")] == "1"

    def test_general_graph_rejected(self, capsys):
        code, _, _ = run(capsys, "grassmann", fixture("triangle"))
        assert code == 3


class TestPfaffianPoint:
    def test_boundary_cycle(self, capsys):
        code, out, _ = run(capsys, "pfaffian-point", fixture("c4boundary"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["base"] == "1"

    def test_bipartite_rejected(self, capsys):
        code, _, _ = run(capsys, "pfaffian-point", fixture("fan"))
        assert code == 3


class TestOracle:
    def test_closed_count(self, capsys):
        code, out, _ = run(capsys, "oracle", fixture("grid2x3"), "--json")
        assert code == 0
        assert json.loads(out)["values"][""] == "3"

    def test_signed_bowtie(self, capsys):
        code, out, _ = run(capsys, "oracle", fixture("bowtie"), "--signed")
        assert code == 0
        assert out.strip().endswith("0")

    def test_weighted_subset(self, capsys):
        code, out, _ = run(
            capsys, "oracle", fixture("c4boundary"), "--subset", "v1,v2", "--weights"
        )
        assert code == 0
        assert out.strip() == "3/2"


class TestCheck:
    def test_all_on_boundary_cycle(self, capsys):
        code, out, _ = run(capsys, "check", fixture("c4boundary"), "--identity", "all")
        assert code == 0
        assert "kuo-general" in out and "pfaffian-consistency" in out

    def test_all_on_fan(self, capsys):
        code, out, _ = run(capsys, "check", fixture("fan"), "--identity", "all")
        assert code == 0
        assert "kuo-bipartite" in out and "plucker-three-term" in out

    def test_inapplicable_identity(self, capsys):
        code, _, err = run(
            capsys, "check", fixture("grid2x3"), "--identity", "kuo-bipartite"
        )
        assert code == 3

    def test_json_reports(self, capsys):
        code, out, _ = run(
            capsys, "check", fixture("c4boundary"), "--identity", "kuo-general", "--json"
        )
        assert code == 0
        reports = json.loads(out)
        assert all(r["holds"] for r in reports)


class TestCheckRefusesBeforeTransport:
    @pytest.fixture
    def transports(self, monkeypatch):
        original, calls = measurements.compute_signed_structure, []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(measurements, "compute_signed_structure", counting)
        return calls

    def test_inapplicable_identity_runs_no_transport(self, capsys, transports):
        code, out, err = run(capsys, "check", fixture("grid4x4"))
        assert (code, out) == (3, "")
        assert err == "validation error: identity 'all' is not applicable to this graph\n"
        assert transports == []

    def test_a_bad_drawing_is_still_reported_first(self, capsys, transports):
        code, out, err = run(capsys, "check", fixture("bowtie"))
        assert (code, out, err) == (3, "", "validation error: target is not an embedding\n")
        assert transports == []

    def test_applicable_identity_runs_one_transport(self, capsys, transports):
        code, _, _ = run(capsys, "check", fixture("c4boundary"))
        assert code == 0
        assert len(transports) == 1


class TestInputErrors:
    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "binary.kg"
        path.write_bytes(b"\xff\xfe")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "kasteleyn.cli", "count", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"parse error: line 0, column 0: cannot read {path}: ")

    def test_negative_max_retries_is_a_validation_error(self, capsys):
        code, out, err = run(capsys, "count", fixture("grid2x3"), "--max-retries", "-1")
        assert code == 3
        assert out == ""
        assert err == "validation error: max_retries must be nonnegative, not -1\n"

    @pytest.mark.parametrize(
        "argv",
        [["count"], ["matrix", "--theorem", "1"], ["measure"], ["grassmann"],
         ["pfaffian-point"], ["oracle"], ["check"]],
    )
    def test_invalid_graph_is_one_validation_line(self, capsys, tmp_path, argv):
        path = tmp_path / "white_pair.kg"
        path.write_text("vertex a black 0 0\nvertex b white 1 0\nvertex c white 2 0\n"
                        "edge a b\nedge b c\n")
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (3, "")
        assert err.startswith("validation error: ") and err.count("\n") == 1


class TestExitPaths:
    """Each refusal the library raises ends in its exit code and one line."""

    def test_oracle_vertex_cap_is_a_validation_error(self, capsys, tmp_path):
        path = tmp_path / "grid5x5.kg"
        path.write_text(K.serialize(*K.generate_grid(5, 5)))
        code, out, err = run(capsys, "oracle", str(path))
        assert (code, out) == (3, "")
        assert err == "validation error: 25 vertices exceed the cap of 24\n"

    def test_signed_oracle_on_a_touching_drawing_is_a_validation_error(self, capsys, tmp_path):
        path = tmp_path / "touching.kg"
        path.write_text("vertex a plain 0 0\nvertex b plain 2 0\nvertex c plain 1 0\n"
                        "vertex d plain 1 1\nedge a b\nedge c d\n")
        code, out, err = run(capsys, "oracle", str(path), "--signed")
        assert (code, out) == (3, "")
        assert err.startswith("validation error: ") and err.count("\n") == 1

    def test_exhausted_retries_are_a_degeneracy(self, capsys, tmp_path):
        # blacks swap places on y = 1, so only a bent (retried) path avoids a collision
        path = tmp_path / "colliding.kg"
        path.write_text("vertex b1 black 10 1\nvertex b2 black 0 1\nvertex w1 white 10 0\n"
                        "vertex w2 white 0 0\nedge b1 w1\nedge b2 w2\nedge b1 w2\n")
        code, out, err = run(capsys, "count", str(path), "--max-retries", "0")
        assert (code, out) == (4, "")
        assert err.startswith("degeneracy: no usable path after 1 attempts: ")
        assert err.count("\n") == 1
        assert run(capsys, "count", str(path)) == (0, "1\n", "")

    def test_failed_identity_prints_its_report_and_exits_5(self, capsys, monkeypatch):
        failing = K.IdentityReport("kuo-general", False, 1, 2, "forced")
        monkeypatch.setattr("kasteleyn.cli.check_kuo_general", lambda *args: failing)
        code, out, err = run(capsys, "check", fixture("c4boundary"), "--identity", "kuo-general")
        assert code == 5
        assert out == "kuo-general: FAILS lhs=1 rhs=2 forced\n"
        assert err == "identity failure: 1 identities failed\n"


def _option_strings(parser) -> set:
    return {flag for action in parser._actions for flag in action.option_strings}


class TestReadmeUsage:
    def test_usage_lines_list_each_subcommands_own_flags(self):
        # The README's usage block names each subcommand's own flags; the
        # global ones (--json, --seed, --max-retries) are described after it.
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```")[1]
        usage = {}
        for line in block.strip().splitlines():
            words = line.split()
            assert words[0] == "kasteleyn", line
            usage[words[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
        common = argparse.ArgumentParser()
        _common(common)
        global_flags = _option_strings(common)
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert set(usage) == set(subparsers.choices)
        for name, sub in subparsers.choices.items():
            assert usage[name] - global_flags == _option_strings(sub) - global_flags, name
