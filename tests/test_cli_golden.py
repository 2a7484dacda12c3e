"""Byte-for-byte pins of the CLI on every fixture.

Every `fixtures/*.kg` file runs through 13 subcommand variants, plain and
with --json, at seed 0.  The sha256 of stdout, stderr and the exit code
must equal the digest in `cli_golden.json`.  A change that alters output
on purpose rewrites that file with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json

and says in its description which outputs changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from kasteleyn import graphs
from kasteleyn.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
FIXTURES = sorted(p.name for p in (ROOT / "fixtures").glob("*.kg"))
VARIANTS = (
    ("count",),
    ("count", "--weights"),
    ("matrix", "--theorem", "1"),
    ("matrix", "--theorem", "2", "--trace"),
    ("matrix", "--theorem", "4"),
    ("matrix", "--theorem", "5", "--trace"),
    ("measure",),
    ("measure", "--weights"),
    ("grassmann",),
    ("pfaffian-point",),
    ("oracle",),
    ("oracle", "--signed"),
    ("check",),
)


def digests(fixture: str) -> dict:
    """Variant -> sha256 of (stdout, stderr, exit code); run from the repo root."""
    out = {}
    for variant in VARIANTS:
        for extra in ((), ("--json",)):
            argv = [variant[0], f"fixtures/{fixture}", *variant[1:], "--seed", "0", *extra]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            blob = json.dumps([stdout.getvalue(), stderr.getvalue(), code])
            out[" ".join(variant + extra)] = hashlib.sha256(blob.encode()).hexdigest()
    return out


@pytest.mark.parametrize("fixture", FIXTURES)
def test_cli_output_is_unchanged(fixture, monkeypatch):
    monkeypatch.chdir(ROOT)
    want = json.loads(GOLDEN.read_text())[fixture]
    got = digests(fixture)
    assert sorted(got) == sorted(want)
    changed = [variant for variant in got if got[variant] != want[variant]]
    assert not changed, f"{fixture}: output changed for {changed}"


@pytest.mark.parametrize("fixture", FIXTURES)
def test_each_run_validates_at_most_once(fixture, monkeypatch):
    monkeypatch.chdir(ROOT)
    original, calls = graphs.validate, []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in [m for name, m in sys.modules.items() if name.startswith("kasteleyn")]:
        if getattr(module, "validate", None) is original:
            monkeypatch.setattr(module, "validate", counting)
    for variant in VARIANTS:
        for extra in ((), ("--json",)):
            calls.clear()
            argv = [variant[0], f"fixtures/{fixture}", *variant[1:], "--seed", "0", *extra]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main(argv)
            assert len(calls) <= 1, f"{fixture} {' '.join(variant + extra)}: {len(calls)} calls"


if __name__ == "__main__":
    os.chdir(ROOT)
    print(json.dumps({f: digests(f) for f in FIXTURES}, indent=1, sort_keys=True))
