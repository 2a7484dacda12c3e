"""Every demo runs cleanly and prints exactly what it printed before.

Each `demos/*.py` runs in a fresh interpreter with `PYTHONPATH=src` from
the repo root: it must exit 0, write nothing to stderr, and print stdout
whose sha256 equals the pin below.  A change that alters a demo's output
on purpose updates its pin and says why in its description.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_count_tilings.py": "77ba946e91c5aad4d6ff5306f744f93ce0d53a53332ecf16de0d3903dfd3ec61",
    "02_boundary_measurements.py": "8bc1e59fb3498eb32ae1f56818895aa59c161b8de768a5e49f5f2e0dbbc59b6f",
    "03_grassmann_point.py": "f79d9e7ffb9af536d6a9763cc93f6aac675eb58852cbe7b201c6c36434e8457c",
    "04_pfaffian_boundary.py": "f156e7d7b4c6cbaea9323af80787eaba9e9b698ec60a830361ab21f3ffb43b1d",
    "05_crossing_drawings.py": "8e4994f3bac345dc0fb551d65a024d8fe5e041b245aa3c9fdb7448e1bb122b83",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_output_is_unchanged(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo]
