"""Smoke test: every demo script runs to completion."""

import subprocess
import sys

import pytest

from conftest import ROOT, subprocess_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo):
    completed = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=subprocess_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
