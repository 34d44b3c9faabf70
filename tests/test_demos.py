"""Smoke tests: every demo script and every Python block of README.md runs to
completion."""

import re
import subprocess
import sys

import pytest

from conftest import ROOT, subprocess_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(argv):
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=subprocess_env(),
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo):
    completed = run_python([str(demo)])
    assert completed.returncode == 0, completed.stderr


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        completed = run_python(["-c", block])
        assert completed.returncode == 0, completed.stderr
