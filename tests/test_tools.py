import importlib.util
import sys

from conftest import ROOT


def load_tool(stem):
    spec = importlib.util.spec_from_file_location(stem, ROOT / "tools" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
two lines."""

# a comment
import math  # a trailing comment


def area(r):
    """A docstring."""

    text = """not a docstring:
    an assigned string"""
    return (math.pi
            * r ** 2)
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, def, the two lines of the assigned string, the two of the return
    assert load_tool("count_code_lines").code_lines(path) == 6


def test_snapshot_outputs_are_the_listed_files_and_repeat_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    snapshot = load_tool("snapshot_outputs").snapshot
    for run in ("first", "second"):
        snapshot(ROOT, tmp_path / run, verify_seeds=[0])
    names = {"exit_codes.txt", "verify_seed0.stdout"}
    for stem in ("paper", "network"):
        names |= {f"{stem}.stdout", f"{stem}_trace.csv", f"{stem}_result.json"}
    names |= {"network.json", "reference.json", "reference_plans.json", "reference.stdout",
              "reference_trajectory.csv"}
    for index in range(5):
        names |= {f"single{index}{suffix}" for suffix in (
            ".json", ".stdout", "_report.json", "_plans.json", "_simulate.stdout",
            "_trajectory.csv")}
    first = {path.name: path.read_bytes() for path in (tmp_path / "first").iterdir()}
    second = {path.name: path.read_bytes() for path in (tmp_path / "second").iterdir()}
    assert set(first) == names
    assert first == second
    codes = first["exit_codes.txt"].decode().split()
    assert len(codes) == 2 * 14 and set(codes[1::2]) == {"0"}
