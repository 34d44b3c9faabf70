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
    runs = ["paper", "network", "reference", "reference_campaigns", "verify_seed0",
            "refused_nan_budget", "refused_over_budget", "refused_solve"]
    runs += [f"single{index}{suffix}" for index in range(5) for suffix in ("", "_simulate")]
    names = {"exit_codes.txt"} | {f"{run}{suffix}" for run in runs
                                  for suffix in (".stdout", ".stderr")}
    for stem in ("paper", "network"):
        names |= {f"{stem}_trace.csv", f"{stem}_result.json"}
    names |= {"network.json", "reference.json", "reference_plans.json",
              "reference_trajectory.csv", "reference_campaigns_trajectory.csv",
              "refused_nan_budget.json", "refused_over_budget_plans.json"}
    for index in range(5):
        names |= {f"single{index}{suffix}" for suffix in (
            ".json", "_report.json", "_plans.json", "_trajectory.csv")}
    first = {path.name: path.read_bytes() for path in (tmp_path / "first").iterdir()}
    second = {path.name: path.read_bytes() for path in (tmp_path / "second").iterdir()}
    assert set(first) == names
    assert first == second
    codes = dict(line.split() for line in first["exit_codes.txt"].decode().splitlines())
    assert len(codes) == 18
    refused = {"refused_nan_budget": "2", "refused_over_budget": "3", "refused_solve": "4"}
    assert codes == {**dict.fromkeys(set(codes) - set(refused), "0"), **refused}
    assert first["refused_nan_budget.stderr"] == b"error: budgets must be finite\n"
