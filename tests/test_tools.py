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
    runs = ["paper", "network", "network_mixed", "reference", "reference_campaigns",
            "reference_long", "verify_seed0", "refused_nan_budget", "refused_over_budget",
            "refused_solve"]
    runs += [f"single{index}{suffix}" for index in range(5) for suffix in ("", "_simulate")]
    names = {"exit_codes.txt"} | {f"{run}{suffix}" for run in runs
                                  for suffix in (".stdout", ".stderr")}
    for stem in ("paper", "network", "network_mixed"):
        names |= {f"{stem}_trace.csv", f"{stem}_result.json"}
    names |= {"network.json", "network_mixed.json", "reference.json", "reference_plans.json",
              "reference_trajectory.csv", "reference_campaigns_trajectory.csv",
              "reference_long.json", "reference_long_plans.json",
              "reference_long_trajectory.csv",
              "refused_nan_budget.json", "refused_over_budget_plans.json"}
    for index in range(5):
        names |= {f"single{index}{suffix}" for suffix in (
            ".json", "_report.json", "_plans.json", "_trajectory.csv", "_learning_trace.csv")}
    first = {path.name: path.read_bytes() for path in (tmp_path / "first").iterdir()}
    second = {path.name: path.read_bytes() for path in (tmp_path / "second").iterdir()}
    assert set(first) == names
    assert first == second
    codes = dict(line.split() for line in first["exit_codes.txt"].decode().splitlines())
    assert len(codes) == 20
    refused = {"refused_nan_budget": "2", "refused_over_budget": "3", "refused_solve": "4"}
    assert codes == {**dict.fromkeys(set(codes) - set(refused), "0"), **refused}
    assert first["refused_nan_budget.stderr"] == b"error: budgets must be finite\n"
    for index in range(5):  # iterations 1 to 50 of the one player's learning
        lines = first[f"single{index}_learning_trace.csv"].decode().splitlines()
        assert lines[1].startswith("1,0,1,0,") and lines[-1].startswith("50,0,")


def test_bench_pairs_alternates_its_runs_and_summarizes_fixed_numbers():
    bench_pairs = load_tool("bench_pairs")
    parent = [0.0480 + 0.0002 * i for i in range(10)]
    change = [value - 0.003 for value in parent[:9]] + [0.0500]
    values = {"P": iter(parent), "C": iter(change)}
    calls = []

    def run(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed, seconds))
        solve = next(values[checkout])
        return {"solve_s": solve, "cpu_s": solve, "peak_rss_mb": 40.0, "setup_s": 0.05}

    pairs = bench_pairs.compare("P", "C", "network-equilibrium", 6, 10, 20.0, run=run)
    assert [checkout for checkout, *_ in calls] == ["P", "C", "C", "P"] * 5
    assert {tuple(rest) for _, *rest in calls} == {("network-equilibrium", 6, 20.0)}
    lines = bench_pairs.summary(pairs)
    assert len(lines) == 10 + 8 + 2
    assert lines[0].startswith("pair 1 (parent first), parent / change: solve_s 0.048 / 0.045 ")
    assert lines[1].startswith("pair 2 (change first)")
    assert lines[10] == "solve_s parent: median 0.0489, quartiles 0.04845 to 0.04935"
    assert lines[11] == "solve_s change: median 0.0459, quartiles 0.04545 to 0.04635"
    assert lines[14] == "peak_rss_mb parent: median 40, quartiles 40 to 40"
    assert lines[-2] == "solve_s: change lower in 9 of 10 pairs"
    assert lines[-1].endswith(": holds")
    # eight wins of ten, or ten wins by less than the parent's interquartile range, fail
    assert bench_pairs.claim(parent, change[:8] + [1.0, 1.0]) == (8, False)
    assert bench_pairs.claim(parent, [value - 0.0001 for value in parent]) == (10, False)
    assert bench_pairs.run_order(3) == [("parent", "change"), ("change", "parent"),
                                        ("parent", "change")]
