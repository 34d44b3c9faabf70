import copy
import csv
import dataclasses
import functools
import io
import json
import os
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from influencegame import (
    CampaignSchedule,
    ConvergenceError,
    OpinionState,
    ScenarioError,
    build_region,
    cli,
    run_no_regret,
    simulate_trajectory,
    single_player_solver,
    verification,
)
from influencegame.cli import (
    main,
    reference_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from influencegame.verification import random_linear_game, run_suite
from influencegame.fileio import atomic_write_text
from conftest import ROOT, nested_loop_csv, star_adjacency, subprocess_env


def write_scenario(path, document):
    path.write_text(json.dumps(document))
    return str(path)


def single_player_document(cost=0.4, budget=1.0):
    return {
        "network": [[1.0]],
        "schedule": [0.0, 1.0, 2.0],
        "players": [
            {"budget": budget,
             "utility": {"kind": "linear-favor", "rho": [[1.0], [1.0]], "lambda": cost}}
        ],
        "x0": [[0.5]],
        "solver": {"T": 50},
    }


class TestScenarioRoundTrip:
    def test_reference_scenario_round_trips(self):
        scenario = reference_scenario()
        document = scenario_to_dict(scenario)
        parsed = scenario_from_dict(json.loads(json.dumps(document)))
        assert np.array_equal(parsed.spec.network.adjacency,
                              scenario.spec.network.adjacency)
        assert np.array_equal(parsed.spec.schedule.times, scenario.spec.schedule.times)
        assert np.array_equal(parsed.spec.x0.values, scenario.spec.x0.values)
        assert np.array_equal(parsed.spec.budgets, scenario.spec.budgets)
        for left, right in zip(parsed.spec.utilities, scenario.spec.utilities):
            assert left.cost_coefficient == right.cost_coefficient
            assert np.array_equal(left.rho, right.rho)
        assert parsed.solver == scenario.solver
        assert document["solver"] == {"T": 100}

    def test_readme_scenario_file_is_the_reference_document(self):
        readme = (ROOT / "README.md").read_text()
        block = re.search(r"^### Scenario files\n\n```json\n(.*?)^```", readme,
                          re.DOTALL | re.MULTILINE).group(1)
        parsed = scenario_from_dict(json.loads(block))
        assert scenario_to_dict(parsed) == scenario_to_dict(reference_scenario())
        assert block == cli.REFERENCE_DOCUMENT

    def test_unknown_keys_rejected(self):
        document = single_player_document()
        document["networkx"] = []
        with pytest.raises(ScenarioError, match="networkx"):
            scenario_from_dict(document)

    def test_unknown_nested_keys_rejected(self):
        document = single_player_document()
        document["players"][0]["utility"]["rho_extra"] = 1
        with pytest.raises(ScenarioError):
            scenario_from_dict(document)

    def test_dimension_mismatch_rejected(self):
        document = single_player_document()
        document["x0"] = [[0.5], [0.5]]
        with pytest.raises(ScenarioError):
            scenario_from_dict(document)


class TestSimulateCommand:
    def test_uniform_start_stays_uniform(self, tmp_path):
        scenario = write_scenario(
            tmp_path / "s.json", scenario_to_dict(reference_scenario())
        )
        plans = tmp_path / "p.json"
        plans.write_text(json.dumps({"plans": [[[0.0] * 3] * 2, [[0.0] * 3] * 2]}))
        out = tmp_path / "traj.csv"
        code = main(["simulate", scenario, str(plans), "--samples", "7",
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "time,individual,player,opinion"
        opinions = np.array([float(r.split(",")[3]) for r in rows[1:]])
        np.testing.assert_allclose(opinions, 0.5, atol=1e-12)

    def test_rows_match_the_csv_writer_rendering(self, tmp_path):
        # samples on both campaign times give pre- and post-jump records
        spec = reference_scenario().spec
        profile = np.array([[[0.5, 0.25, 0.5], [0.3, 0.5, 0.5]],
                            [[1.0, 1.0, 1.0], [0.5, 0.25, 0.5]]])
        plans = tmp_path / "p.json"
        plans.write_text(json.dumps({"plans": profile.tolist()}))
        scenario = write_scenario(tmp_path / "s.json", scenario_to_dict(reference_scenario()))
        out = tmp_path / "traj.csv"
        assert main(["simulate", scenario, str(plans), "--samples", "13",
                     "--out", str(out)]) == 0
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["time", "individual", "player", "opinion"])
        for time, values, _ in zip(*simulate_trajectory(spec, profile, np.linspace(0.0, 3.0, 13))):
            for i in range(values.shape[0]):
                for j in range(values.shape[1]):
                    writer.writerow([repr(float(time)), i, j, repr(float(values[i, j]))])
        assert out.read_text() == buffer.getvalue()
        assert len(buffer.getvalue().splitlines()) == 1 + 6 * (13 + 2)

    def test_no_samples_write_the_header_alone(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json", scenario_to_dict(reference_scenario()))
        plans = tmp_path / "p.json"
        plans.write_text(json.dumps({"plans": [[[0.0] * 3] * 2] * 2}))
        out = tmp_path / "traj.csv"
        assert main(["simulate", scenario, str(plans), "--samples", "0",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == b"time,individual,player,opinion\n"
        assert capsys.readouterr().out == f"wrote 0 trajectory records to {out}\n"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["simulate", str(tmp_path / "absent.json"),
                     str(tmp_path / "p.json"), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "absent.json" in capsys.readouterr().err

    def test_over_budget_plans_exit_3(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path / "s.json", scenario_to_dict(reference_scenario())
        )
        plans = tmp_path / "p.json"
        plans.write_text(json.dumps({"plans": [[[2.0] * 3] * 2, [[0.0] * 3] * 2]}))
        code = main(["simulate", scenario, str(plans), "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert "player 0" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_one_player_plan_over_an_opinion_cap_exits_3(self, tmp_path, capsys):
        # 0.8 is within the budget of 1 but over the headroom 1 - 0.5
        scenario = write_scenario(tmp_path / "s.json", single_player_document())
        plans = tmp_path / "p.json"
        plans.write_text(json.dumps({"plans": [[[0.8]]]}))
        code = main(["simulate", scenario, str(plans), "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert ("exceeds remaining opinion headroom by 3.000e-01"
                in capsys.readouterr().err)
        assert not (tmp_path / "o.csv").exists()


class TestSolveCommand:
    def test_scalar_example(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.json", single_player_document())
        out = tmp_path / "report.json"
        assert main(["solve", scenario, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["plan"][0][0] == pytest.approx(0.5, abs=1e-7)
        assert report["objective"] == pytest.approx(0.65, abs=1e-9)

    def test_zero_budget(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.json",
                                  single_player_document(budget=0.0))
        out = tmp_path / "report.json"
        assert main(["solve", scenario, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["plan"] == [[0.0]]

    def test_convergence_failure_exits_6(self, tmp_path, capsys, monkeypatch):
        def stalled(spec, **kwargs):
            raise ConvergenceError("ascent stalled", last_iterate=np.zeros(1))

        monkeypatch.setattr(cli, "solve_single", stalled)
        scenario = write_scenario(tmp_path / "s.json", single_player_document())
        out = tmp_path / "report.json"
        assert main(["solve", scenario, "--out", str(out)]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ascent stalled" in err
        assert "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def solve_game(tmp_path, spec, **changes):
        spec = dataclasses.replace(spec, **changes)
        document = scenario_to_dict(cli.Scenario(spec=spec, solver=cli.SolverSettings()))
        scenario = write_scenario(tmp_path / "s.json", document)
        return main(["solve", scenario, "--out", str(tmp_path / "report.json")])

    def test_individuals_starting_fully_convinced(self, tmp_path):
        # reach 1 leaves a cap offset of 1 - reach = -2.2e-16 unless clamped
        spec = random_linear_game(np.random.default_rng(0), 1, 6, 3)
        assert self.solve_game(tmp_path, spec, x0=OpinionState(np.ones((6, 1)))) == 0
        assert json.loads((tmp_path / "report.json").read_text())["kkt_residual"] <= 1e-8

    def test_nearly_dependent_constraints_end_cleanly(self, tmp_path):
        # a 1e-9 gap makes the stage-2 caps nearly the stage-1 caps plus a
        # sign row, so a working set can become numerically singular
        spec = random_linear_game(np.random.default_rng(0), 1, 5, 3)
        code = self.solve_game(
            tmp_path, spec,
            schedule=CampaignSchedule(np.cumsum([0.0, 50.0, 1e-9, 1000.0, 1000.0])),
            x0=OpinionState(np.array([[1.0], [0.3], [0.3], [1.0], [0.0]])),
            budgets=np.array([3.0]),
        )
        assert code in (0, 6)

    def test_nearly_dependent_working_set_exits_0(self, tmp_path):
        # recipe B (budget 10) at n = 5, K = 3, generator seed 28: a primal
        # active-set projection cycled here and the command exited 6
        spec = random_linear_game(np.random.default_rng(28), 1, 5, 3)
        assert self.solve_game(tmp_path, spec, budgets=np.array([10.0])) == 0
        assert json.loads((tmp_path / "report.json").read_text())["kkt_residual"] <= 1e-8

    def test_float_scale_budget_exits_0_under_warnings_as_errors(self, tmp_path):
        spec = random_linear_game(np.random.default_rng(0), 1, 3, 2)
        utility = dataclasses.replace(spec.utilities[0], cost_coefficient=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = self.solve_game(tmp_path, spec, budgets=np.array([1e308]),
                                   utilities=(utility,))
        assert code == 0

    def test_large_utility_weights_exit_0_with_a_feasible_plan(self, tmp_path):
        # rho x 1e8: the ascent's candidates lay so far out that a projected
        # plan overran a cap by 1.9e-8 and the command exited 3
        spec = random_linear_game(np.random.default_rng(0), 1, 5, 3)
        utility = dataclasses.replace(spec.utilities[0], rho=1e8 * spec.utilities[0].rho)
        spec = dataclasses.replace(spec, budgets=np.array([3.0]), utilities=(utility,))
        assert self.solve_game(tmp_path, spec) == 0
        plan = json.loads((tmp_path / "report.json").read_text())["plan"]
        assert build_region(spec).contains(np.ravel(plan))

    def test_multiplayer_scenario_exits_4(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path / "s.json", scenario_to_dict(reference_scenario())
        )
        assert main(["solve", scenario, "--out", str(tmp_path / "r.json")]) == 4
        assert "equilibrate" in capsys.readouterr().err


class TestEquilibrateCommand:
    def test_builtin_example_writes_outputs(self, tmp_path):
        prefix = str(tmp_path / "run")
        code = main(["equilibrate", "--paper-example", "--T", "10",
                     "--out", prefix])
        assert code == 0
        trace = (tmp_path / "run_trace.csv").read_text()
        result = json.loads((tmp_path / "run_result.json").read_text())
        assert result["iterations"] == 10
        assert len(result["regrets"]) == 2
        assert trace.splitlines()[0].startswith("iteration,player,stage")

    def test_solver_value_error_keeps_its_message(self, tmp_path, capsys, monkeypatch):
        # only an iterate stack that cannot be allocated makes T too large
        def refused(spec, T):
            raise ValueError("exploitability cannot be materially negative")

        monkeypatch.setattr(cli, "solve_equilibrium", refused)
        code = main(["equilibrate", "--paper-example", "--T", "5",
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: exploitability cannot be materially negative\n"
        assert "too large" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("T", [10**15, 10**18, 10**20])
    def test_unallocatable_T_is_too_large(self, tmp_path, capsys, T):
        code = main(["equilibrate", "--paper-example", "--T", str(T),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: iteration count {T} is too large: ")

    def test_reference_document_file_runs_as_the_paper_example(self, tmp_path):
        scenario = tmp_path / "reference.json"
        scenario.write_text(cli.REFERENCE_DOCUMENT)
        assert main(["equilibrate", str(scenario), "--out", str(tmp_path / "file")]) == 0
        assert main(["equilibrate", "--paper-example", "--out", str(tmp_path / "flag")]) == 0
        for suffix in ("_trace.csv", "_result.json"):
            assert ((tmp_path / f"file{suffix}").read_bytes()
                    == (tmp_path / f"flag{suffix}").read_bytes())

    def test_single_iteration(self, tmp_path):
        prefix = str(tmp_path / "one")
        assert main(["equilibrate", "--paper-example", "--T", "1",
                     "--out", prefix]) == 0
        result = json.loads((tmp_path / "one_result.json").read_text())
        assert result["iterations"] == 1
        assert result["exploitability"] > 0.01

    def test_same_seed_byte_identical(self, tmp_path):
        first = str(tmp_path / "a")
        second = str(tmp_path / "b")
        assert main(["equilibrate", "--paper-example", "--T", "8", "--out", first]) == 0
        assert main(["equilibrate", "--paper-example", "--T", "8", "--out", second]) == 0
        assert (tmp_path / "a_trace.csv").read_bytes() == (tmp_path / "b_trace.csv").read_bytes()
        assert (tmp_path / "a_result.json").read_bytes() == (tmp_path / "b_result.json").read_bytes()

    @pytest.mark.parametrize("game", ["paper-example", "network"])
    def test_benchmarked_traces_match_the_nested_loop_rendering(self, tmp_path, game):
        # the paper game at T = 400 and the bench's 3-player game on 10
        # individuals at T = 100, pinned byte for byte
        if game == "paper-example":
            spec, T, source = reference_scenario().spec, 400, "--paper-example"
        else:
            game_spec = random_linear_game(np.random.default_rng(0), 3, 10, 3)
            source = write_scenario(tmp_path / "network.json", scenario_to_dict(
                cli.Scenario(spec=game_spec, solver=cli.SolverSettings())))
            spec, T = cli.load_scenario(source).spec, 100  # the game the file holds
        assert main(["equilibrate", source, "--T", str(T), "--out", str(tmp_path / "run")]) == 0
        trace = (tmp_path / "run_trace.csv").read_text()
        assert trace == nested_loop_csv(run_no_regret(spec, T))

    def test_star_with_long_gaps_runs(self, tmp_path):
        # the propagators of a 200-individual star across gaps of 1e4 pass
        # the stochasticity gate, so the game runs
        n = 200
        player = {"utility": {"kind": "linear-favor", "rho": [[1.0] * n] * 3, "lambda": 1.0}}
        document = {
            "network": star_adjacency(n).tolist(),
            "schedule": [0.0, 1e4, 2e4, 3e4],
            "players": [{"budget": 3.0, **player}, {"budget": 5.0, **player}],
            "x0": [[0.5, 0.5]] * n,
            "solver": {"T": 5},
        }
        scenario = write_scenario(tmp_path / "star.json", document)
        assert main(["equilibrate", scenario, "--out", str(tmp_path / "star")]) == 0
        assert json.loads((tmp_path / "star_result.json").read_text())["iterations"] == 5

    def test_scenario_and_flag_conflict(self, tmp_path):
        scenario = write_scenario(
            tmp_path / "s.json", scenario_to_dict(reference_scenario())
        )
        assert main(["equilibrate", scenario, "--paper-example",
                     "--out", str(tmp_path / "x")]) == 2

    def test_single_player_scenario_exits_4(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.json", single_player_document())
        assert main(["equilibrate", scenario, "--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize("path, value", [
        pytest.param(("players", 0, "utility", "rho", 0, 0), float("nan"), id="nan-rho"),
        pytest.param(("players", 0, "budget"), float("nan"), id="nan-budget"),
        pytest.param(("players", 0, "utility", "lambda"), float("nan"), id="nan-lambda"),
        pytest.param(("x0", 0, 0), float("nan"), id="nan-x0"),
        pytest.param(("players", 1, "budget"), float("inf"), id="inf-budget"),
        pytest.param(("network", 0, 1), float("nan"), id="nan-network"),
        pytest.param(("solver", "T"), 0, id="zero-T"),
        pytest.param(("schedule", 1), float("nan"), id="nan-schedule"),
        pytest.param(("solver", "seed"), 0, id="unknown-seed"),
        pytest.param(("x0", 0, 0), 0.6, id="x0-row-off-simplex"),
        pytest.param(("solver", "tolerances"), {}, id="unknown-tolerances"),
        pytest.param(("solver", "step"), {"kind": "c_over_tau", "c": 10.0}, id="unknown-step"),
        pytest.param(("players", 1), 3.0, id="player-not-object"),
        pytest.param(("players", 1, "utility", "kind"), "linear-complement", id="complement-kind"),
        pytest.param(("solver", "T"), 2.7, id="fractional-T"),
        pytest.param(("solver", "T"), True, id="bool-T"),
        pytest.param(("solver", "T"), "5", id="string-T"),
        pytest.param(("players", 0, "budget"), True, id="bool-budget"),
        pytest.param(("players", 0, "budget"), "3", id="string-budget"),
        pytest.param(("players", 0, "utility", "lambda"), True, id="bool-lambda"),
        pytest.param(("players", 0, "utility", "lambda"), "3", id="string-lambda"),
        pytest.param(("players", 0, "utility", "rho", 0), ["1", True, 1], id="string-bool-rho"),
        pytest.param(("schedule", 0), "0", id="string-schedule"),
        pytest.param(("x0", 0), ["0.5", 0.5], id="string-x0"),
        pytest.param(("network", 0, 0), True, id="bool-network"),
        pytest.param(("network", 1), [0.5, 0.5], id="ragged-network"),
        pytest.param(("network", 0), functools.reduce(lambda v, _: [v], range(900), 1.0),
                     id="deeply-nested-network"),
        pytest.param(("players", 0, "utility", "lambda"), 1e308, id="step-overflowing-lambda"),
    ])
    def test_bad_scenario_values_exit_2(self, tmp_path, capsys, path, value):
        document = scenario_to_dict(reference_scenario())
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        scenario = write_scenario(tmp_path / "s.json", document)
        assert main(["equilibrate", scenario, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [tmp_path / "s.json"]

    def test_budgets_at_the_float_scale_still_run(self, tmp_path):
        document = scenario_to_dict(reference_scenario())
        for player in document["players"]:
            player["budget"] = 1e308
        scenario = write_scenario(tmp_path / "s.json", document)
        assert main(["equilibrate", scenario, "--T", "3", "--out", str(tmp_path / "x")]) == 0
        assert (tmp_path / "x_result.json").exists()

    @staticmethod
    def float_scale_scenario(tmp_path, cost):
        document = scenario_to_dict(reference_scenario())
        for player in document["players"]:
            player["budget"] = 1e308
            if cost is not None:
                player["utility"]["lambda"] = cost
        return write_scenario(tmp_path / "s.json", document)

    @pytest.mark.parametrize("T, cost", [(50, None), (3, 10.0)],
                             ids=["hindsight-sum", "cost-times-budget"])
    def test_float_scale_values_exit_2_not_nan(self, tmp_path, capsys, T, cost):
        # budgets of 1e308 overflow the hindsight payoff sums over 50
        # iterations, and lambda = 10 the payoff value itself; the overflow
        # is an error message, not a numpy warning, and no NaN may reach a
        # JSON file
        scenario = self.float_scale_scenario(tmp_path, cost)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["equilibrate", scenario, "--T", str(T), "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [tmp_path / "s.json"]

    @pytest.mark.parametrize("T, cost", [(50, None), (3, 10.0)],
                             ids=["hindsight-sum", "cost-times-budget"])
    def test_float_scale_values_exit_2_under_warnings_as_errors(self, tmp_path, T, cost):
        scenario = self.float_scale_scenario(tmp_path, cost)
        completed = subprocess.run(
            [sys.executable, "-W", "error", "-m", "influencegame.cli", "equilibrate", scenario,
             "--T", str(T), "--out", str(tmp_path / "x")],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert completed.returncode == 2
        assert completed.stderr.startswith("error: ") and "Traceback" not in completed.stderr
        assert list(tmp_path.iterdir()) == [tmp_path / "s.json"]

    def test_failed_second_write_leaves_neither_file(self, tmp_path, capsys):
        (tmp_path / "half_result.json").mkdir()
        code = main(["equilibrate", "--paper-example", "--T", "2",
                     "--out", str(tmp_path / "half")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["half_result.json"]


def _paths(node, path=()):
    """Every key path into a JSON document, containers and leaves alike."""
    if path:
        yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


_REPLACEMENTS = (float("nan"), float("inf"), float("-inf"), -1.0, -3, 0, 1e300,
                 "x", None, True, [], {}, [[1.0]])


def _mutated(document, rng):
    """One seeded malformation of a scenario document and its description."""
    document = copy.deepcopy(document)
    paths = list(_paths(document))
    path = paths[rng.integers(len(paths))]
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kind = rng.integers(5)
    if kind == 0:
        parent[key] = _REPLACEMENTS[rng.integers(len(_REPLACEMENTS))]
        return document, f"{path} = {parent[key]!r}"
    if kind == 1:
        value = parent[key]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            parent[key] = -value
        return document, f"{path} negated"
    if kind == 2:
        if isinstance(parent, dict):
            del parent[key]
            return document, f"{path} deleted"
        parent.pop()
        return document, f"{path[:-1]} shortened"
    if kind == 3:
        target = document if isinstance(parent, list) else parent
        target["extra"] = 1
        return document, f"extra key next to {path}"
    document["solver"]["T"] = int(rng.integers(-3, 1))
    return document, f"solver.T = {document['solver']['T']}"


class TestMalformedScenarios:
    def test_seeded_mutations_exit_cleanly(self, tmp_path, capsys):
        multi = scenario_to_dict(reference_scenario())
        multi["solver"].update(T=5)
        single = single_player_document()
        single["network"] = [[1.0, 0.0], [0.5, 0.5]]
        single["x0"] = [[0.5], [0.2]]
        single["players"][0]["utility"]["rho"] = [[1.0, 1.0], [1.0, 1.0]]
        single["solver"].update(T=5)
        rng = np.random.default_rng(20211)
        problems = []
        for i in range(240):
            command, base = (("equilibrate", multi), ("solve", single))[i % 2]
            document, what = _mutated(base, rng)
            if i % 3 == 0:
                document, again = _mutated(document, rng)
                what = f"{what}; {again}"
            scenario = write_scenario(tmp_path / "s.json", document)
            try:
                code = main([command, scenario, "--out", str(tmp_path / "out")])
            except Exception as exc:
                code = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            if code not in (0, 2, 3, 4, 6) or "Traceback" in err:
                problems.append(f"{command} with {what}: {code}")
        assert problems == []


class TestWeightScaleSweep:
    """Utility weights, or the budgets, scaled by powers of two up to 2^189,
    with the budgets as given or all zero, exit 0 as ``equilibrate --T 5``
    on the reference game and as ``solve`` on a one-player game.  A
    zero-budget two-player game at 2^27 or more once reported a best
    response one ulp below the played payoff, an exploitability of -3e-8,
    and exited 2.  The diagnostics' best fixed plans once ascended in plan
    units, out of reach of their absolute stopping rule for large plans, and
    the reference game with its budgets scaled by 2^36, 2^45 or 2^54 exited
    6.  Zeroed budgets leave the budget scaling nothing to scale."""

    GAMES = {
        "equilibrate": lambda: scenario_to_dict(reference_scenario()),
        "solve": lambda: scenario_to_dict(cli.Scenario(
            spec=random_linear_game(np.random.default_rng(0), 1, 5, 3),
            solver=cli.SolverSettings())),
    }

    @pytest.mark.parametrize("command", ["equilibrate", "solve"])
    @pytest.mark.parametrize("scaled", [("rho",), ("rho", "lambda"), ("budget",)],
                             ids=["rho", "rho-lambda", "budget"])
    @pytest.mark.parametrize("zero_budgets", [False, True], ids=["budgets", "zero-budgets"])
    def test_every_scale_exits_0(self, tmp_path, monkeypatch, command, scaled, zero_budgets):
        # a spinning ascent fails fast with ConvergenceError (exit 6)
        monkeypatch.setattr(single_player_solver, "ASCENT_MAX_STEPS", 2000)
        codes = {}
        for i in range(22):
            document = self.GAMES[command]()
            for player in document["players"]:
                utility = player["utility"]
                if "rho" in scaled:
                    utility["rho"] = (2.0 ** (9 * i) * np.array(utility["rho"])).tolist()
                if "lambda" in scaled:
                    utility["lambda"] *= 2.0 ** (9 * i)
                if "budget" in scaled:
                    player["budget"] *= 2.0 ** (9 * i)
                if zero_budgets:
                    player["budget"] = 0.0
            scenario = write_scenario(tmp_path / "s.json", document)
            argv = [command, scenario, "--out", str(tmp_path / "out")]
            if command == "equilibrate":
                argv += ["--T", "5"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                codes[f"2^{9 * i}"] = main(argv)
        assert {scale: code for scale, code in codes.items() if code != 0} == {}


def without_campaigns(document):
    """The scenario with its campaign times removed (K = 0)."""
    document = copy.deepcopy(document)
    document["schedule"] = [document["schedule"][0], document["schedule"][-1]]
    for player in document["players"]:
        player["utility"]["rho"] = player["utility"]["rho"][-1:]
    return document


class TestBadCommandInputs:
    @pytest.mark.parametrize("argv", [
        pytest.param(["equilibrate", "{no_campaign_multi}", "--out", "{out}"],
                     id="equilibrate-no-campaign"),
        pytest.param(["solve", "{no_campaign_single}", "--out", "{out}"],
                     id="solve-no-campaign"),
        pytest.param(["equilibrate", "--paper-example", "--T", "0", "--out", "{out}"],
                     id="zero-T-flag"),
        pytest.param(["equilibrate", "--paper-example", "--T", "-3", "--out", "{out}"],
                     id="negative-T-flag"),
        pytest.param(["verify", "--seed", "-1", "--out", "{out}"], id="negative-seed"),
        pytest.param(["simulate", "{reference}", "{zero_plans}", "--samples", "-2",
                      "--out", "{out}"], id="negative-samples"),
        pytest.param(["simulate", "{reference}", "{string_plans}", "--out", "{out}"],
                     id="string-plan"),
        pytest.param(["simulate", "{reference}", "{nan_plans}", "--out", "{out}"],
                     id="nan-plan-entry"),
        pytest.param(["simulate", "{reference}", "{bool_plans}", "--out", "{out}"],
                     id="bool-plan-entry"),
        pytest.param(["simulate", "{reference}", "{one_plan}", "--out", "{out}"],
                     id="one-plan-for-two-players"),
        pytest.param(["simulate", "{reference}", "{misshaped_plans}", "--out", "{out}"],
                     id="misshaped-plan"),
        pytest.param(["equilibrate", "--paper-example", "--T", "2", "--out", "{missing}/x"],
                     id="out-prefix-in-missing-directory"),
        pytest.param(["simulate", "{reference}", "{zero_plans}", "--out", "{missing}/o.csv"],
                     id="out-in-missing-directory"),
        pytest.param(["solve", "{single}", "--out", "{directory}"], id="out-is-directory"),
        pytest.param(["solve", "{directory}", "--out", "{out}"], id="scenario-is-directory"),
        pytest.param(["solve", "{binary}", "--out", "{out}"], id="non-utf8-scenario"),
        pytest.param(["simulate", "{reference}", "{binary}", "--out", "{out}"],
                     id="non-utf8-plans"),
        pytest.param(["equilibrate", "--paper-example", "--T", str(10**15), "--out", "{out}"],
                     id="T-too-large-to-allocate"),
        pytest.param(["equilibrate", "--paper-example", "--T", str(10**18), "--out", "{out}"],
                     id="T-past-the-address-space"),
        pytest.param(["equilibrate", "--paper-example", "--T", str(10**20), "--out", "{out}"],
                     id="T-past-the-dimension-limit"),
        pytest.param(["equilibrate", "{huge_T}", "--out", "{out}"], id="scenario-T-too-large"),
        pytest.param(["simulate", "{reference}", "{zero_plans}", "--samples", str(10**15),
                      "--out", "{out}"], id="samples-too-large-to-allocate"),
        pytest.param(["simulate", "{reference}", "{zero_plans}", "--samples", str(10**20),
                      "--out", "{out}"], id="samples-past-the-size-limit"),
        # np.linspace raises IndexError, not ValueError, for counts near 2^63
        pytest.param(["simulate", "{reference}", "{zero_plans}", "--samples", str(2**63 - 1),
                      "--out", "{out}"], id="samples-2^63-1"),
        pytest.param(["simulate", "{reference}", "{zero_plans}", "--samples", str(2**63),
                      "--out", "{out}"], id="samples-2^63"),
        pytest.param(["solve", "{deep}", "--out", "{out}"], id="deeply-nested-scenario"),
        pytest.param(["simulate", "{reference}", "{deep}", "--out", "{out}"],
                     id="deeply-nested-plans"),
    ])
    def test_exit_2_without_traceback_or_output(self, tmp_path, capsys, argv):
        reference = scenario_to_dict(reference_scenario())
        zero = [[0.0] * 3] * 2
        inputs = {
            "reference": reference,
            "no_campaign_multi": without_campaigns(reference),
            "no_campaign_single": without_campaigns(single_player_document()),
            "zero_plans": {"plans": [zero, zero]},
            "string_plans": {"plans": ["a", zero]},
            "nan_plans": {"plans": [[[float("nan"), 0.0, 0.0], [0.0] * 3], zero]},
            "bool_plans": {"plans": [[[True, 0.0, 0.0], [0.0] * 3], zero]},
            "one_plan": {"plans": [zero]},
            "misshaped_plans": {"plans": [[[0.0] * 2] * 3, zero]},
            "single": single_player_document(),
            "huge_T": {**reference, "solver": {"T": 10**15}},
        }
        paths = {name: write_scenario(tmp_path / f"{name}.json", document)
                 for name, document in inputs.items()}
        (tmp_path / "directory").mkdir()
        # a UTF-16 byte-order mark followed by ASCII: not UTF-8
        (tmp_path / "binary.json").write_bytes(bytes.fromhex("fffe00626164"))
        # nested far deeper than the parser's recursion limit
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        before = set(tmp_path.iterdir())
        code = main([token.format(out=tmp_path / "out", missing=tmp_path / "missing",
                                  directory=tmp_path / "directory",
                                  binary=tmp_path / "binary.json",
                                  deep=tmp_path / "deep.json", **paths)
                     for token in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert ".tmp-" not in err
        assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("key, value, message", [
    pytest.param("schedule", [-1.7e308, 1.7e308, 1.705e308, 1.71e308],
                 "schedule gaps must be finite", id="schedule-gap"),
    pytest.param("network", [[1e308, 1e308, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
                 "adjacency rows must have finite total weight", id="network-row"),
])
def test_finite_numbers_whose_sum_overflows_exit_2_by_name(tmp_path, capsys, key, value,
                                                           message):
    document = {**scenario_to_dict(reference_scenario()), key: value}
    scenario = write_scenario(tmp_path / "s.json", document)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["equilibrate", scenario, "--T", "2", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


class TestVerifyCommand:
    def test_gradients_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--suite", "gradients", "--seed", "2",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["suite"] == "gradients"
        printed = json.loads(capsys.readouterr().out)
        assert printed == report

    def test_all_suite_is_the_three_suites_in_order(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "all", "--seed", "0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True and report["suite"] == "all"
        parts = [run_suite(name, seed=0)["checks"] for name in ("lemmas", "gradients", "oracles")]
        assert report["checks"] == parts[0] + parts[1] + parts[2]

    def test_nan_check_prints_a_failed_report_and_exits_1(self, tmp_path, capsys,
                                                          monkeypatch):
        # the suite fails a check whose value is NaN; the report writes the
        # value as JSON null rather than refusing to print
        monkeypatch.setattr(verification, "total_payoff",
                            lambda spec, profile, j: np.full(profile.shape[:-3], np.nan))
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "gradients", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report == json.loads(out.read_text())
        assert report["passed"] is False
        assert report["checks"] == [{"name": "analytic-vs-finite-difference", "passed": False,
                                     "max_relative_error": None}]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_seed_byte_identical(self, capsys, seed):
        printed = []
        for _ in range(2):
            assert main(["verify", "--suite", "all", "--seed", str(seed)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "bogus"])
        assert excinfo.value.code == 2


class TestParserBuiltOnce:
    def test_repeated_calls_answer_as_fresh_interpreters_do(self, capsys):
        # a call that argparse refuses (exit 2) must leave the shared parser
        # as it was for the good call after it
        calls = [["solve", "--bogus"], ["verify", "--suite", "gradients", "--seed", "2"],
                 ["verify", "--suite", "bogus"], ["verify", "--suite", "gradients", "--seed", "2"],
                 ["solve", "--bogus"]]
        repeated = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            repeated.append((code, captured.out, captured.err))
        fresh = []
        for argv in calls[:3]:
            completed = subprocess.run(
                [sys.executable, "-W", "error", "-m", "influencegame.cli", *argv],
                capture_output=True, text=True, env=subprocess_env(), timeout=120,
            )
            fresh.append((completed.returncode, completed.stdout, completed.stderr))
        assert [code for code, _, _ in fresh] == [2, 0, 2]
        assert repeated == fresh + fresh[1:2] + fresh[:1]
        assert cli.build_parser() is cli.build_parser()


class TestAtomicWrites:
    def test_overwrite_is_all_or_nothing(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new contents")
        assert target.read_text() == "new contents"
        assert list(tmp_path.iterdir()) == [target]

    def test_failure_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "dir-in-the-way"
        target.mkdir()
        with pytest.raises(OSError):
            atomic_write_text(target, "contents")
        assert target.is_dir()
        assert [p.name for p in tmp_path.iterdir()] == ["dir-in-the-way"]

    def test_unencodable_text_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(target, "a lone surrogate \udc80")
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "old"

    @pytest.mark.parametrize("umask, mode", [
        pytest.param(0o022, 0o644, id="umask-022"),
        pytest.param(0o077, 0o600, id="umask-077"),
    ])
    def test_mode_follows_the_umask(self, tmp_path, umask, mode):
        target = tmp_path / "out.txt"
        previous = os.umask(umask)
        try:
            atomic_write_text(target, "contents")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(target.stat().st_mode) == mode
