"""The benchmark's workloads: their inputs, the CLI invocations of one
operation, and the checks on their outputs.

A workload is built inside the timed set-up, from the freshly imported
package ``ig`` and the workload seed; an operation is one pass over
``invocations(op)`` through ``influencegame.cli.main``.  Why each workload
exists, and why only ``verify-all`` draws its inputs from the seed, is in
README.md.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Recorded outputs must be matched this closely: the constant-sum and
# stochasticity invariants of the ROADMAP hold to 1e-10.
EQUILIBRIUM_TOL = 1e-10
KKT_TOL = 1e-8
OBJECTIVE_SLACK = 1e-8

PAPER_T = 400
NETWORK_T = 100
NETWORK_GAME = {"generator_seed": 0, "m": 3, "n": 10, "K": 3}
# (generator seed, n, K, budget override): the first three bind only the
# total budget; with budget 3.0 the opinion caps bind as well.
SINGLE_PLAYER_GAMES = (
    (0, 10, 3, None),
    (1, 10, 3, None),
    (2, 10, 3, None),
    (0, 5, 3, 3.0),
    (0, 6, 2, 3.0),
)


def network_spec(ig):
    game = NETWORK_GAME
    return ig.verification.random_linear_game(
        np.random.default_rng(game["generator_seed"]), m=game["m"], n=game["n"], K=game["K"]
    )


def single_player_specs(ig):
    specs = []
    for generator_seed, n, K, budget in SINGLE_PLAYER_GAMES:
        spec = ig.verification.random_linear_game(np.random.default_rng(generator_seed), m=1, n=n, K=K)
        if budget is not None:
            spec = dataclasses.replace(spec, budgets=np.array([budget]))
        specs.append(spec)
    return specs


def scenario_document(ig, spec):
    return ig.cli.scenario_to_dict(ig.cli.Scenario(spec=spec, solver=ig.cli.SolverSettings()))


def write_json(path, document):
    path.write_text(json.dumps(document))


def check_equilibrium(result_text, reference, T):
    """Problems of one equilibrate result against the recorded reference."""
    result = json.loads(result_text)
    problems = []
    if result["iterations"] != T:
        problems.append(f"iterations {result['iterations']} != {T}")
    profile = np.asarray(result["profile"])
    deviations = {
        "exploitability": abs(result["exploitability"] - reference["exploitability"]),
        "regrets": float(np.max(np.abs(np.subtract(result["regrets"], reference["regrets"])))),
        "profile": float(np.max(np.abs(profile - np.asarray(reference["profile"])))),
    }
    for name, deviation in deviations.items():
        if not deviation <= EQUILIBRIUM_TOL:
            problems.append(f"{name} deviates from the reference by {deviation:.3e}")
    return problems


class PaperEquilibrium:
    """The paper's 3-individual, 2-player game."""

    name = "paper-equilibrium"
    T = PAPER_T

    def __init__(self, ig, seed, workdir):
        self.prefix = str(workdir / "paper")
        self.reference = json.loads(REFERENCE_PATH.read_text())[self.name]

    def invocations(self, op):
        return [["equilibrate", "--paper-example", "--T", str(self.T), "--out", self.prefix]]

    def output_files(self, op):
        return [Path(f"{self.prefix}_trace.csv"), Path(f"{self.prefix}_result.json")]

    def check(self, op, stdout):
        result = Path(f"{self.prefix}_result.json").read_text()
        return check_equilibrium(result, self.reference, self.T), 0


class NetworkEquilibrium(PaperEquilibrium):
    """A random 3-player game on 10 individuals."""

    name = "network-equilibrium"
    T = NETWORK_T

    def __init__(self, ig, seed, workdir):
        self.prefix = str(workdir / "network")
        self.reference = json.loads(REFERENCE_PATH.read_text())[self.name]
        self.scenario = workdir / "network.json"
        write_json(self.scenario, scenario_document(ig, network_spec(ig)))

    def invocations(self, op):
        return [["equilibrate", str(self.scenario), "--T", str(self.T), "--out", self.prefix]]


class SinglePlayer:
    """Five single-player games."""

    name = "single-player"

    def __init__(self, ig, seed, workdir):
        self.ig = ig
        self.objectives = json.loads(REFERENCE_PATH.read_text())[self.name]["objectives"]
        self.scenarios, self.reports, self.specs = [], [], []
        for index, spec in enumerate(single_player_specs(ig)):
            document = scenario_document(ig, spec)
            self.specs.append(ig.cli.scenario_from_dict(document).spec)
            self.scenarios.append(workdir / f"single{index}.json")
            self.reports.append(workdir / f"single{index}_report.json")
            write_json(self.scenarios[-1], document)
        self._regions = None

    def invocations(self, op):
        return [
            ["solve", str(scenario), "--out", str(report)]
            for scenario, report in zip(self.scenarios, self.reports)
        ]

    def output_files(self, op):
        return self.reports

    def check(self, op, stdout):
        if self._regions is None:
            self._regions = [self.ig.single_player_solver.build_region(s) for s in self.specs]
        problems, iterations = [], 0
        for index, (path, region) in enumerate(zip(self.reports, self._regions)):
            report = json.loads(path.read_text())
            iterations += report["iterations"]
            if not region.contains(np.ravel(report["plan"])):
                problems.append(f"game {index}: plan is infeasible")
            if not report["kkt_residual"] <= KKT_TOL:
                problems.append(f"game {index}: kkt residual {report['kkt_residual']:.3e}")
            if not report["objective"] >= self.objectives[index] - OBJECTIVE_SLACK:
                problems.append(
                    f"game {index}: objective {report['objective']!r} below the "
                    f"reference {self.objectives[index]!r}"
                )
        return problems, iterations


class VerifyAll:
    """``verify --suite all``; operation ``op`` runs at its own verify seed, drawn
    from the workload seed, because the suite's cost depends on its seed."""

    name = "verify-all"

    def __init__(self, ig, seed, workdir):
        self.seed = seed

    def verify_seed(self, op):
        return int(np.random.SeedSequence([self.seed, op]).generate_state(1)[0])

    def invocations(self, op):
        return [["verify", "--suite", "all", "--seed", str(self.verify_seed(op))]]

    def output_files(self, op):
        return []

    def check(self, op, stdout):
        report = json.loads(stdout)
        if report["passed"] is not True:
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            return [f"verify seed {report['seed']} failed checks {failed}"], 0
        return [], 0


WORKLOADS = {w.name: w for w in (PaperEquilibrium, NetworkEquilibrium, SinglePlayer, VerifyAll)}
