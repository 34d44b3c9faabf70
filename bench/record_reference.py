"""Record the reference outputs the benchmark checks against, in reference.json.

    python3 bench/record_reference.py

Runs each workload's games once, with individuals in generator order, and
stores exploitability, regrets and averaged profile of both equilibrium
workloads and the objective of every single-player game.  Re-record only
when a change is meant to alter these results, and say so in CHANGES.md.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def cli(ig, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = ig.cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")


def equilibrate(ig, argv, prefix):
    cli(ig, argv + ["--out", prefix])
    result = json.loads(Path(f"{prefix}_result.json").read_text())
    return {key: result[key] for key in ("exploitability", "regrets", "profile")}


def solve_objective(ig, scenario, report):
    cli(ig, ["solve", str(scenario), "--out", str(report)])
    return json.loads(report.read_text())["objective"]


def main():
    sys.path.insert(0, str(run.SRC))
    ig = run.import_package()
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        tmp = Path(tmp)
        scenario = tmp / "scenario.json"
        workloads.write_json(scenario, workloads.scenario_document(ig, workloads.network_spec(ig)))
        objectives = []
        for spec in workloads.single_player_specs(ig):
            workloads.write_json(tmp / "single.json", workloads.scenario_document(ig, spec))
            objectives.append(solve_objective(ig, tmp / "single.json", tmp / "report.json"))
        reference = {
            "git_sha": run.git_sha(),
            "paper-equilibrium": equilibrate(
                ig, ["equilibrate", "--paper-example", "--T", str(workloads.PAPER_T)],
                str(tmp / "paper"),
            ),
            "network-equilibrium": equilibrate(
                ig, ["equilibrate", str(scenario), "--T", str(workloads.NETWORK_T)],
                str(tmp / "network"),
            ),
            "single-player": {"objectives": objectives},
        }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
