"""Write the outputs that a behaviour-preserving change must leave
byte-identical, all from one checkout's package: the CLI's through
``influencegame.cli.main``, and the one-player learning traces, which the
CLI does not write, through the library.

    python tools/snapshot_outputs.py CHECKOUT OUTDIR

CHECKOUT is a checkout of this repository; its ``src`` package and the games
of its ``bench/workloads.py`` are used, and nothing is written inside it.
OUTDIR receives, by relative paths, so that the outputs do not name it:

- ``equilibrate --paper-example`` at the benchmark's T (``paper_*``);
- ``equilibrate`` on the benchmark's network game at its T (``network*``),
  and again with budgets 0.3, 50 and 0.3, whose learning projections each
  hold rows both over and under their caps (``network_mixed*``);
- ``solve`` on each benchmark single-player game (``single<i>*``), and
  ``simulate --samples 200`` on each solved plan;
- the learning trace of each benchmark single-player game,
  ``equilibrium_solver.trace_to_csv(run_no_regret(spec, 50))``, called
  through the library, since the CLI refuses a one-player ``equilibrate``
  (``single<i>_learning_trace.csv``);
- ``simulate --samples 200`` of the reference game at the paper example's
  equilibrium (``reference*``), and ``simulate --samples 7``, whose grid
  lands on both campaign times, so that it pins their pre- and post-jump
  records (``reference_campaigns*``), and ``simulate --samples 200`` of the
  reference game with its schedule times 1e10 on the fixed plans
  ``LONG_PLANS``, whose propagators take up to 36 squarings, most of them 28
  to 36, across the renormalization after every 32nd (``reference_long*``);
- ``verify --suite all`` at seeds 0-49 (``verify_seed<s>.stdout``);
- three refused invocations, which pin error text: the reference scenario
  with a NaN budget (``refused_nan_budget*``, exit 2), ``simulate`` of a
  plans file over player 0's budget (``refused_over_budget*``, exit 3) and
  ``solve`` on the two-player reference scenario (``refused_solve*``, exit 4);

with every command's stdout in ``<name>.stdout``, its stderr in
``<name>.stderr`` and its exit code in ``exit_codes.txt``.  Snapshot the
parent and the change, each in a new process, then compare with ``diff -r``.
"""

import contextlib
import importlib
import io
import json
import sys
import types
from pathlib import Path

SAMPLES = "200"
LEARNING_T = 50
VERIFY_SEEDS = range(50)
MIXED_BUDGETS = (0.3, 50.0, 0.3)
LONG_SCALE = 1e10
LONG_PLANS = [[[1.0, 0.5, 0.0], [0.0, 0.5, 0.5]], [[0.5, 0.5, 0.5], [1.0, 1.0, 1.0]]]


def load_checkout(checkout: Path):
    """The package and the benchmark workloads module of ``checkout``."""
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    ig = importlib.import_module("influencegame")
    importlib.import_module("influencegame.cli")  # bound as ig.cli
    if Path(ig.__file__).resolve().parent != src / "influencegame":
        raise RuntimeError(f"influencegame is already imported from {ig.__file__}")
    path = checkout / "bench" / "workloads.py"
    workloads = types.ModuleType("bench_workloads")
    workloads.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), workloads.__dict__)
    return ig, workloads


def snapshot(checkout, outdir, verify_seeds=VERIFY_SEEDS):
    """Write the outputs listed in the module docstring into ``outdir``."""
    ig, workloads = load_checkout(Path(checkout))
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    codes = []

    def run(name, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            codes.append(f"{name} {ig.cli.main(argv)}\n")
        Path(f"{name}.stdout").write_text(stdout.getvalue())
        Path(f"{name}.stderr").write_text(stderr.getvalue())

    def write_json(name, document):
        Path(name).write_text(json.dumps(document))
        return name

    def scenario(name, spec):
        return write_json(name, workloads.scenario_document(ig, spec))

    with contextlib.chdir(outdir):
        run("paper", ["equilibrate", "--paper-example", "--T", str(workloads.PAPER_T),
                      "--out", "paper"])
        profile = json.loads(Path("paper_result.json").read_text())["profile"]
        reference = write_json("reference.json",
                               ig.cli.scenario_to_dict(ig.cli.reference_scenario()))
        run("reference", ["simulate", reference, write_json("reference_plans.json",
                                                            {"plans": profile}),
                          "--samples", SAMPLES, "--out", "reference_trajectory.csv"])
        run("reference_campaigns", ["simulate", reference, "reference_plans.json",
                                    "--samples", "7",
                                    "--out", "reference_campaigns_trajectory.csv"])
        document = json.loads(Path(reference).read_text())
        document["schedule"] = [time * LONG_SCALE for time in document["schedule"]]
        run("reference_long", ["simulate", write_json("reference_long.json", document),
                               write_json("reference_long_plans.json", {"plans": LONG_PLANS}),
                               "--samples", SAMPLES, "--out", "reference_long_trajectory.csv"])

        network = scenario("network.json", workloads.network_spec(ig))
        run("network", ["equilibrate", network, "--T", str(workloads.NETWORK_T),
                        "--out", "network"])
        document = json.loads(Path(network).read_text())
        for player, budget in zip(document["players"], MIXED_BUDGETS, strict=True):
            player["budget"] = budget
        run("network_mixed", ["equilibrate", write_json("network_mixed.json", document),
                              "--T", str(workloads.NETWORK_T), "--out", "network_mixed"])

        for index, spec in enumerate(workloads.single_player_specs(ig)):
            name = f"single{index}"
            run(name, ["solve", scenario(f"{name}.json", spec), "--out", f"{name}_report.json"])
            plan = json.loads(Path(f"{name}_report.json").read_text())["plan"]
            run(f"{name}_simulate", ["simulate", f"{name}.json",
                                     write_json(f"{name}_plans.json", {"plans": [plan]}),
                                     "--samples", SAMPLES, "--out", f"{name}_trajectory.csv"])
            trace = ig.equilibrium_solver.trace_to_csv(ig.run_no_regret(spec, LEARNING_T))
            Path(f"{name}_learning_trace.csv").write_text(trace)

        for seed in verify_seeds:
            run(f"verify_seed{seed}", ["verify", "--suite", "all", "--seed", str(seed)])

        document = json.loads(Path(reference).read_text())
        document["players"][0]["budget"] = float("nan")
        run("refused_nan_budget", ["equilibrate", write_json("refused_nan_budget.json", document),
                                   "--out", "refused_nan_budget"])
        over = json.loads(Path("reference_plans.json").read_text())
        over["plans"][0] = [[1.0] * len(row) for row in over["plans"][0]]  # 6 of budget 3
        run("refused_over_budget", ["simulate", reference,
                                    write_json("refused_over_budget_plans.json", over),
                                    "--samples", SAMPLES, "--out", "refused_over_budget.csv"])
        run("refused_solve", ["solve", reference, "--out", "refused_solve_report.json"])
        Path("exit_codes.txt").write_text("".join(codes))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # nothing is written inside the checkout
    snapshot(*argv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
