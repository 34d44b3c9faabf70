"""The hostile-input sweep: every leaf of a scenario file and of a plans file
set to each of 16 hostile values, structural damage to a plans file, and
hostile values of the integer options, each run through ``cli.main`` under
warnings-as-errors.  Every case must exit 0, 2 or 3 (never 1, whose meaning
is a failed verify check, nor an uncaught exception), print no traceback and
end within a second, so an ascent that spins must fail fast within its 2 000
accepted steps instead of passing slowly."""

import copy
import json
import time
import warnings

import pytest

from influencegame import cli
from influencegame.cli import main

HOSTILE = (float("nan"), float("inf"), -1, 0, 1e308, -1e308, 5e-324, 1e-300,
           "1", True, None, [], [[]], {}, 1e16, 2**70)

OPTION_VALUES = ("-1", "0", "1", "2", "nan", "1.5", "", "1e3", str(10**13),
                 str(2**63 - 1), str(2**63), str(2**64), str(10**20))


def two_player_document():
    return json.loads(cli.REFERENCE_DOCUMENT)


def one_player_document():
    """The reference game with player 0 alone."""
    document = two_player_document()
    document["players"] = document["players"][:1]
    document["x0"] = [row[:1] for row in document["x0"]]
    return document


# a feasible plan per player of the reference game: 2.55 of budget 3 and
# 4.25 of budget 5, within every opinion cap
PLANS = {"plans": [[[0.5, 0.25, 0.5], [0.3, 0.5, 0.5]],
                   [[1.0, 1.0, 1.0], [0.5, 0.25, 0.5]]]}


def leaves(node, path=()):
    """The key path of every non-container value in a JSON document."""
    if isinstance(node, (dict, list)):
        children = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in children:
            yield from leaves(child, path + (key,))
    else:
        yield path


def replaced(document, path, value):
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return document


def damaged_plans():
    """Plans files of the wrong structure, by name."""
    plans = PLANS["plans"]
    return {
        "empty-object": {},
        "extra-key": {**PLANS, "extra": 1},
        "top-level-list": plans,
        "one-player": {"plans": plans[:1]},
        "three-players": {"plans": plans + plans[:1]},
        "one-stage": {"plans": [plan[:1] for plan in plans]},
        "ragged-row": {"plans": [[plans[0][0][:2], plans[0][1]], plans[1]]},
        "transposed": {"plans": [[list(row) for row in zip(*plan)] for plan in plans]},
        "flat": {"plans": [x for plan in plans for row in plan for x in row]},
    }


@pytest.fixture
def run(tmp_path, capsys):
    """Write ``files`` (name to JSON document) and run one command line in
    ``tmp_path``; returns its problem, or None if it exited 0, 2 or 3
    within a second and printed no traceback."""
    def run_case(argv, files):
        for name, document in files.items():
            (tmp_path / name).write_text(json.dumps(document))
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main([token.format(dir=tmp_path) for token in argv])
            except SystemExit as exc:  # argparse refuses the option text
                code = exc.code
            except Exception as exc:
                code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        if code not in (0, 2, 3) or "Traceback" in err or elapsed >= 1.0:
            return f"exit {code} after {elapsed:.2f} s: {err[-300:]}"
        return None

    return run_case


def failed(problems):
    return {case: problem for case, problem in problems.items() if problem is not None}


SCENARIO_CASES = [("equilibrate", two_player_document, path)
                  for path in leaves(two_player_document())]
SCENARIO_CASES += [("solve", one_player_document, path)
                   for path in leaves(one_player_document())]


@pytest.mark.parametrize("command, base, path", SCENARIO_CASES,
                         ids=[f"{c}-{'.'.join(map(str, p))}" for c, _, p in SCENARIO_CASES])
def test_scenario_leaf_sweep(run, command, base, path):
    argv = [command, "{dir}/s.json", "--out", "{dir}/out"]
    if command == "equilibrate":
        argv += ["--T", "5"]
    problems = {repr(value): run(argv, {"s.json": replaced(base(), path, value)})
                for value in HOSTILE}
    assert failed(problems) == {}


SIMULATE = ["simulate", "{dir}/s.json", "{dir}/p.json", "--samples", "3", "--out", "{dir}/t.csv"]


@pytest.mark.parametrize("path", list(leaves(PLANS)), ids=lambda p: ".".join(map(str, p)))
def test_plans_file_leaf_sweep(run, path):
    problems = {repr(value): run(SIMULATE, {"s.json": two_player_document(),
                                            "p.json": replaced(PLANS, path, value)})
                for value in HOSTILE}
    assert failed(problems) == {}


def test_damaged_plans_files(run):
    problems = {name: run(SIMULATE, {"s.json": two_player_document(), "p.json": plans})
                for name, plans in damaged_plans().items()}
    assert failed(problems) == {}


OPTION_COMMANDS = {
    "--samples": ["simulate", "{dir}/s.json", "{dir}/p.json", "--out", "{dir}/t.csv"],
    "--T": ["equilibrate", "--paper-example", "--out", "{dir}/run"],
    "--seed": ["verify", "--suite", "oracles"],
}


@pytest.mark.parametrize("option", OPTION_COMMANDS)
def test_integer_option_sweep(run, option):
    files = {"s.json": two_player_document(), "p.json": PLANS}
    problems = {value: run(OPTION_COMMANDS[option] + [option, value], files)
                for value in OPTION_VALUES}
    assert failed(problems) == {}
