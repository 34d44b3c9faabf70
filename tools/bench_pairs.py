"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

    python tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N --seconds X

PARENT and CHANGE are checkouts of this repository.  Each pair runs
``bench/run.py --workload W --seed S --seconds X`` once with each checkout's
own ``bench/run.py``, each in a new process, one after the other; the side
that runs first alternates from pair to pair, the parent first in pair 1.
The runs write only what ``bench/run.py`` writes, under their checkout's
``bench/out/`` (bytecode writing is switched off for them).

Prints every pair's end-to-end metrics, then each side's median and
quartiles of each metric over the pairs, the number of pairs in which the
change's ``solve_s`` is lower, and whether the claim rule holds: the change
lower in at least nine pairs of ten, and the medians further apart than the
parent's interquartile range.  Exits 1 when a run fails or reports a failed
operation, without a summary.  Standard library only.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("solve_s", "cpu_s", "peak_rss_mb", "setup_s")
CLAIMED = "solve_s"
SIDES = ("parent", "change")


def run_order(pairs: int):
    """The sides in the order they run, pair by pair: the parent first in
    pair 1, the change first in pair 2, and so on."""
    return [SIDES if pair % 2 == 0 else SIDES[::-1] for pair in range(pairs)]


def run_bench(checkout, workload, seed, seconds):
    """The end-to-end metrics of one run of ``checkout``'s benchmark, or a
    RuntimeError that says why there are none."""
    checkout = Path(checkout).resolve()
    environment = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=checkout, env=environment, capture_output=True,
                          text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {done.returncode}: {done.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout}: {result['failed']} of {result['attempted']} "
                           f"operations failed: {done.stderr.strip()}")
    return {name: result["metrics"][name]["value"] for name in METRICS}


def quartiles(values):
    """The lower quartile, the median and the upper quartile of ``values``
    (inclusive method; one value is all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def claim(parent, change):
    """The pairs in which the change is lower, and whether the claim rule
    holds, for the paired values ``parent`` and ``change`` of a metric that
    is better lower."""
    wins = sum(c < p for p, c in zip(parent, change))
    low, middle, high = quartiles(parent)
    holds = wins >= math.ceil(0.9 * len(parent)) and middle - quartiles(change)[1] > high - low
    return wins, holds


def summary(pairs):
    """The report's lines for ``pairs``, a list of {side: metrics} in pair
    order."""
    lines = []
    for index, (pair, order) in enumerate(zip(pairs, run_order(len(pairs))), start=1):
        values = "  ".join(f"{name} {pair['parent'][name]:.6g} / {pair['change'][name]:.6g}"
                           for name in METRICS)
        lines.append(f"pair {index} ({order[0]} first), parent / change: {values}")
    for name in METRICS:
        for side in SIDES:
            low, middle, high = quartiles([pair[side][name] for pair in pairs])
            lines.append(f"{name} {side}: median {middle:.6g}, quartiles {low:.6g} to {high:.6g}")
    parent = [pair["parent"][CLAIMED] for pair in pairs]
    wins, holds = claim(parent, [pair["change"][CLAIMED] for pair in pairs])
    lines.append(f"{CLAIMED}: change lower in {wins} of {len(pairs)} pairs")
    lines.append(f"claim rule (lower in 9 of 10 pairs, medians apart by more than the "
                 f"parent's interquartile range): {'holds' if holds else 'fails'}")
    return lines


def compare(parent, change, workload, seed, pairs, seconds, run=run_bench):
    """Run the pairs with ``run`` and return their metrics, {side: metrics}
    per pair."""
    checkouts = {"parent": parent, "change": change}
    results = []
    for order in run_order(pairs):
        results.append({side: run(checkouts[side], workload, seed, seconds) for side in order})
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        pairs = compare(args.parent, args.change, args.workload, args.seed, args.pairs,
                        args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(summary(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
