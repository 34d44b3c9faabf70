"""Benchmark of the influence-game CLI, run in-process from one Python process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed (timed as set-up, several times),
then runs operations -- one pass over the workload's CLI invocations through
``influencegame.cli.main`` -- for S seconds and checks every output.  With
``--trace 0`` the last stdout line reports the end-to-end metrics, in
seconds at the reference speed of ``calibration.py``; with
``--trace 1`` each operation runs once untraced and once traced, and the
last line reports the per-layer metrics taken from the spans.  The line
before it records the environment and the per-operation samples.  See
README.md for the workloads and what each metric should move.
"""

import os

# Every matrix here is 10 x 10 or smaller, so BLAS threads only add noise.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREADS = 1
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 11
MIN_OPERATIONS = 3


def import_package():
    """Import ``influencegame`` afresh from this checkout's sources."""
    for name in [n for n in sys.modules if n == tracing.PACKAGE or n.startswith(tracing.PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(tracing.PACKAGE)
    importlib.import_module(tracing.PACKAGE + ".cli")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{tracing.PACKAGE} was imported from {package.__file__}, not {SRC}")
    return package


def set_up(workload_class, seed, workdir):
    """Probes of the wall time from the package import to the workload's
    inputs existing."""
    probes = []
    for _ in range(SETUP_REPEATS):
        with calibration.Probe() as probe:
            ig = import_package()
            workload = workload_class(ig, seed, workdir)
        probes.append(probe)
    return ig, workload, probes


class Stopwatch:
    """Wall and CPU seconds of the enclosed code, for traced runs: a probe's
    kernel runs would land inside the spans."""

    def __enter__(self):
        self._start = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc_info):
        self.wall = time.perf_counter() - self._start[0]
        self.cpu = time.process_time() - self._start[1]
        return False


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Operations:
    """Runs and checks operations; remembers output digests per distinct input."""

    def __init__(self, ig, workload):
        self.ig = ig
        self.workload = workload
        self.digests = {}
        self.attempted = 0
        self.problems = []

    def run(self, op, tracer=None):
        """One checked operation; returns a timer of each invocation (a
        ``calibration.Probe``, or a ``Stopwatch`` when traced) and the
        iterations its outputs report."""
        argvs = self.workload.invocations(op)
        stdout, stderr = io.StringIO(), io.StringIO()
        patch = tracer.patched() if tracer else contextlib.nullcontext()
        gc.collect()
        self.attempted += 1
        codes, error, timers = [], None, []
        with patch, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer:
                tracer.operation = op
            try:
                for argv in argvs:
                    timers.append(Stopwatch() if tracer else calibration.Probe())
                    with timers[-1]:
                        codes.append(self.ig.cli.main(argv))
            except Exception as exc:  # an operation that raises counts as failed
                error = exc
        problems, iterations = self.check(op, argvs, codes, error, stdout.getvalue(), stderr.getvalue())
        if problems:
            self.problems.append({"operation": op, "traced": bool(tracer), "problems": problems})
        return timers, iterations

    def check(self, op, argvs, codes, error, stdout, stderr):
        if error is not None:
            return [f"raised {type(error).__name__}: {error}"], 0
        if codes != [0] * len(argvs):
            return [f"exit codes {codes}: {stderr.strip()}"], 0
        try:
            problems, iterations = self.workload.check(op, stdout)
            digest = hashlib.sha256(stdout.encode())
            for path in self.workload.output_files(op):
                digest.update(path.read_bytes())
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"], 0
        first = self.digests.setdefault(json.dumps(argvs), digest.hexdigest())
        if first != digest.hexdigest():
            problems.append("outputs differ from an earlier operation on the same inputs")
        return problems, iterations


def measure(operations, seconds):
    """Probes of each invocation of each operation, and the peak memory."""
    probes = []
    start = time.perf_counter()
    while len(probes) < MIN_OPERATIONS or time.perf_counter() - start < seconds:
        probes.append(operations.run(len(probes))[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return probes, peak_rss_mb


def per_operation(samples):
    """Seconds per operation: the sum, over an operation's invocations, of each
    invocation's median over the operations.  A burst of load then has to hit
    the same invocation in half the operations to move the figure."""
    return sum(statistics.median(column) for column in zip(*samples))


def measure_traced(operations, seconds, spans_path):
    """Pairs of an untraced and a traced run of the same operation."""
    tracer = tracing.Tracer()
    plain, traced, iterations = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        op = len(plain)
        plain.append(sum(probe.wall for probe in operations.run(op)[0]))
        timers, count = operations.run(op, tracer)
        traced.append(sum(timer.wall for timer in timers))
        iterations.append(count)
    tracer.write_csv(spans_path)
    metrics = tracing.per_layer_medians(tracer.spans, range(len(traced)))
    metrics["single_player_solver.solve_single.iterations"] = statistics.median(iterations)
    metrics["traced_solve_s"] = statistics.median(traced)
    metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, plain, traced, len(tracer.spans)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / tracing.PACKAGE / "__init__.py").is_file():
        print(f"error: no {tracing.PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        ig, workload, setup = set_up(WORKLOADS[args.workload], args.seed, workdir)
        operations = Operations(ig, workload)
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "threads": THREADS,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "calibration_reference_s": calibration.REFERENCE_S,
            "setup_samples_s": [probe.wall for probe in setup],
            "setup_scaled_samples_s": [probe.scaled_wall for probe in setup],
        }
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
            metrics, plain, traced, spans = measure_traced(operations, args.seconds, spans_path)
            info.update(untraced_samples_s=plain, traced_samples_s=traced, spans=spans,
                        spans_file=str(spans_path.relative_to(ROOT)))
            result_metrics = {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in tracing.PER_LAYER_UNITS.items()
            }
        else:
            probes, peak_rss_mb = measure(operations, args.seconds)
            samples = {
                key: [[getattr(probe, attribute) for probe in operation] for operation in probes]
                for key, attribute in (("solve_samples_s", "wall"), ("cpu_samples_s", "cpu"),
                                       ("solve_scaled_samples_s", "scaled_wall"),
                                       ("cpu_scaled_samples_s", "scaled_cpu"))
            }
            info.update(samples, kernel_runs=sum(len(p.samples) for op in probes for p in op),
                        raw_solve_s=per_operation(samples["solve_samples_s"]),
                        raw_cpu_s=per_operation(samples["cpu_samples_s"]),
                        raw_setup_s=statistics.median(info["setup_samples_s"]))
            result_metrics = {
                "solve_s": {"value": per_operation(samples["solve_scaled_samples_s"]), "unit": "s"},
                "cpu_s": {"value": per_operation(samples["cpu_scaled_samples_s"]), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "setup_s": {"value": statistics.median(info["setup_scaled_samples_s"]), "unit": "s"},
            }
        failed = len(operations.problems)
        info.update(operations=operations.attempted, failed_frac=failed / operations.attempted,
                    problems=operations.problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in info["problems"]:
        print(f"failed operation: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": operations.attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
