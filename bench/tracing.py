"""Spans around the package's public functions, recorded from outside the package.

``Tracer.patched()`` replaces every public function of each layer module by a
wrapper that records a span: name, start, end, parent span and operation id.
A function is replaced in its defining module and in every package module
that bound it with ``from .x import y``, so calls between modules are seen
too.  Private helpers (``_forward_states``, ``_maximize_concave``, ...) are
not wrapped; their time shows up as self time of the public caller.  Every
replaced name is restored when the context exits, even after an error.

Spans stay in memory until the run ends; ``summarize`` turns them into
per-operation call counts, total time, self time (span time minus the time
covered by child spans) and the computed amounts below.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PACKAGE = "influencegame"
LAYERS = (
    "opinion_dynamics",
    "game_model",
    "single_player_solver",
    "equilibrium_solver",
    "verification",
    "cli",
    "fileio",
)
BEST_RESPONSE = "equilibrium_solver.best_response"


def propagator_flops(network, dt, interval=None):
    """Floating-point operations of one ``propagator(network, dt)`` call, computed.

    ``matrix_exponential`` does 13 Horner steps and s squarings, each an n x n
    matrix product of 2n^3 flops; s is derived from ||L dt||_inf exactly as
    ``matrix_exponential`` derives it.
    """
    norm = np.linalg.norm(-network.laplacian * dt, np.inf)
    squarings = 0 if norm <= 0.5 else int(math.ceil(math.log2(norm / 0.5)))
    return 2 * network.n ** 3 * (13 + squarings)


def written_bytes(path, text):
    return len(text.encode())


# Span name -> function of the wrapped call's arguments giving the amount of
# work it did; evaluated after the call returns, outside its span.
AMOUNTS = {
    "opinion_dynamics.propagator": propagator_flops,
    "fileio.atomic_write_text": written_bytes,
}


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with an underscore."""
    return [
        (name, value)
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    ]


def package_modules():
    return [
        module
        for name, module in sys.modules.items()
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


class Tracer:
    """Collects spans as lists ``[name, start, end, parent, operation, amount]``."""

    def __init__(self):
        self.spans = []
        self.operation = -1
        self._open = []

    def _wrap(self, name, fn, amount):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.operation, 0]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_spans.pop()
            if amount is not None:
                span[5] = amount(*args, **kwargs)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Wrap every public layer function wherever the package binds it."""
        modules = package_modules()
        bindings = defaultdict(list)  # id(function) -> [(module, attribute)]
        for module in modules:
            for attribute, value in vars(module).items():
                if inspect.isfunction(value):
                    bindings[id(value)].append((module, attribute))
        replaced = []
        try:
            for layer in LAYERS:
                for name, fn in public_functions(sys.modules[f"{PACKAGE}.{layer}"]):
                    label = f"{layer}.{name}"
                    wrapper = self._wrap(label, fn, AMOUNTS.get(label))
                    for module, attribute in bindings[id(fn)]:
                        replaced.append((module, attribute, fn))
                        setattr(module, attribute, wrapper)
            yield self
        finally:
            for module, attribute, fn in reversed(replaced):
                setattr(module, attribute, fn)

    def write_csv(self, path):
        with open(path, "w") as handle:
            handle.write("span,parent,operation,name,start_s,end_s,amount\n")
            for index, (name, start, end, parent, operation, amount) in enumerate(self.spans):
                handle.write(
                    f"{index},{parent},{operation},{name},{start!r},{end!r},{amount}\n"
                )


def summarize(spans):
    """Per operation: ``{name: [calls, total_s, self_s, amount]}`` and, separately,
    how often each name was called inside a best-response span."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    in_best_response = [False] * len(spans)
    per_operation = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0, 0]))
    inside = defaultdict(Counter)
    for index, (name, start, end, parent, operation, amount) in enumerate(spans):
        if parent >= 0:
            in_best_response[index] = (
                in_best_response[parent] or spans[parent][0] == BEST_RESPONSE
            )
        record = per_operation[operation][name]
        record[0] += 1
        record[1] += end - start
        record[2] += end - start - child_time[index]
        record[3] += amount
        if in_best_response[index]:
            inside[operation][name] += 1
    return per_operation, inside


# Per-layer metrics read off the spans.  The last dotted part names the field;
# ``opinion_dynamics.jump`` adds up the single- and multi-player jumps.
SPAN_METRICS = (
    "opinion_dynamics.propagator.calls",
    "opinion_dynamics.propagator.self_s",
    "opinion_dynamics.propagator.total_s",
    "opinion_dynamics.propagator.flops",
    "opinion_dynamics.matrix_exponential.self_s",
    "opinion_dynamics.jump.calls",
    "opinion_dynamics.jump.self_s",
    "game_model.total_payoff.calls",
    "game_model.total_payoff.self_s",
    "game_model.payoff_gradient.calls",
    "game_model.payoff_gradient.self_s",
    "game_model.plans_from_array.calls",
    "game_model.plans_from_array.self_s",
    "game_model.validate_plans.calls",
    "game_model.validate_plans.self_s",
    "single_player_solver.project_feasible.calls",
    "single_player_solver.project_feasible.self_s",
    "single_player_solver.build_region.calls",
    "single_player_solver.build_region.self_s",
    "equilibrium_solver.best_response.calls",
    "equilibrium_solver.best_response.total_s",
    "equilibrium_solver.exploitability.total_s",
    "equilibrium_solver.regret.total_s",
    "equilibrium_solver.run_no_regret.total_s",
    "equilibrium_solver.run_no_regret.self_s",
    "equilibrium_solver.project_budget_set.calls",
    "equilibrium_solver.project_budget_set.self_s",
    "equilibrium_solver.trace_to_csv.total_s",
    "fileio.atomic_write_text.total_s",
    "fileio.atomic_write_text.bytes",
    "cli.load_scenario.total_s",
    "verification.fd_gradient.total_s",
    "verification.midpoint_convexity_check.total_s",
    "verification.brute_force_best_response.total_s",
    "verification.random_linear_game.total_s",
)
FIELDS = {"calls": 0, "total_s": 1, "self_s": 2, "flops": 3, "bytes": 3}
ALIASES = {"opinion_dynamics.jump": ("opinion_dynamics.jump_single", "opinion_dynamics.jump_multi")}

# Metrics computed from other sources than a single span field.
DERIVED_METRICS = (
    "equilibrium_solver.best_response.total_payoff_calls",
    "equilibrium_solver.best_response.payoff_gradient_calls",
    "equilibrium_solver.best_response.values_per_grad",
    "single_player_solver.solve_single.iterations",
    "traced_solve_s",
    "trace_overhead_s",
)

_SPECIAL_UNITS = {"flops": "computed_flop", "bytes": "byte", "values_per_grad": "ratio"}
PER_LAYER_UNITS = {
    metric: _SPECIAL_UNITS.get(metric.rsplit(".", 1)[-1], "s" if metric.endswith("_s") else "count")
    for metric in SPAN_METRICS + DERIVED_METRICS
}


def operation_metrics(record, inside):
    """Per-layer metrics of one traced operation (``summarize`` output for it)."""
    values = {}
    for metric in SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        values[metric] = sum(
            record[name][FIELDS[field]] if name in record else 0
            for name in ALIASES.get(span, (span,))
        )
    payoffs = inside["game_model.total_payoff"]
    gradients = inside["game_model.payoff_gradient"]
    values["equilibrium_solver.best_response.total_payoff_calls"] = payoffs
    values["equilibrium_solver.best_response.payoff_gradient_calls"] = gradients
    values["equilibrium_solver.best_response.values_per_grad"] = (
        payoffs / gradients if gradients else 0.0
    )
    return values


def per_layer_medians(spans, operations):
    """Median over the traced operations of each span-derived metric."""
    per_operation, inside = summarize(spans)
    samples = [operation_metrics(per_operation[op], inside[op]) for op in operations]
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
