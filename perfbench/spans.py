"""Span tracing around the calls into whipflow's modules, from outside.

The tracer replaces each public callable at the name its caller looks up
(a module global or a class attribute) with a wrapper that records one span:
name, start, end and the index of the enclosing span.  Spans stay in memory
until the traced sample ends; ``layer_metrics`` then reduces them to the
per-layer figures of the benchmark.

Nothing here imports whipflow at module level, so the runner can import this
file without paying for numpy and scipy.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

# (module or class path, attribute, span name).  The span name is the layer
# that defines the callable; the same callable is wrapped at every name a
# caller on the hot path looks it up by.
WRAPS = (
    ("whipflow.regmap:RegularizedMap", "local_calculus", "regmap.local_calculus"),
    ("whipflow.regmap:RegularizedMap", "invert", "regmap.invert"),
    ("whipflow.regmap:RegularizedMap", "potential", "regmap.potential"),
    ("whipflow.grid:Grid", "diff_forward", "grid.diff_forward"),
    ("whipflow.flow", "solve_banded", "flow.solve_banded"),
    ("whipflow.cli", "evolve", "flow.evolve"),
    ("whipflow.scenarios", "evolve", "flow.evolve"),
    ("whipflow.diagnostics", "discrete_energy", "flow.discrete_energy"),
    ("whipflow.cli", "report", "diagnostics.report"),
    ("whipflow.scenarios", "constitutive_tension", "diagnostics.constitutive_tension"),
    ("whipflow.scenarios", "generalized_residual", "diagnostics.generalized_residual"),
    ("whipflow.cli", "tension_for_state", "tension.tension_for_state"),
    ("whipflow.diagnostics", "tension_for_state", "tension.tension_for_state"),
    ("whipflow.tension", "solve_tension", "tension.solve_tension"),
    ("whipflow.cli", "build", "scenarios.build"),
    ("whipflow.scenarios", "build", "scenarios.build"),
    ("whipflow.cli", "mollify", "scenarios.mollify"),
    ("whipflow.scenarios", "mollify", "scenarios.mollify"),
    ("whipflow.cli", "branching_pair", "scenarios.branching_pair"),
    ("whipflow.cli", "write_run", "run_io.write_run"),
    ("whipflow.cli", "write_trajectory", "run_io.write_trajectory"),
)

ROOT_SPAN = "cli.main"
# spans an accepted step ends with: the observer's first call after a step
OBSERVER_SPANS = ("diagnostics.report", "diagnostics.constitutive_tension")


def _resolve(path):
    import importlib

    module_name, _, class_name = path.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """In-memory span recorder; single-threaded, like the program it traces."""

    def __init__(self):
        # each span is [name, start, end, parent index or -1]
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced


class Patches:
    """Replace attributes and put the originals back on exit."""

    def __init__(self):
        self._saved = []

    def set(self, target, attr, value):
        self._saved.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            target, attr, value = self._saved.pop()
            setattr(target, attr, value)
        return False


def install(tracer, patches):
    """Wrap every callable of WRAPS, recording into ``tracer``."""
    for path, attr, name in WRAPS:
        target = _resolve(path)
        patches.set(target, attr, tracer.wrap(name, getattr(target, attr)))


def aggregate(spans):
    """Per span name: calls, inclusive seconds and self seconds (inclusive
    minus the time of directly nested spans)."""
    self_s = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    for (name, start, end, _), own in zip(spans, self_s):
        entry = out[name]
        entry["calls"] += 1
        entry["incl_s"] += end - start
        entry["self_s"] += own
    return dict(out)


def accepted_step_seconds(spans):
    """Wall time of each accepted step: from the end of the observer's span
    for the previous step (or the start of evolve) to the start of the
    observer's span for this one.  Includes the rejected attempts that
    preceded the accepted one."""
    children = defaultdict(list)
    evolves = []
    for index, (name, start, end, parent) in enumerate(spans):
        if name == "flow.evolve":
            evolves.append(index)
        elif name in OBSERVER_SPANS and parent >= 0:
            children[parent].append((start, end))
    out = []
    for index in evolves:
        last_end = spans[index][1]
        for start, end in children[index]:
            out.append(start - last_end)
            last_end = end
    return out


def layer_metrics(spans, counters, files):
    """Per-layer metrics of one traced sample.

    ``counters`` holds steps, rejections and newton_iters from the run's own
    record; ``files`` holds read_run_s, bytes_written and files_written.
    """
    agg = aggregate(spans)
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}

    def get(name):
        return agg.get(name, empty)

    def per_call_us(name):
        entry = get(name)
        return 1e6 * entry["incl_s"] / entry["calls"] if entry["calls"] else 0.0

    run_s = get(ROOT_SPAN)["incl_s"]
    steps = counters["steps"]
    rejections = counters["rejections"]
    newton_iters = counters["newton_iters"]
    solves = get("flow.solve_banded")["calls"]
    calculus = get("regmap.local_calculus")["calls"]
    attempts = steps + rejections
    step_ms = [1e3 * s for s in accepted_step_seconds(spans)]
    # deciles with numpy's default (linear) interpolation; needs two steps
    deciles = statistics.quantiles(step_ms, n=10, method="inclusive") \
        if len(step_ms) > 1 else [0.0] * 9
    write_s = get("run_io.write_run")["incl_s"] + get("run_io.write_trajectory")["incl_s"]

    def layer_share(prefix):
        return sum(v["self_s"] for k, v in agg.items() if k.startswith(prefix)) / run_s

    return {
        "grid.diff_forward.calls": get("grid.diff_forward")["calls"],
        "grid.diff_forward.self_s": get("grid.diff_forward")["self_s"],
        "regmap.local_calculus.calls": calculus,
        "regmap.local_calculus.us_per_call": per_call_us("regmap.local_calculus"),
        "regmap.local_calculus.self_s": get("regmap.local_calculus")["self_s"],
        "regmap.invert.calls": get("regmap.invert")["calls"],
        "regmap.invert.us_per_call": per_call_us("regmap.invert"),
        "regmap.invert.self_s": get("regmap.invert")["self_s"],
        "regmap.potential.calls": get("regmap.potential")["calls"],
        "regmap.potential.self_s": get("regmap.potential")["self_s"],
        "regmap.share": layer_share("regmap."),
        "flow.steps": steps,
        "flow.rejections": rejections,
        "flow.newton_iters": newton_iters,
        "flow.accept_ratio": steps / attempts if attempts else 0.0,
        "flow.wasted_newton_frac": (solves - newton_iters) / solves if solves else 0.0,
        # every attempt evaluates local_calculus once before its first solve,
        # and every Newton iteration once per line-search trial after it
        "flow.linesearch_evals_per_newton":
            (calculus - attempts) / solves if solves else 0.0,
        "flow.solve_banded.calls": solves,
        "flow.solve_banded.us_per_call": per_call_us("flow.solve_banded"),
        "flow.solve_banded.self_s": get("flow.solve_banded")["self_s"],
        "flow.discrete_energy.self_s": get("flow.discrete_energy")["self_s"],
        "flow.self_s": get("flow.evolve")["self_s"],
        "flow.accepted_step_ms.p50": deciles[4],
        "flow.accepted_step_ms.p90": deciles[8],
        "tension.tension_for_state.calls": get("tension.tension_for_state")["calls"],
        "tension.tension_for_state.us_per_call": per_call_us("tension.tension_for_state"),
        "tension.tension_for_state.self_s": get("tension.tension_for_state")["self_s"],
        "tension.solve_tension.us_per_call": per_call_us("tension.solve_tension"),
        "diagnostics.report.calls": get("diagnostics.report")["calls"],
        "diagnostics.report.us_per_call": per_call_us("diagnostics.report"),
        "diagnostics.report.self_s": get("diagnostics.report")["self_s"],
        "diagnostics.constitutive_tension.self_s":
            get("diagnostics.constitutive_tension")["self_s"],
        "diagnostics.generalized_residual.self_s":
            get("diagnostics.generalized_residual")["self_s"],
        "diagnostics.share": layer_share("diagnostics."),
        "scenarios.build.self_s": get("scenarios.build")["self_s"],
        "scenarios.mollify.self_s": get("scenarios.mollify")["self_s"],
        "scenarios.branching_pair.self_s": get("scenarios.branching_pair")["self_s"],
        "run_io.write_run.s": get("run_io.write_run")["incl_s"],
        "run_io.write_trajectory.s": get("run_io.write_trajectory")["incl_s"],
        "run_io.read_run.s": files["read_run_s"],
        "run_io.bytes_written": files["bytes_written"],
        "run_io.files_written": files["files_written"],
        "run_io.write_MBps": files["bytes_written"] / write_s / 1e6 if write_s else 0.0,
        "cli.self_s": get(ROOT_SPAN)["self_s"],
        "trace.run_s": run_s,
        "trace.self_sum_s": sum(v["self_s"] for v in agg.values()),
    }
