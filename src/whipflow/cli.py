"""Command-line orchestration of the experiments.

Subcommands: ``simulate``, ``sweep-eps``, ``tension``, ``counterexample``,
``nonuniqueness``.  One table, ``SETTINGS``, lists every
setting with its type, its default and the subcommands that read it; a
subcommand accepts exactly the flags and config keys of its own rows.
Every run resolves those rows fully (defaults, then an optional JSON config
file, then flags), builds its inputs, so that an invalid setting exits
before any write, and then writes deterministic files for offline plotting
into the one directory ``run_io.run_path`` names after the command and
the resolved settings, with the settings echoed to its config.json;
re-running an echoed config reproduces the outputs byte for byte.

Exit codes: 0 success, 1 bad usage or invalid input (an unusable output
root or config path included), 2 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .diagnostics import (TIMESERIES_COLUMNS, Reporter, _line_fit,
                          decay_fit, potential_energy)
from .diagnostics import report  # noqa: F401  (perfbench's spans.WRAPS)
from .errors import (InversionError, SolverFailure, StepRejected,
                     TensionSolveError)
from .flow import (TIME_TOL, ArcState, GravitySpec, StepperConfig,
                   check_times, evolve)
from .grid import Grid
from .regmap import RegularizedMap
from .run_io import (RunRecord, Snapshot, eps_directory, run_directory,
                     run_path, write_json, write_run, write_table)
from .run_io import write_trajectory  # noqa: F401  (perfbench's spans.WRAPS)
from .scenarios import (KINDS, ScenarioSpec, branching_pair, build,
                        eps_equilibrium, mollify, mollify_scales,
                        upright_release)
from .tension import counterexample_tension
from .tension import tension_for_state  # also looked up by spans.WRAPS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

# horizon of the constraint-recovery sweep when the user does not set one:
# calibrated so the time average weights the release transient, where the
# relaxed-constraint defect shows its square-root scaling in eps
SWEEP_DEFAULT_HORIZON = 0.1


class UsageError(Exception):
    pass


def _is_real(value) -> bool:
    """A finite int or float; a bool is not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               list: "a finite number or a list of them"}


@dataclass(frozen=True)
class Setting:
    """One row of the settings table.

    ``name`` is the config key and, with dashes for underscores, the flag.
    ``kind`` is the type of the value: int, float, str, or list (of floats,
    written as a comma list on the command line).  A default of None means
    unset; ``commands`` are the subcommands that read the setting.
    """

    name: str
    kind: type
    default: object
    commands: tuple[str, ...]
    choices: Optional[tuple] = None
    help: Optional[str] = None

    def convert(self, value):
        """Check a value from a flag or a config file and return it in the
        setting's type; raises UsageError."""
        if value is None and self.default is None:
            return None
        if self.kind is list:
            if isinstance(value, str):
                value = _parse_float_list(self.name, value)
            elif _is_real(value):
                value = [value]
            valid = isinstance(value, list) and all(map(_is_real, value))
        elif self.kind is float:
            valid = _is_real(value)
        else:
            valid = isinstance(value, self.kind) and not isinstance(value, bool)
        if not valid:
            raise UsageError(f"{self.name} must be {_KIND_NAMES[self.kind]}, "
                             f"got {value!r}")
        if self.kind is list:
            value = [float(v) for v in value]
        elif self.kind is float:
            value = float(value)
        if self.choices is not None and value not in self.choices:
            raise UsageError(f"{self.name} must be one of {self.choices}, "
                             f"got {value!r}")
        return value


# the two runs of the scenario pipeline, the commands that evolve a state,
# and the commands that build a scenario's curve
_RUNS = ("simulate", "sweep-eps")
_EVOLVE = (*_RUNS, "nonuniqueness")
_BUILD = (*_RUNS, "tension")

SETTINGS = (
    Setting("scenario", str, None, _BUILD, choices=KINDS),
    Setting("eps", list, [1e-2], (*_EVOLVE, "counterexample"),
            help="regularization strength (scalar or comma list)"),
    Setting("cells", int, 200, (*_EVOLVE, "tension", "counterexample")),
    Setting("T", float, 1.0, _EVOLVE),
    Setting("dt_init", float, 1e-3, _EVOLVE),
    Setting("dt_min", float, 1e-9, _EVOLVE),
    Setting("dt_max", float, 0.02, _EVOLVE),
    Setting("out", str, None, (*_EVOLVE, "tension", "counterexample")),
    Setting("snapshots", list, [], _EVOLVE, help="comma list of snapshot times"),
    Setting("seed", int, ScenarioSpec.seed, _BUILD),
    Setting("alpha0", float, ScenarioSpec.alpha0, (*_BUILD, "counterexample")),
    Setting("dim", int, 2, (*_BUILD, "nonuniqueness"), choices=(2, 3)),
    Setting("geom_eps", float, ScenarioSpec.geom_eps, _BUILD),
)


def settings_of(command: str) -> tuple[Setting, ...]:
    """The rows of SETTINGS that ``command`` reads."""
    return tuple(s for s in SETTINGS if command in s.commands)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on bad flags, per the exit-code
    contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _parse_float_list(name: str, text: str) -> list[float]:
    """The floats of a comma list; an empty item is an error, not skipped."""
    parts = text.split(",")
    if any(part.strip() == "" for part in parts):
        raise UsageError(f"{name}: empty item in float list {text!r}")
    try:
        return [float(part) for part in parts]
    except ValueError as exc:
        raise UsageError(f"{name}: cannot parse float list {text!r}: {exc}") \
            from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="whipflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for s in settings_of(name):
            p.add_argument("--" + s.name.replace("_", "-"), dest=s.name, choices=s.choices, help=s.help,
                           type=s.kind if s.kind in (int, float) else None)
        p.add_argument("--config", help="JSON config file (flags override it)")
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """The command's rows of SETTINGS, every one materialized: defaults <
    config file < explicit flags, each value through its row's converter."""
    rows = {s.name: s for s in settings_of(args.command)}
    given = {}
    if args.config is not None:
        try:
            doc = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid config JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError("a config file must hold a JSON object")
        if isinstance(doc.get("config"), dict):
            doc = doc["config"]  # accept a run's echoed config
        for key, value in doc.items():
            if key == "command":
                continue
            if key not in rows:
                raise UsageError(f"unknown config key {key!r} for {args.command}")
            given[key] = value
    for key in rows:
        value = getattr(args, key)
        if value is not None:
            given[key] = value
    cfg = {key: s.convert(given.get(key, s.default)) for key, s in rows.items()}
    if args.command == "sweep-eps" and "T" not in given:
        cfg["T"] = SWEEP_DEFAULT_HORIZON
    if "out" in cfg and cfg["out"] is None:
        cfg["out"] = os.environ.get("WHIPFLOW_OUT", "runs")
    if "T" in cfg and not cfg["T"] > TIME_TOL:
        raise UsageError(f"--T = {cfg['T']:g} takes no step: it must exceed "
                         f"evolve's time tolerance {TIME_TOL:g}")
    if "snapshots" in cfg:
        # the times evolve would refuse: outside [0, T], or two of them
        # within its time tolerance, so no state would carry the later
        try:
            check_times(0.0, cfg["T"], cfg["snapshots"])
        except ValueError as exc:
            raise UsageError(f"--snapshots: {exc}") from None
    if "cells" in cfg and cfg["cells"] < 2:
        raise UsageError("--cells must be at least 2")
    if "scenario" in cfg and cfg["scenario"] is None:
        raise UsageError("--scenario is required")
    cfg["command"] = args.command
    return cfg


def _scenario_spec(cfg) -> ScenarioSpec:
    """The unsmoothed curve of the configured scenario."""
    return ScenarioSpec(kind=cfg["scenario"], geom_eps=cfg["geom_eps"],
                        alpha0=cfg["alpha0"], seed=cfg["seed"])


def _stepper(cfg) -> StepperConfig:
    return StepperConfig(cfg["dt_init"], cfg["dt_min"], cfg["dt_max"])


def _initial_state(cfg) -> ArcState:
    """The configured scenario's curve, mollified at the scales of its grid
    (``mollify_scales``), as the upright curve of nonuniqueness is."""
    grid = Grid(cfg["cells"])
    radius, width = mollify_scales(grid.h)
    spec = dataclasses.replace(_scenario_spec(cfg), mollify_radius=radius,
                               taper_width=width)
    return mollify(build(spec, grid, GravitySpec.down(cfg["dim"])), spec)


def run_simulation(cfg: dict, rmap: RegularizedMap, init: ArcState,
                   stepper: StepperConfig, integrate,
                   directory: Path) -> tuple[RunRecord, object]:
    """The recording pipeline of simulate, sweep-eps and nonuniqueness.

    ``integrate`` is ``evolve`` or ``branching_pair``, called with
    evolve's arguments: it evolves ``init`` under ``rmap`` and gravity
    down to cfg["T"] with ``stepper``, stopping at each requested
    snapshot time and calling ``observer(state, dt, iters, flux, pot)``
    on ``init`` and then after each accepted step, as ``evolve`` does.
    The observer hands each state to a Reporter and keeps the states at
    the requested times; the Reporter's table is summarized and written,
    as the run's timeseries, to ``directory`` (write_run).  Returns the
    record and what ``integrate`` returned.
    When the solver fails hard it writes the partial record with a
    failure marker, and the result is None (the caller decides the exit
    code)."""
    g = GravitySpec.down(cfg["dim"])
    eps = rmap.eps

    reporter = Reporter(init.grid, g)
    kept = []
    # the run stops at each request: a state is kept if its time is one
    requests = set(cfg["snapshots"])

    def observer(state, dt, iters, flux, pot):
        reporter.add(state, dt, iters, flux, pot)
        if state.time in requests:
            kept.append(state)

    stats: dict = {}
    failure = result = None
    try:
        result = integrate(init, cfg["T"], rmap, g, stepper,
                           observer=observer, stats=stats,
                           stops=cfg["snapshots"])
    except SolverFailure as exc:
        failure = {"reason": str(exc), **exc.diagnostics}
    finally:
        # a report error in the last block ends the run as it would have
        # at its own step, before any error evolve raised after it
        reporter.flush()
    table = reporter.table

    snapshots = [Snapshot(state=state, tension=tension_for_state(state, g))
                 for state in kept]

    summary = _summarize(table, init.grid, g, rmap, reporter.sup_u, eps)
    summary["failed"] = failure
    config_echo = dict(cfg)
    config_echo["eps"] = [eps]
    record = RunRecord(
        config_echo=config_echo,
        reports=table,
        snapshots=snapshots,
        solver_stats=stats,
        summary=summary,
    )
    write_run(record, directory)
    return record, result


def _summarize(table, grid, g, rmap, sup_u, eps) -> dict:
    col = dict(zip(TIMESERIES_COLUMNS, table.T))
    t, e_rel = col["t"], col["E_rel"]
    # the decay is fitted against the eps-equilibrium the run converges to,
    # over [1e-4, 0.5] of its initial excess (criterion 9's window); E_rel
    # and the E_rel_* entries keep the constrained reference
    e_eq = potential_energy(eps_equilibrium(grid, rmap, g), g)
    excess = col["E"] - e_eq
    excess0 = excess[0]
    fit_doc = None
    if excess0 > 0.0:
        in_band = t[(1e-4 * excess0 <= excess) & (excess <= 0.5 * excess0)]
        if len(in_band) >= 10:
            try:
                fit = decay_fit(t, excess, col["D"], (in_band[0], in_band[-1]))
                fit_doc = {
                    "window": list(fit.window),
                    "rate": fit.rate,
                    "r_squared": fit.r_squared,
                    "cbar0_check": fit.cbar0_check,
                }
            except ValueError:
                fit_doc = None
    energies = col["E_eps"]
    max_increase = float(np.diff(energies).max()) if len(energies) > 1 else 0.0
    return {
        "E_rel_initial": float(e_rel[0]),
        "E_rel_final": float(e_rel[-1]),
        "decay_fit": fit_doc,
        "max_energy_increase": max_increase,
        "running_sup_tangent": sup_u,
        "verdicts": {
            "energy_monotone": bool(max_increase <= 1e-9),
            "stretch_bounded": bool(sup_u <= 1.0 + np.sqrt(eps) + 0.05),
            "relative_energy_nonnegative": bool(
                e_rel.min() >= -10.0 * grid.h
            ),
        },
    }


def cmd_simulate(cfg) -> int:
    if len(cfg["eps"]) != 1:
        raise UsageError("simulate takes exactly one --eps value")
    init, stepper = _initial_state(cfg), _stepper(cfg)
    rmap = RegularizedMap(cfg["eps"][0], dim=cfg["dim"])
    # made before the run, so that an unusable --out fails before any step;
    # write_run echoes the settings to its config.json
    directory = run_path(cfg)
    record, _ = run_simulation(cfg, rmap, init, stepper, evolve, directory)
    print(f"wrote {directory}")
    if record.summary["failed"] is not None:
        print(f"solver failed: {record.summary['failed']['reason']}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_sweep_eps(cfg) -> int:
    eps_list = cfg["eps"]
    if len(eps_list) < 2:
        raise UsageError("sweep-eps needs at least two --eps values")
    if len(set(eps_list)) < len(eps_list):
        raise UsageError(f"sweep-eps: repeated --eps value in {eps_list}")
    init, stepper = _initial_state(cfg), _stepper(cfg)
    rmaps = [RegularizedMap(eps, dim=cfg["dim"]) for eps in eps_list]
    base = run_directory(cfg)
    entries = []
    failed = False
    for eps, rmap in zip(eps_list, rmaps):
        directory = eps_directory(base, eps)
        record, _ = run_simulation(cfg, rmap, init, stepper, evolve,
                                   directory)
        if record.summary["failed"] is not None:
            failed = True
        col = dict(zip(TIMESERIES_COLUMNS, record.reports.T))
        # a failed run's partial-horizon average is not comparable: null
        avg = None
        if record.summary["failed"] is None:
            avg = float(np.sum(col["dt"] * col["constraint_L1"])
                        / np.sum(col["dt"]))
        entries.append({"eps": eps, "avg_constraint_L1": avg,
                        "dir": directory.name})
    by_eps = sorted(entries, key=lambda e: -e["eps"])
    avgs = [e["avg_constraint_L1"] for e in by_eps]
    eps_v = [e["eps"] for e in by_eps]
    slope = decreasing = None
    if None not in avgs:
        slope = _line_fit(np.log(eps_v), np.log(avgs))[0]
        decreasing = bool(all(a > b for a, b in zip(avgs, avgs[1:])))
    write_json(base / "sweep_summary.json", {
        "entries": entries,
        "loglog_slope": slope,
        "strictly_decreasing": decreasing,
    })
    print(f"wrote {base} (loglog slope: {slope})")
    return EXIT_NUMERIC if failed else EXIT_OK


def cmd_tension(cfg) -> int:
    grid = Grid(cfg["cells"])
    g = GravitySpec.down(cfg["dim"])
    state = build(_scenario_spec(cfg), grid, g)
    profile = tension_for_state(state, g)
    directory = run_directory(cfg)
    write_table(directory / "tension.csv", ("s", "sigma"),
                np.column_stack((grid.nodes, profile.values)))
    print(f"wrote {directory}  sigma(1) = {profile.at_end:.6g}")
    return EXIT_OK


def cmd_counterexample(cfg) -> int:
    if not cfg["eps"]:
        raise UsageError("counterexample needs at least one --eps value")
    rows = []
    for eps in cfg["eps"]:
        value, bound = counterexample_tension(eps, cfg["alpha0"],
                                              n_cells=cfg["cells"])
        rows.append((eps, value, bound, value / bound))
    write_table(run_directory(cfg) / "counterexample.csv",
                ("eps", "varsigma_1", "bound", "ratio"), rows)
    print(f"{'eps':>10} {'varsigma(1)':>14} {'bound':>14} {'ratio':>8}")
    for eps, value, bound, ratio in rows:
        print(f"{eps:>10g} {value:>14.8g} {bound:>14.8g} {ratio:>8.5f}")
    return EXIT_OK


def cmd_nonuniqueness(cfg) -> int:
    if len(cfg["eps"]) != 1:
        raise UsageError("nonuniqueness takes exactly one --eps value")
    grid = Grid(cfg["cells"])
    g = GravitySpec.down(cfg["dim"])
    rmap = RegularizedMap(cfg["eps"][0], dim=cfg["dim"])
    init, stepper = upright_release(grid, g), _stepper(cfg)
    directory = run_directory(cfg)
    record, pair = run_simulation(cfg, rmap, init, stepper, branching_pair,
                                  directory / "falling")
    failed = record.summary["failed"]
    if failed is not None:
        # the top-level summary holds the failure alone; falling/ holds
        # the partial record, as simulate's directory does
        write_json(directory / "summary.json", {"failed": failed})
        print(f"wrote {directory}")
        print(f"solver failed: {failed['reason']}", file=sys.stderr)
        return EXIT_NUMERIC
    write_json(directory / "summary.json", {
        "separation_L2_at_T": pair.separation,
        "falling_residual": dataclasses.asdict(pair.falling_residual),
        "stationary_residual": dataclasses.asdict(pair.stationary_residual),
    })
    print(f"wrote {directory}  separation at T = {pair.separation:.6g}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep-eps": cmd_sweep_eps,
    "tension": cmd_tension,
    "counterexample": cmd_counterexample,
    "nonuniqueness": cmd_nonuniqueness,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverFailure, StepRejected, InversionError,
            TensionSolveError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
