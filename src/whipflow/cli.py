"""Command-line orchestration of the experiments.

Subcommands: ``simulate``, ``sweep-eps``, ``tension``, ``counterexample``,
``nonuniqueness``, ``validate``.  Every run resolves its configuration
fully (defaults, then an optional JSON config file, then flags), echoes it
to disk, and emits deterministic files for offline plotting; re-running an
echoed config reproduces the outputs byte for byte.

Exit codes: 0 success, 1 bad usage or invalid input, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .diagnostics import decay_fit, potential_energy, report
from .errors import (ContractError, InversionError, RunFormatError,
                     SolverFailure, StepRejected, TensionSolveError,
                     UnderResolvedError)
from .flow import GravitySpec, StepperConfig, evolve
from .grid import Grid
from .regmap import RegParams, RegularizedMap
from .run_io import (RunRecord, Snapshot, _fmt, write_json, write_run,
                     write_table, write_trajectory)
from .scenarios import (KINDS, ScenarioSpec, branching_pair, build,
                        eps_equilibrium, mollify)
from .tension import counterexample_tension, tension_for_state

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

# horizon of the constraint-recovery sweep when the user does not set one:
# calibrated so the time average weights the release transient, where the
# relaxed-constraint defect shows its square-root scaling in eps
SWEEP_DEFAULT_HORIZON = 0.1

DEFAULTS = {
    "scenario": None,
    "eps": [1e-2],
    "cells": 200,
    "T": 1.0,
    "dt_init": 1e-3,
    "dt_min": 1e-9,
    "dt_max": 0.02,
    "tol": 1e-10,
    "out": None,
    "snapshots": [],
    "seed": 0,
    "alpha0": float(np.pi / 2),
    "dim": 2,
    "geom_eps": 0.1,
    "mollify_radius": None,
    "taper_width": None,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on bad flags, per the exit-code
    contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"cannot parse float list {text!r}: {exc}") from exc


def _add_common_flags(parser):
    parser.add_argument("--scenario", choices=KINDS)
    parser.add_argument("--eps", help="regularization strength (scalar or comma list)")
    parser.add_argument("--cells", type=int)
    parser.add_argument("--T", type=float, dest="T")
    parser.add_argument("--dt-init", type=float, dest="dt_init")
    parser.add_argument("--dt-min", type=float, dest="dt_min")
    parser.add_argument("--dt-max", type=float, dest="dt_max")
    parser.add_argument("--tol", type=float)
    parser.add_argument("--out")
    parser.add_argument("--snapshots", help="comma list of snapshot times")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--alpha0", type=float)
    parser.add_argument("--dim", type=int, choices=(2, 3))
    parser.add_argument("--geom-eps", type=float, dest="geom_eps")
    parser.add_argument("--mollify-radius", type=float, dest="mollify_radius")
    parser.add_argument("--taper-width", type=float, dest="taper_width")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="whipflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in ("simulate", "sweep-eps", "tension", "counterexample",
                 "nonuniqueness", "validate"):
        p = sub.add_parser(name)
        _add_common_flags(p)
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, every key materialized."""
    cfg = dict(DEFAULTS)
    provided = set()
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid config JSON: {exc}") from exc
        if "config" in doc and isinstance(doc["config"], dict):
            doc = doc["config"]  # accept a run's echoed config.json
        for key, value in doc.items():
            if key in ("command",):
                continue
            if key not in cfg:
                raise UsageError(f"unknown config key {key!r}")
            cfg[key] = value
            provided.add(key)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
            provided.add(key)
    if args.command == "sweep-eps" and "T" not in provided:
        cfg["T"] = SWEEP_DEFAULT_HORIZON
    if isinstance(cfg["eps"], str):
        cfg["eps"] = _parse_float_list(cfg["eps"])
    elif isinstance(cfg["eps"], (int, float)):
        cfg["eps"] = [float(cfg["eps"])]
    if isinstance(cfg["snapshots"], str):
        cfg["snapshots"] = _parse_float_list(cfg["snapshots"])
    if cfg["out"] is None:
        cfg["out"] = os.environ.get("WHIPFLOW_OUT", "runs")
    if cfg["cells"] < 2:
        raise UsageError("--cells must be at least 2")
    # materialize the mollification scales
    h = 1.0 / cfg["cells"]
    if cfg["mollify_radius"] is None:
        cfg["mollify_radius"] = max(0.02, 2.0 * h)
    if cfg["taper_width"] is None:
        cfg["taper_width"] = max(0.04, 2.0 * h)
    cfg["command"] = args.command
    return cfg


def _scenario_spec(cfg) -> ScenarioSpec:
    return ScenarioSpec(
        kind=cfg["scenario"],
        angle=cfg["alpha0"],
        geom_eps=cfg["geom_eps"],
        alpha0=cfg["alpha0"],
        seed=cfg["seed"],
        mollify_radius=cfg["mollify_radius"],
        taper_width=cfg["taper_width"],
    )


def _stepper(cfg) -> StepperConfig:
    return StepperConfig(
        dt_init=cfg["dt_init"], dt_min=cfg["dt_min"], dt_max=cfg["dt_max"],
        newton_tol=cfg["tol"],
    )


def _require_scenario(cfg):
    if not cfg.get("scenario"):
        raise UsageError("--scenario is required for this command")


def run_simulation(cfg: dict, eps: float, directory: Path) -> RunRecord:
    """Shared pipeline of simulate and sweep-eps: build, mollify, evolve,
    record, persist.  Writes a partial record with a failure marker when
    the solver fails hard (the caller decides the exit code)."""
    grid = Grid(cfg["cells"])
    g = GravitySpec.down(cfg["dim"])
    rmap = RegularizedMap(RegParams(eps), dim=cfg["dim"])
    spec = _scenario_spec(cfg)
    init = mollify(build(spec, grid, g), spec)

    reports = [report(init, rmap, g)]
    dts = [0.0]
    iters_list = [0]
    requests = list(cfg["snapshots"])
    nearest = [(abs(init.time - t), init) for t in requests]
    sup_u = [float(np.linalg.norm(init.tangents, axis=1).max())]

    def observer(state, dt, iters):
        reports.append(report(state, rmap, g))
        dts.append(dt)
        iters_list.append(iters)
        sup_u.append(float(np.linalg.norm(state.tangents, axis=1).max()))
        for k, t in enumerate(requests):
            err = abs(state.time - t)
            if err < nearest[k][0]:
                nearest[k] = (err, state)

    stats: dict = {}
    failure = None
    try:
        evolve(init, cfg["T"], rmap, g, _stepper(cfg), observer=observer,
               stats=stats)
    except SolverFailure as exc:
        failure = {"reason": str(exc), **exc.diagnostics}

    snapshots = []
    seen = set()
    for _, state in nearest:
        if state.time not in seen:
            seen.add(state.time)
            snapshots.append(Snapshot(t=state.time, state=state,
                                      tension=tension_for_state(state, g)))
    snapshots.sort(key=lambda s: s.t)

    summary = _summarize(reports, grid, g, rmap, sup_u, eps)
    summary["failed"] = failure
    config_echo = dict(cfg)
    config_echo["eps"] = [eps]
    record = RunRecord(
        config_echo=config_echo,
        reports=reports,
        step_dts=dts,
        step_newton_iters=iters_list,
        snapshots=snapshots,
        solver_stats=stats,
        summary=summary,
    )
    write_run(record, directory)
    return record


def _summarize(reports, grid, g, rmap, sup_u, eps) -> dict:
    e_rel0 = reports[0].E_rel
    e_rel_end = reports[-1].E_rel
    # the decay is fitted against the eps-equilibrium the run converges to,
    # over [1e-4, 0.5] of its initial excess (criterion 9's window); E_rel
    # and the E_rel_* entries keep the constrained reference
    e_eq = potential_energy(eps_equilibrium(grid, rmap, g), g)
    excess = [dataclasses.replace(r, E_rel=r.E - e_eq) for r in reports]
    excess0 = excess[0].E_rel
    fit_doc = None
    if len(excess) >= 10 and excess0 > 0.0:
        in_band = [r for r in excess
                   if 1e-4 * excess0 <= r.E_rel <= 0.5 * excess0]
        if len(in_band) >= 10:
            try:
                fit = decay_fit(excess, (in_band[0].t, in_band[-1].t))
                fit_doc = {
                    "window": list(fit.window),
                    "rate": fit.rate,
                    "r_squared": fit.r_squared,
                    "cbar0_check": fit.cbar0_check,
                }
            except ValueError:
                fit_doc = None
    energies = np.array([r.E_eps for r in reports])
    max_increase = float(np.diff(energies).max()) if len(energies) > 1 else 0.0
    return {
        "E_rel_initial": e_rel0,
        "E_rel_final": e_rel_end,
        "decay_fit": fit_doc,
        "max_energy_increase": max_increase,
        "running_sup_tangent": max(sup_u),
        "verdicts": {
            "energy_monotone": bool(max_increase <= 1e-9),
            "stretch_bounded": bool(max(sup_u) <= 1.0 + np.sqrt(eps) + 0.05),
            "relative_energy_nonnegative": bool(
                min(r.E_rel for r in reports) >= -10.0 * grid.h
            ),
        },
    }


def _slug(value: float) -> str:
    return ("%g" % value).replace("-", "m").replace("+", "")


def cmd_simulate(cfg) -> int:
    _require_scenario(cfg)
    if len(cfg["eps"]) != 1:
        raise UsageError("simulate takes exactly one --eps value")
    eps = cfg["eps"][0]
    directory = Path(cfg["out"]) / (
        f"simulate_{cfg['scenario']}_eps{_slug(eps)}_n{cfg['cells']}_T{_slug(cfg['T'])}"
    )
    record = run_simulation(cfg, eps, directory)
    print(f"wrote {directory}")
    if record.summary["failed"] is not None:
        print(f"solver failed: {record.summary['failed']['reason']}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_sweep_eps(cfg) -> int:
    _require_scenario(cfg)
    eps_list = cfg["eps"]
    if len(eps_list) < 2:
        raise UsageError("sweep-eps needs at least two --eps values")
    base = Path(cfg["out"]) / f"sweep_{cfg['scenario']}_n{cfg['cells']}_T{_slug(cfg['T'])}"
    entries = []
    failed = False
    for eps in eps_list:
        directory = base / f"eps_{_fmt(eps)}"
        record = run_simulation(cfg, eps, directory)
        if record.summary["failed"] is not None:
            failed = True
        dts = np.array(record.step_dts)
        values = np.array([r.constraint_L1 for r in record.reports])
        avg = float(np.sum(dts * values) / np.sum(dts)) if dts.sum() > 0 else float("nan")
        entries.append({"eps": eps, "avg_constraint_L1": avg,
                        "dir": directory.name})
    distinct = sorted({e["eps"] for e in entries})
    slope = None
    decreasing = None
    if len(distinct) >= 2:
        by_eps = sorted(entries, key=lambda e: -e["eps"])
        avgs = [e["avg_constraint_L1"] for e in by_eps]
        eps_v = [e["eps"] for e in by_eps]
        slope = float(np.polyfit(np.log(eps_v), np.log(avgs), 1)[0])
        decreasing = bool(all(a > b for a, b in zip(avgs, avgs[1:])))
    write_json(base / "sweep_summary.json", {
        "entries": entries,
        "loglog_slope": slope,
        "strictly_decreasing": decreasing,
    })
    print(f"wrote {base} (loglog slope: {slope})")
    return EXIT_NUMERIC if failed else EXIT_OK


def cmd_tension(cfg) -> int:
    _require_scenario(cfg)
    grid = Grid(cfg["cells"])
    g = GravitySpec.down(cfg["dim"])
    state = build(_scenario_spec(cfg), grid, g)
    profile = tension_for_state(state, g)
    directory = Path(cfg["out"]) / f"tension_{cfg['scenario']}_n{cfg['cells']}"
    directory.mkdir(parents=True, exist_ok=True)
    write_table(directory / "tension.csv", ("s", "sigma"),
                np.column_stack((grid.nodes, profile.values)))
    write_json(directory / "config.json", {"config": cfg})
    print(f"wrote {directory}  sigma(1) = {profile.at_end:.6g}")
    return EXIT_OK


def cmd_counterexample(cfg) -> int:
    alpha0 = cfg["alpha0"]
    rows = []
    for eps in cfg["eps"]:
        value, bound = counterexample_tension(eps, alpha0, n_cells=cfg["cells"])
        rows.append((eps, value, bound, value / bound))
    directory = Path(cfg["out"]) / f"counterexample_alpha{_slug(alpha0)}"
    directory.mkdir(parents=True, exist_ok=True)
    write_table(directory / "counterexample.csv",
                ("eps", "varsigma_1", "bound", "ratio"), rows)
    write_json(directory / "config.json", {"config": cfg})
    print(f"{'eps':>10} {'varsigma(1)':>14} {'bound':>14} {'ratio':>8}")
    for eps, value, bound, ratio in rows:
        print(f"{eps:>10g} {value:>14.8g} {bound:>14.8g} {ratio:>8.5f}")
    return EXIT_OK


def cmd_nonuniqueness(cfg) -> int:
    grid = Grid(cfg["cells"])
    g = GravitySpec.down(cfg["dim"])
    if len(cfg["eps"]) != 1:
        raise UsageError("nonuniqueness takes exactly one --eps value")
    eps = cfg["eps"][0]
    pair = branching_pair(cfg["T"], eps, grid, g, cfg=_stepper(cfg))
    directory = Path(cfg["out"]) / (
        f"nonuniqueness_eps{_slug(eps)}_n{cfg['cells']}_T{_slug(cfg['T'])}"
    )
    write_trajectory(pair.falling, directory / "falling")
    write_trajectory(pair.stationary, directory / "stationary")
    write_json(directory / "summary.json", {
        "config": cfg,
        "separation_L2_at_T": pair.separation,
        "falling_residual": dataclasses.asdict(pair.falling_residual),
        "stationary_residual": dataclasses.asdict(pair.stationary_residual),
    })
    print(f"wrote {directory}  separation at T = {pair.separation:.6g}")
    return EXIT_OK


def cmd_validate(cfg) -> int:
    from .invariants import run_all

    results = run_all()
    all_ok = True
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        all_ok &= passed
        print(f"{status}  {name}: {detail}")
    print(f"{sum(1 for _, p, _ in results if p)}/{len(results)} invariants hold")
    return EXIT_OK if all_ok else EXIT_NUMERIC


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep-eps": cmd_sweep_eps,
    "tension": cmd_tension,
    "counterexample": cmd_counterexample,
    "nonuniqueness": cmd_nonuniqueness,
    "validate": cmd_validate,
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
    except (SolverFailure, StepRejected, InversionError, TensionSolveError,
            UnderResolvedError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, ContractError, RunFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
