import argparse
import json
import re
import shutil
from pathlib import Path

import pytest

import numpy as np

from whipflow import (GravitySpec, Grid, RegularizedMap, read_run, report,
                      write_run)
from whipflow import cli
from whipflow.cli import (_COMMANDS, build_parser, main, resolve_config,
                          settings_of)
from whipflow.diagnostics import Reporter
from whipflow.run_io import run_directory, run_name

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def out_env(tmp_path, monkeypatch):
    monkeypatch.setenv("WHIPFLOW_OUT", str(tmp_path))
    return tmp_path


def test_simulate_writes_run_and_decays(out_env, only_run_dir):
    code = run_cli("simulate", "--scenario", "vertical_down", "--eps", "1e-2",
                   "--cells", "80", "--T", "0.5")
    assert code == 0
    run_dir = only_run_dir(out_env)
    record = read_run(run_dir)
    assert record.summary["E_rel_final"] < record.summary["E_rel_initial"]
    assert record.summary["failed"] is None
    assert record.config_echo["scenario"] == "vertical_down"


def test_simulate_missing_scenario_is_usage_error(out_env, capsys):
    assert run_cli("simulate") == 1
    assert "scenario" in capsys.readouterr().err


def test_unknown_flag_exits_one(out_env):
    assert run_cli("simulate", "--no-such-flag") == 1


def test_unknown_subcommand_exits_one(out_env):
    assert run_cli("validate") == 1
    assert not any(out_env.iterdir())


def test_unknown_scenario_exits_one(out_env):
    assert run_cli("simulate", "--scenario", "moebius") == 1


def test_simulate_deterministic_and_echo_reproducible(out_env, only_run_dir):
    args = ("simulate", "--scenario", "quarter_circle", "--eps", "1e-2",
            "--cells", "60", "--T", "0.3")
    assert run_cli(*args) == 0
    run_dir = only_run_dir(out_env)
    first = (run_dir / "timeseries.csv").read_bytes()
    assert run_cli(*args) == 0
    assert (run_dir / "timeseries.csv").read_bytes() == first
    # replaying the echoed config reproduces the identical series in the
    # same directory
    assert run_cli("simulate", "--config", str(run_dir / "config.json")) == 0
    assert only_run_dir(out_env) == run_dir
    assert (run_dir / "timeseries.csv").read_bytes() == first


def test_simulate_snapshots_at_the_requested_times(out_env, only_run_dir):
    # evolve stops at every request, so each snapshot is the state at the
    # requested time itself, named by it; a repeated request writes one file
    code = run_cli("simulate", "--scenario", "vertical_down", "--eps", "1e-2",
                   "--cells", "50", "--T", "0.2",
                   "--snapshots", "0.1,0,0.037,0.1")
    assert code == 0
    run_dir = only_run_dir(out_env)
    record = read_run(run_dir)
    times = [s.state.time for s in record.snapshots]
    assert times == [0.0, 0.037, 0.1]
    assert sorted(p.name for p in run_dir.glob("snapshot_t*.csv")) == \
        sorted(f"snapshot_t{'%.17g' % t}.csv" for t in times)
    assert set(times) <= set(record.reports[:, 0].tolist())
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["snapshot_times"] == times
    assert "snapshot_state_times" not in summary


def test_sweep_needs_two_values(out_env):
    assert run_cli("sweep-eps", "--scenario", "quarter_circle",
                   "--eps", "1e-2") == 1


def test_sweep_writes_summary_and_slope(out_env, only_run_dir):
    code = run_cli("sweep-eps", "--scenario", "quarter_circle",
                   "--eps", "1e-2,1e-3", "--cells", "60")
    assert code == 0
    base = only_run_dir(out_env)
    doc = json.loads((base / "sweep_summary.json").read_text())
    assert len(doc["entries"]) == 2
    # each run keeps its eps_<%.17g>/ subdirectory and its own echo
    for entry in doc["entries"]:
        assert entry["dir"] == f"eps_{'%.17g' % entry['eps']}"
        echo = json.loads((base / entry["dir"] / "config.json").read_text())
        assert echo["config"]["eps"] == [entry["eps"]]
    assert doc["strictly_decreasing"] is True
    assert doc["loglog_slope"] > 0.0


def test_sweep_runs_hold_their_snapshots_at_the_same_times(out_env,
                                                           only_run_dir):
    # the runs take different steps at different eps, but each stops at the
    # requested times, so their states there can be compared
    assert run_cli("sweep-eps", "--scenario", "quarter_circle",
                   "--eps", "1e-1,1e-4", "--cells", "60", "--T", "0.05",
                   "--snapshots", "0.01,0.025") == 0
    runs = sorted(only_run_dir(out_env).glob("eps_*"))
    records = [read_run(d) for d in runs]
    assert len(records) == 2
    assert len(records[0].reports) != len(records[1].reports)
    for run_dir, record in zip(runs, records):
        assert [s.state.time for s in record.snapshots] == [0.01, 0.025]
        assert sorted(p.name for p in run_dir.glob("snapshot_t*.csv")) == \
            ["snapshot_t0.01.csv", "snapshot_t0.025000000000000001.csv"]


def test_sweep_identical_eps_identical_records(out_env, capsys):
    # a repeated eps would run twice into one eps_<eps>/ directory and
    # leave the slope undefined, so it is refused before anything is written
    code = run_cli("sweep-eps", "--scenario", "vertical_down",
                   "--eps", "1e-2,1e-2", "--cells", "40", "--T", "0.1")
    assert code == 1
    assert "repeated --eps" in capsys.readouterr().err
    assert not any(out_env.iterdir())


def test_sweep_with_a_failed_run_writes_nulls_not_nan(out_env, only_run_dir):
    # the eps = 1e-4 run fails hard on its first step (as in
    # test_simulate_hard_failure_writes_partial_record); the eps = 1 run
    # finishes
    code = run_cli("sweep-eps", "--scenario", "vertical_up",
                   "--eps", "1e-4,1", "--cells", "100", "--T", "20",
                   "--dt-init", "10", "--dt-min", "10", "--dt-max", "10")
    assert code == 2

    def no_constant(name):
        raise AssertionError(f"sweep_summary.json holds {name}, not JSON")

    base = only_run_dir(out_env)
    doc = json.loads((base / "sweep_summary.json").read_text(),
                     parse_constant=no_constant)
    avgs = {e["eps"]: e["avg_constraint_L1"] for e in doc["entries"]}
    assert avgs[1e-4] is None
    assert avgs[1.0] > 0.0
    assert doc["loglog_slope"] is None
    assert doc["strictly_decreasing"] is None


def test_tension_vertical_down_profile(out_env, only_run_dir):
    assert run_cli("tension", "--scenario", "vertical_down",
                   "--cells", "100") == 0
    lines = (only_run_dir(out_env) / "tension.csv").read_text().splitlines()
    assert lines[0] == "s,sigma"
    for line in lines[1:]:
        s, sigma = map(float, line.split(","))
        assert abs(sigma - s) <= 1e-12


def test_counterexample_table(out_env, capsys, only_run_dir):
    code = run_cli("counterexample", "--alpha0", "1.5707963267948966",
                   "--eps", "0.1,0.05,0.025", "--cells", "2000")
    assert code == 0
    out = capsys.readouterr().out
    assert "ratio" in out
    csv_lines = (only_run_dir(out_env) /
                 "counterexample.csv").read_text().splitlines()
    assert csv_lines[0] == "eps,varsigma_1,bound,ratio"
    ratios = [float(line.split(",")[3]) for line in csv_lines[1:]]
    assert all(r <= 1.0 for r in ratios)
    assert ratios == sorted(ratios)  # tending to one as eps shrinks


def test_counterexample_unresolved_exits_one(out_env, capsys):
    # an under-resolved setting is invalid input: no numeric method ran
    assert run_cli("counterexample", "--eps", "1e-8", "--cells", "10") == 1
    assert capsys.readouterr().err.startswith("error: stiffness")
    assert not any(out_env.iterdir())


def test_nonuniqueness_reports_separation(out_env, only_run_dir):
    code = run_cli("nonuniqueness", "--T", "2.5", "--eps", "1e-2",
                   "--cells", "80")
    assert code == 0
    run_dir = only_run_dir(out_env)
    doc = json.loads((run_dir / "summary.json").read_text())
    assert doc["separation_L2_at_T"] > 0.5
    assert doc["stationary_residual"]["pde_residual_L2"] <= 1e-10
    assert "config" not in doc  # the echo is in config.json
    # the falling branch is a simulate-style run; the stationary one is
    # closed-form and writes nothing
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "config.json", "falling", "summary.json"]
    falling = read_run(run_dir / "falling")
    assert falling.summary["failed"] is None
    assert falling.solver_stats["steps"] == len(falling.reports) - 1
    assert falling.reports[-1, 0] == 2.5
    assert falling.config_echo == json.loads(
        (run_dir / "config.json").read_text())["config"]


def test_nonuniqueness_falling_run_round_trips_with_its_snapshots(
        out_env, only_run_dir):
    assert run_cli("nonuniqueness", "--T", "0.5", "--eps", "1e-2",
                   "--cells", "60", "--snapshots", "0,0.25") == 0
    falling = only_run_dir(out_env) / "falling"
    record = read_run(falling)
    assert [s.state.time for s in record.snapshots] == [0.0, 0.25]
    assert 0.25 in record.reports[:, 0].tolist()
    copy = out_env / "copy"
    write_run(record, copy)
    assert _tree_bytes(copy) == _tree_bytes(falling)


def test_nonuniqueness_horizon_that_takes_no_step_is_named(out_env, capsys):
    # every evolving command refuses it before the run
    for argv in (("nonuniqueness",),
                 ("simulate", "--scenario", "quarter_circle"),
                 ("sweep-eps", "--scenario", "quarter_circle", "--eps",
                  "1e-2,1e-3")):
        assert run_cli(*argv, "--T", "1e-13", "--cells", "20") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --T = 1e-13 takes no step: it must "
                              "exceed evolve's time tolerance 1e-12"), err
        assert not any(out_env.iterdir())


def test_failed_nonuniqueness_leaves_config_and_failure(out_env,
                                                        only_run_dir, capsys):
    # dt pinned at 10 on a stiff map: the first step cannot converge
    argv = ("nonuniqueness", "--eps", "1e-4", "--cells", "100", "--T", "20",
            "--dt-init", "10", "--dt-min", "10", "--dt-max", "10")
    assert run_cli(*argv) == 2
    assert "solver failed: time step underflow" in capsys.readouterr().err
    run_dir = only_run_dir(out_env)
    assert sorted(p.name for p in run_dir.rglob("*")) == [
        "config.json", "config.json", "falling", "summary.json",
        "summary.json", "timeseries.csv"]
    config = json.loads((run_dir / "config.json").read_text())["config"]
    assert run_dir.name == run_name(config)
    summary = json.loads((run_dir / "summary.json").read_text())
    assert set(summary) == {"schema_version", "failed"}
    failed = summary["failed"]
    assert set(failed) == {"reason", "time", "dt", "rejections"}
    assert failed["reason"].startswith("time step underflow at t = 0")
    assert (failed["time"], failed["dt"], failed["rejections"]) == (0.0, 10.0, 1)
    # falling/ keeps what the run reached, the initial state's row, with
    # the same failure marker, as a failed simulate run does
    falling = read_run(run_dir / "falling")
    assert falling.config_echo == config
    assert falling.summary["failed"] == failed
    assert falling.reports[:, 0].tolist() == [0.0]


def test_config_file_roundtrip(out_env, tmp_path):
    config = {"scenario": "vertical_down", "eps": [0.01], "cells": 40,
              "T": 0.1}
    path = tmp_path / "my_config.json"
    path.write_text(json.dumps(config))
    assert run_cli("simulate", "--config", str(path)) == 0
    # flags override the file
    assert run_cli("simulate", "--config", str(path), "--cells", "30") == 0
    cells = sorted(json.loads((d / "config.json").read_text())["config"]["cells"]
                   for d in out_env.iterdir() if d.is_dir())
    assert cells == [30, 40]


def test_config_file_unknown_key(out_env, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": "vertical_down", "bogus": 1}))
    assert run_cli("simulate", "--config", str(path)) == 1
    # the Newton tolerance is a constant of the flow, no longer a setting
    path.write_text(json.dumps({"scenario": "vertical_down", "tol": 1e-10}))
    assert run_cli("simulate", "--config", str(path)) == 1
    # the mollification scales are those of the grid, no longer settings
    path.write_text(json.dumps({"config": {"scenario": "vertical_down",
                                           "mollify_radius": 0.02}}))
    assert run_cli("simulate", "--config", str(path)) == 1


def test_simulate_pendulum_summary_has_positive_rate(out_env, only_run_dir):
    code = run_cli("simulate", "--scenario", "quarter_circle", "--eps",
                   "1e-2", "--cells", "100", "--T", "2")
    assert code == 0
    record = read_run(only_run_dir(out_env))
    fit = record.summary["decay_fit"]
    assert fit is not None and fit["rate"] > 0.0
    assert record.summary["verdicts"]["energy_monotone"]
    assert record.summary["verdicts"]["stretch_bounded"]


def test_no_fit_reaches_a_numpy_linalg_solver(out_env, monkeypatch):
    # the decay fit and the sweep's slope are closed-form lines; LAPACK's
    # least-squares solver would add about a mebibyte to a run's peak memory
    def refused(*args, **kwargs):
        raise AssertionError("a fit called a numpy.linalg solver")

    monkeypatch.setattr("numpy.polyfit", refused)
    monkeypatch.setattr("numpy.linalg.lstsq", refused)
    assert run_cli("simulate", "--scenario", "quarter_circle", "--eps",
                   "1e-2", "--cells", "60", "--T", "2",
                   "--out", str(out_env / "simulate")) == 0
    (run_dir,) = (out_env / "simulate").iterdir()
    assert read_run(run_dir).summary["decay_fit"]["rate"] > 0.0
    assert run_cli("sweep-eps", "--scenario", "quarter_circle",
                   "--eps", "1e-1,1e-2", "--cells", "40", "--T", "0.5",
                   "--out", str(out_env / "sweep")) == 0
    (sweep_dir,) = (out_env / "sweep").iterdir()
    doc = json.loads((sweep_dir / "sweep_summary.json").read_text())
    assert doc["loglog_slope"] > 0.0


def test_simulate_hard_failure_writes_partial_record(out_env, only_run_dir):
    # a single inadmissible giant step cannot be halved below dt_min, so
    # the run fails hard; the partial record with its failure marker must
    # still land on disk
    code = run_cli("simulate", "--scenario", "vertical_up", "--eps", "1e-4",
                   "--cells", "100", "--T", "20", "--dt-init", "10",
                   "--dt-min", "10", "--dt-max", "10")
    assert code == 2
    record = read_run(only_run_dir(out_env))
    assert record.summary["failed"] is not None
    assert "time" in record.summary["failed"]
    assert record.summary["failed"]["reason"].startswith("time step underflow")


def test_failed_run_reports_its_partial_block(out_env, only_run_dir,
                                              monkeypatch):
    # the setting above: the states the run holds when evolve fails (here
    # the initial one alone) are a block that is not full, flushed after
    # the failure
    argv = ("simulate", "--scenario", "vertical_up", "--eps", "1e-4",
            "--cells", "100", "--T", "20", "--dt-init", "10",
            "--dt-min", "10", "--dt-max", "10")
    seen = []
    monkeypatch.setattr(cli, "evolve", _recording(cli.evolve, seen))
    assert run_cli(*argv) == 2
    record = read_run(only_run_dir(out_env))
    rmap = RegularizedMap(1e-4, dim=2)
    g = GravitySpec.down(2)
    assert 0 < len(seen) < len(Reporter(Grid(100), g)._times)
    assert _bits(record.reports) == _bits(_per_state_rows(seen, rmap, g))


def test_run_reports_every_block_as_per_state_reports(out_env, only_run_dir,
                                                      monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "evolve", _recording(cli.evolve, seen))
    assert run_cli("simulate", "--scenario", "random_lipschitz", "--eps",
                   "1e-2", "--cells", "2000", "--T", "0.05") == 0
    record = read_run(only_run_dir(out_env))
    rmap = RegularizedMap(1e-2, dim=2)
    g = GravitySpec.down(2)
    assert len(seen) > 3 * len(Reporter(Grid(2000), g)._times)
    assert _bits(record.reports) == _bits(_per_state_rows(seen, rmap, g))


@pytest.mark.parametrize("argv", [
    ("simulate", "--scenario", "quarter_circle"),
    ("nonuniqueness",),
])
def test_each_run_evaluates_its_start_once(out_env, only_run_dir,
                                           monkeypatch, argv):
    # with no rejection and no line-search halving, each Newton iteration
    # evaluates one trial and the run its initial state once more, and
    # the report, the snapshots and the residual read the handed flux:
    # every radial inversion is one of those local_calculus calls
    calls = {"_invert_radial": 0, "local_calculus": 0, "invert": 0}
    for name in calls:
        method = getattr(RegularizedMap, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(RegularizedMap, name, counted)
    assert run_cli(*argv, "--eps", "1e-2", "--cells", "80", "--T", "0.3",
                   "--snapshots", "0,0.15") == 0
    run_dir = only_run_dir(out_env)
    record = read_run(run_dir / "falling" if argv[0] == "nonuniqueness"
                      else run_dir)
    stats = record.solver_stats
    assert stats["rejections"] == 0 and len(record.snapshots) == 2
    assert calls["invert"] == 0
    assert calls["_invert_radial"] == calls["local_calculus"] \
        == stats["newton_iterations"] + 1


def _recording(evolve, seen):
    """evolve, appending every (state, dt, iters) its observer sees, the
    initial state first, to ``seen``."""

    def recording_evolve(init, horizon, rmap, g, cfg, observer, stats,
                         **kwargs):
        def recording_observer(state, dt, iters, *args):
            seen.append((state, dt, iters))
            observer(state, dt, iters, *args)

        return evolve(init, horizon, rmap, g, cfg, observer=recording_observer,
                      stats=stats, **kwargs)

    return recording_evolve


def _per_state_rows(seen, rmap, g):
    """The timeseries rows of observed (state, dt, iters): each state's
    report() fields, then its dt and Newton iterations."""
    return [[*report(state, rmap, g).values(), dt, iters]
            for state, dt, iters in seen]


def _bits(rows):
    return np.asarray(rows, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("config", [
    {"scenario": "vertical_down", "cells": "40", "T": 0.1},
    {"scenario": "vertical_down", "cells": 40, "T": "0.1"},
    {"scenario": "vertical_down", "cells": 40, "T": 0.1, "dim": 4},
])
def test_config_file_wrong_type_exits_one(out_env, tmp_path, config, capsys):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(config))
    assert run_cli("simulate", "--config", str(path)) == 1
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("tension", "--scenario", "vertical_down", "--T", "1"),
    ("counterexample", "--dt-max", "1"),
    ("nonuniqueness", "--scenario", "vertical_up"),
    ("simulate", "--scenario", "vertical_down", "--mollify-radius", "0.05"),
])
def test_flag_outside_the_commands_row_exits_one(out_env, argv):
    assert run_cli(*argv) == 1


# an eps whose map (or, for counterexample, whose square) cannot be built
OUT_OF_RANGE_EPS_RUNS = [
    ("simulate", "--scenario", "quarter_circle", "--cells", "20", "--T",
     "0.05", "--eps", "1e-300"),
    ("simulate", "--scenario", "quarter_circle", "--cells", "20", "--T",
     "0.05", "--eps", "1e300"),
    ("sweep-eps", "--scenario", "quarter_circle", "--cells", "20", "--T",
     "0.05", "--eps", "1e-2,1e-300"),
    ("nonuniqueness", "--cells", "20", "--T", "0.05", "--eps", "1e-300"),
    ("counterexample", "--eps", "1e300"),
]

# an eps outside the map's domain [1e-14, 4.6e4], and an alpha0 whose
# counterexample bound overflows at an eps in it
OUT_OF_DOMAIN_RUNS = [
    ("simulate", "--scenario", "quarter_circle", "--cells", "20", "--T",
     "0.01", "--eps", "5e-15"),
    ("counterexample", "--eps", "1e-160"),
    ("counterexample", "--alpha0", "1e-300", "--cells", "20"),
    ("counterexample", "--alpha0", "1e-160", "--cells", "20"),
]


@pytest.mark.parametrize("argv", [
    ("counterexample", "--eps", "1e-2,abc"),
    ("counterexample", "--eps", ","),
    ("tension", "--scenario", "vertical_down", "--cells", "1"),
    ("simulate", "--scenario", "vertical_down", "--eps", "1e-2,1e-3"),
    ("nonuniqueness", "--eps", "1e-2,1e-3"),
    ("counterexample", "--eps", "0.1,,0.05"),
    ("counterexample", "--eps", "0.1,"),
    ("simulate", "--scenario", "vertical_down", "--snapshots", ","),
    ("simulate", "--scenario", "quarter_circle", "--eps", "-1", "--cells",
     "20", "--T", "0.05"),
    ("sweep-eps", "--scenario", "quarter_circle", "--eps", "0,1e-2",
     "--cells", "20", "--T", "0.05"),
    ("nonuniqueness", "--eps", "0"),
    ("simulate", "--scenario", "vertical_down", "--eps", "1e-2", "--T", "-1",
     "--cells", "20"),
    ("simulate", "--scenario", "vertical_down", "--eps", "1e-2", "--T", "0",
     "--cells", "20"),
    ("sweep-eps", "--scenario", "vertical_down", "--eps", "1e-2,1e-3",
     "--T", "-1", "--cells", "20"),
    ("sweep-eps", "--scenario", "vertical_down", "--eps", "1e-2,1e-3",
     "--T", "0", "--cells", "20"),
    ("simulate", "--scenario", "vertical_down", "--cells", "20", "--T",
     "0.05", "--dt-init", "1"),
    ("sweep-eps", "--scenario", "vertical_down", "--eps", "1e-2,1e-3",
     "--cells", "20", "--T", "0.05", "--dt-init", "1"),
    ("simulate", "--scenario", "helix", "--cells", "20"),
    ("simulate", "--scenario", "random_lipschitz", "--seed", "-1",
     "--cells", "20"),
    ("simulate", "--scenario", "helix", "--dim", "3", "--geom-eps", "0",
     "--cells", "20"),
    ("tension", "--scenario", "helix", "--dim", "3", "--geom-eps", "0",
     "--cells", "50"),
    ("simulate", "--scenario", "vertical_down", "--cells", "20", "--T",
     "0.05", "--snapshots", "-1"),
    ("simulate", "--scenario", "vertical_down", "--cells", "20", "--T",
     "0.05", "--snapshots", "5"),
    ("nonuniqueness", "--T", "1e-13", "--cells", "20"),
    *OUT_OF_RANGE_EPS_RUNS,
    *OUT_OF_DOMAIN_RUNS,
    ("simulate", "--scenario", "quarter_circle", "--T", "1e-13", "--cells",
     "20"),
    ("sweep-eps", "--scenario", "quarter_circle", "--eps", "1e-2,1e-3",
     "--T", "1e-13", "--cells", "20"),
    ("nonuniqueness", "--cells", "20", "--T", "0.05", "--snapshots", "0.1"),
    # a time within evolve's time tolerance of the start, of another
    # requested time or of the horizon: no state would carry the later one
    ("simulate", "--scenario", "quarter_circle", "--cells", "20", "--T",
     "0.1", "--snapshots", "1e-13"),
    ("nonuniqueness", "--cells", "20", "--T", "0.05", "--snapshots",
     "0.02,0.0200000000001"),
    ("simulate", "--scenario", "quarter_circle", "--cells", "20", "--T",
     "0.1", "--snapshots", "0.0999999999999"),
])
def test_invalid_setting_value_exits_one_and_writes_nothing(out_env, argv,
                                                            capsys):
    assert run_cli(*argv) == 1
    assert "error:" in capsys.readouterr().err
    assert not any(out_env.iterdir())


@pytest.mark.parametrize("argv", OUT_OF_RANGE_EPS_RUNS)
def test_out_of_range_eps_is_named(out_env, argv, capsys):
    assert run_cli(*argv) == 1
    assert re.match(r"error: eps (= 1e[+-]300|must be)",
                    capsys.readouterr().err)


@pytest.mark.parametrize("argv", OUT_OF_DOMAIN_RUNS)
def test_out_of_domain_setting_is_named(out_env, argv, capsys):
    assert run_cli(*argv) == 1
    assert re.match(r"error: (eps|alpha0) = ", capsys.readouterr().err)


def test_simulate_writes_its_config_once(out_env, only_run_dir, monkeypatch):
    writes = []
    write_text = Path.write_text

    def counting(path, *args, **kwargs):
        writes.append(path.name)
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", counting)
    assert run_cli("simulate", "--scenario", "vertical_down", "--cells", "20",
                   "--T", "0.05") == 0
    assert writes.count("config.json") == 1
    record = read_run(only_run_dir(out_env))
    assert record.config_echo["scenario"] == "vertical_down"


def _csv_rows(path):
    """The rows of a CSV file that run_io wrote, as lists of strings."""
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


@pytest.mark.parametrize("argv", [
    ("--scenario", "random_lipschitz", "--cells", "100", "--T", "0.05",
     "--snapshots", "0,0.013,0.05"),
    ("--scenario", "helix", "--dim", "3", "--cells", "400", "--T", "0.05",
     "--snapshots", "0,0.02,0.05"),
], ids=["2d", "3d"])
def test_snapshot_end_tension_is_the_timeseries_sigma_at_1(out_env, argv,
                                                          only_run_dir):
    # the snapshot (one curve) and the timeseries row (a reporter block) get
    # sigma from the same flow_tensions, so sigma(1) prints alike
    assert run_cli("simulate", *argv) == 0
    run_dir = only_run_dir(out_env)
    header = (run_dir / "timeseries.csv").read_text().splitlines()[0]
    column = header.split(",").index("sigma_at_1")
    sigma_at_1 = {float(row[0]): row[column]
                  for row in _csv_rows(run_dir / "timeseries.csv")}
    snapshots = sorted(run_dir.glob("snapshot_t*.csv"))
    assert len(snapshots) == 3
    for path in snapshots:
        t = float(path.name[len("snapshot_t"):-len(".csv")])
        assert _csv_rows(path)[-1][-1] == sigma_at_1[t]


def test_snapshot_times_at_both_ends_of_the_horizon_are_taken(out_env,
                                                            only_run_dir):
    assert run_cli("simulate", "--scenario", "vertical_down", "--cells", "20",
                   "--T", "0.05", "--snapshots", "0,0.05") == 0
    record = read_run(only_run_dir(out_env))
    assert [s.state.time for s in record.snapshots] == [0.0, 0.05]


def test_unresolved_helix_exits_one_and_writes_nothing(out_env, capsys):
    # 2 pi * 1e-3 per turn on h = 0.05: the chords would skip whole turns
    assert run_cli("tension", "--scenario", "helix", "--dim", "3",
                   "--alpha0", "1.0", "--geom-eps", "1e-3", "--cells", "20") == 1
    assert capsys.readouterr().err.startswith("error: a helix turn")
    assert not any(out_env.iterdir())


@pytest.mark.parametrize("text, message", [
    ('{"scenario": "vertical_down",', "invalid config JSON"),
    ('["vertical_down"]', "must hold a JSON object"),
], ids=["not_json", "top_level_list"])
def test_unreadable_config_file_exits_one(out_env, tmp_path, text, message,
                                          capsys):
    path = tmp_path / "broken.json"
    path.write_text(text)
    assert run_cli("simulate", "--config", str(path)) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("simulate", "--scenario", "vertical_down", "--cells", "20", "--T", "nan"),
    ("nonuniqueness", "--cells", "20", "--T", "0.01", "--dt-max", "inf"),
])
def test_non_finite_value_exits_one(out_env, argv, capsys):
    assert run_cli(*argv) == 1
    assert "finite" in capsys.readouterr().err


def test_config_key_outside_the_commands_row_exits_one(out_env, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "vertical_down", "T": 1.0}))
    assert run_cli("tension", "--config", str(path)) == 1


def test_each_subparser_takes_exactly_its_row():
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, sub in subparsers.choices.items():
        dests = {a.dest for a in sub._actions} - {"help"}
        row = {s.name for s in settings_of(command)}
        assert dests == row | {"config"}, command


def test_readme_command_line_section_matches_the_parser():
    section = README.read_text().split("\n## Command line\n")[1]
    section = section.split("\n## ")[0]
    block = section.split("```sh\n")[1].split("```")[0]
    listed = [line.split()[1] for line in block.splitlines()]
    assert sorted(listed) == sorted(_COMMANDS)
    documented = {}
    for names, text in re.findall(r"^- (`[^:]*`): (.*?)(?=^- |^$)", section,
                                  re.M | re.S):
        for command in re.findall(r"`([\w-]+)`", names):
            documented[command] = set(re.findall(r"--([\w-]+)", text))
    assert documented == {
        command: {s.name.replace("_", "-") for s in settings_of(command)}
        | {"config"}
        for command in _COMMANDS
    }


# a small run of each subcommand that writes a directory
WRITING_RUNS = {
    "simulate": ("simulate", "--scenario", "vertical_down", "--cells", "20",
                 "--T", "0.05"),
    "sweep-eps": ("sweep-eps", "--scenario", "vertical_down",
                  "--eps", "1e-2,1e-3", "--cells", "20", "--T", "0.02"),
    "tension": ("tension", "--scenario", "vertical_down", "--cells", "40"),
    "counterexample": ("counterexample", "--eps", "0.1", "--cells", "400"),
    "nonuniqueness": ("nonuniqueness", "--T", "0.2", "--eps", "1e-2",
                      "--cells", "40"),
}


@pytest.mark.parametrize("command", WRITING_RUNS)
def test_echo_holds_exactly_the_commands_row(out_env, command, only_run_dir):
    argv = WRITING_RUNS[command]
    assert run_cli(*argv) == 0
    run_dir = only_run_dir(out_env)
    assert re.fullmatch(f"{command}-[0-9a-f]{{12}}", run_dir.name)
    config = json.loads((run_dir / "config.json").read_text())["config"]
    assert set(config) == {s.name for s in settings_of(command)} | {"command"}
    assert config["command"] == command
    assert run_dir.name == run_name(config)


@pytest.mark.parametrize("command", WRITING_RUNS)
def test_unusable_out_root_exits_one(tmp_path, command, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    argv = (*WRITING_RUNS[command], "--out", str(blocker / "sub"))
    assert run_cli(*argv) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "nonuniqueness"])
def test_config_path_that_is_a_directory_exits_one(out_env, command, capsys):
    assert run_cli(command, "--config", str(out_env)) == 1
    assert "error" in capsys.readouterr().err


def _resolve(*argv):
    return resolve_config(build_parser().parse_args(list(argv)))


def _other_value(setting, value) -> str:
    """A flag value for ``setting`` that differs from ``value``."""
    if setting.choices is not None:
        return str(next(c for c in setting.choices if c != value))
    if setting.kind is list:
        # valid as eps and as snapshot times within sweep-eps's T = 0.1
        return "0.05,0.025"
    return repr(value + 1)


@pytest.mark.parametrize("command", WRITING_RUNS)
def test_each_setting_changes_the_run_name(out_env, command):
    base = [command]
    if "scenario" in {s.name for s in settings_of(command)}:
        base += ["--scenario", "quarter_circle"]
    cfg = _resolve(*base)
    names = {run_name(cfg)}
    rows = [s for s in settings_of(command) if s.name != "out"]
    for s in rows:
        flag = "--" + s.name.replace("_", "-")
        changed = _resolve(*base, flag, _other_value(s, cfg[s.name]))
        assert changed[s.name] != cfg[s.name], s.name
        names.add(run_name(changed))
    assert len(names) == len(rows) + 1
    # the output root is where the directory goes, not part of its name
    assert run_name(_resolve(*base, "--out", "elsewhere")) == run_name(cfg)


def test_flags_config_file_and_echo_name_one_directory(out_env):
    flags = _resolve("simulate", "--scenario", "quarter_circle", "--T", "8",
                     "--eps", "1e-2")
    path = out_env / "cfg.json"
    path.write_text(json.dumps({"scenario": "quarter_circle", "T": 8,
                                "eps": 0.01}))
    from_file = _resolve("simulate", "--config", str(path))
    echo = run_directory(flags) / "config.json"
    replayed = _resolve("simulate", "--config", str(echo))
    assert from_file == flags == replayed
    assert run_name(from_file) == run_name(replayed) == echo.parent.name


def test_runs_differing_in_alpha0_keep_both_tensions(out_env):
    for alpha0 in ("0.5", "1.0"):
        assert run_cli("tension", "--scenario", "straight_angle",
                       "--cells", "50", "--alpha0", alpha0) == 0
    ends = sorted(
        "%.6g" % float((d / "tension.csv").read_text().split()[-1]
                       .split(",")[1])
        for d in out_env.iterdir())
    assert ends == ["0.540302", "0.877583"]


def test_runs_differing_in_seed_keep_their_own_snapshots(out_env):
    common = ("simulate", "--scenario", "random_lipschitz", "--eps", "1e-2",
              "--cells", "40", "--T", "0.03")
    assert run_cli(*common, "--seed", "0", "--snapshots", "0.01,0.02") == 0
    assert run_cli(*common, "--seed", "1") == 0
    by_seed = {json.loads((d / "config.json").read_text())["config"]["seed"]: d
               for d in out_env.iterdir()}
    assert sorted(by_seed) == [0, 1]
    assert len(list(by_seed[0].glob("snapshot_t*.csv"))) == 2
    assert not list(by_seed[1].glob("snapshot_t*.csv"))


def _tree_bytes(directory):
    return {path.relative_to(directory): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("argv", [
    ("tension", "--scenario", "helix", "--dim", "3", "--cells", "60",
     "--alpha0", "1.2", "--geom-eps", "0.2"),
    ("nonuniqueness", "--T", "0.2", "--eps", "1e-2", "--cells", "40",
     "--dt-max", "0.01"),
], ids=("tension", "nonuniqueness"))
def test_replaying_an_echo_reproduces_the_bytes(out_env, argv, only_run_dir):
    assert run_cli(*argv) == 0
    directory = only_run_dir(out_env)
    first = _tree_bytes(directory)
    replay = out_env / "replay.json"
    replay.write_bytes((directory / "config.json").read_bytes())
    shutil.rmtree(directory)
    assert run_cli(argv[0], "--config", str(replay)) == 0
    assert only_run_dir(out_env) == directory
    assert _tree_bytes(directory) == first


def test_summary_counts_which_newton_exit_accepted_each_step(out_env,
                                                            only_run_dir):
    # on 1500 cells this release accepts most steps by the residual test
    # and a few by the Newton decrement
    assert run_cli("simulate", "--scenario", "random_lipschitz", "--eps",
                   "1e-2", "--cells", "1500", "--T", "0.1") == 0
    run_dir = only_run_dir(out_env)
    stats = json.loads((run_dir / "summary.json").read_text())["solver_stats"]
    assert stats["residual_exits"] > 0 and stats["decrement_exits"] > 0
    assert stats["residual_exits"] + stats["decrement_exits"] == stats["steps"]
    copy = out_env / "copy"
    write_run(read_run(run_dir), copy)
    assert _tree_bytes(copy) == _tree_bytes(run_dir)
