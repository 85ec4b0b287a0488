import argparse
import json
import shutil

import pytest

from whipflow import read_run
from whipflow.cli import build_parser, main, settings_of


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def out_env(tmp_path, monkeypatch):
    monkeypatch.setenv("WHIPFLOW_OUT", str(tmp_path))
    return tmp_path


def test_simulate_writes_run_and_decays(out_env):
    code = run_cli("simulate", "--scenario", "vertical_down", "--eps", "1e-2",
                   "--cells", "80", "--T", "0.5")
    assert code == 0
    run_dir = out_env / "simulate_vertical_down_eps0.01_n80_T0.5"
    record = read_run(run_dir)
    assert record.summary["E_rel_final"] < record.summary["E_rel_initial"]
    assert record.summary["failed"] is None
    assert record.config_echo["scenario"] == "vertical_down"


def test_simulate_missing_scenario_is_usage_error(out_env, capsys):
    assert run_cli("simulate") == 1
    assert "scenario" in capsys.readouterr().err


def test_unknown_flag_exits_one(out_env):
    assert run_cli("simulate", "--no-such-flag") == 1


def test_unknown_scenario_exits_one(out_env):
    assert run_cli("simulate", "--scenario", "moebius") == 1


def test_simulate_deterministic_and_echo_reproducible(out_env):
    args = ("simulate", "--scenario", "quarter_circle", "--eps", "1e-2",
            "--cells", "60", "--T", "0.3")
    assert run_cli(*args) == 0
    run_dir = out_env / "simulate_quarter_circle_eps0.01_n60_T0.3"
    first = (run_dir / "timeseries.csv").read_bytes()
    assert run_cli(*args) == 0
    assert (run_dir / "timeseries.csv").read_bytes() == first
    # replaying the echoed config reproduces the identical series
    assert run_cli("simulate", "--config", str(run_dir / "config.json")) == 0
    assert (run_dir / "timeseries.csv").read_bytes() == first


def test_simulate_snapshots_nearest_steps(out_env):
    code = run_cli("simulate", "--scenario", "vertical_down", "--eps", "1e-2",
                   "--cells", "50", "--T", "0.2", "--snapshots", "0,0.1")
    assert code == 0
    run_dir = out_env / "simulate_vertical_down_eps0.01_n50_T0.2"
    record = read_run(run_dir)
    assert len(record.snapshots) == 2
    times = [s.t for s in record.snapshots]
    assert times[0] == 0.0
    assert abs(times[1] - 0.1) <= 0.02  # within one step of the request


def test_sweep_needs_two_values(out_env):
    assert run_cli("sweep-eps", "--scenario", "quarter_circle",
                   "--eps", "1e-2") == 1


def test_sweep_writes_summary_and_slope(out_env):
    code = run_cli("sweep-eps", "--scenario", "quarter_circle",
                   "--eps", "1e-2,1e-3", "--cells", "60")
    assert code == 0
    base = out_env / "sweep_quarter_circle_n60_T0.1"
    doc = json.loads((base / "sweep_summary.json").read_text())
    assert len(doc["entries"]) == 2
    assert doc["strictly_decreasing"] is True
    assert doc["loglog_slope"] > 0.0


def test_sweep_identical_eps_identical_records(out_env):
    code = run_cli("sweep-eps", "--scenario", "vertical_down",
                   "--eps", "1e-2,1e-2", "--cells", "40", "--T", "0.1")
    assert code == 0
    base = out_env / "sweep_vertical_down_n40_T0.1"
    doc = json.loads((base / "sweep_summary.json").read_text())
    assert doc["entries"][0]["avg_constraint_L1"] == \
        doc["entries"][1]["avg_constraint_L1"]
    assert doc["loglog_slope"] is None


def test_tension_vertical_down_profile(out_env):
    assert run_cli("tension", "--scenario", "vertical_down",
                   "--cells", "100") == 0
    lines = (out_env / "tension_vertical_down_n100" /
             "tension.csv").read_text().splitlines()
    assert lines[0] == "s,sigma"
    for line in lines[1:]:
        s, sigma = map(float, line.split(","))
        assert abs(sigma - s) <= 1e-12


def test_counterexample_table(out_env, capsys):
    code = run_cli("counterexample", "--alpha0", "1.5707963267948966",
                   "--eps", "0.1,0.05,0.025", "--cells", "2000")
    assert code == 0
    out = capsys.readouterr().out
    assert "ratio" in out
    csv_lines = (out_env / "counterexample_alpha1.5708" /
                 "counterexample.csv").read_text().splitlines()
    assert csv_lines[0] == "eps,varsigma_1,bound,ratio"
    ratios = [float(line.split(",")[3]) for line in csv_lines[1:]]
    assert all(r <= 1.0 for r in ratios)
    assert ratios == sorted(ratios)  # tending to one as eps shrinks


def test_counterexample_unresolved_exits_two(out_env):
    assert run_cli("counterexample", "--eps", "1e-8", "--cells", "10") == 2


def test_nonuniqueness_reports_separation(out_env):
    code = run_cli("nonuniqueness", "--T", "2.5", "--eps", "1e-2",
                   "--cells", "80")
    assert code == 0
    doc = json.loads((out_env / "nonuniqueness_eps0.01_n80_T2.5" /
                      "summary.json").read_text())
    assert doc["separation_L2_at_T"] > 0.5
    assert doc["stationary_residual"]["pde_residual_L2"] <= 1e-10
    assert (out_env / "nonuniqueness_eps0.01_n80_T2.5" / "falling" /
            "index.json").exists()


def test_config_file_roundtrip(out_env, tmp_path):
    config = {"scenario": "vertical_down", "eps": [0.01], "cells": 40,
              "T": 0.1}
    path = tmp_path / "my_config.json"
    path.write_text(json.dumps(config))
    assert run_cli("simulate", "--config", str(path)) == 0
    # flags override the file
    assert run_cli("simulate", "--config", str(path), "--cells", "30") == 0
    assert (out_env / "simulate_vertical_down_eps0.01_n30_T0.1").exists()


def test_config_file_unknown_key(out_env, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": "vertical_down", "bogus": 1}))
    assert run_cli("simulate", "--config", str(path)) == 1


def test_simulate_pendulum_summary_has_positive_rate(out_env):
    code = run_cli("simulate", "--scenario", "quarter_circle", "--eps",
                   "1e-2", "--cells", "100", "--T", "2")
    assert code == 0
    record = read_run(out_env / "simulate_quarter_circle_eps0.01_n100_T2")
    fit = record.summary["decay_fit"]
    assert fit is not None and fit["rate"] > 0.0
    assert record.summary["verdicts"]["energy_monotone"]
    assert record.summary["verdicts"]["stretch_bounded"]


def test_validate_command_passes(out_env, capsys):
    assert run_cli("validate") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "invariants hold" in out


def test_simulate_hard_failure_writes_partial_record(out_env):
    # a single inadmissible giant step cannot be halved below dt_min, so
    # the run fails hard; the partial record with its failure marker must
    # still land on disk
    code = run_cli("simulate", "--scenario", "vertical_up", "--eps", "1e-4",
                   "--cells", "100", "--T", "20", "--dt-init", "10",
                   "--dt-min", "10", "--dt-max", "10",
                   "--mollify-radius", "0.05", "--taper-width", "0.08")
    assert code == 2
    record = read_run(out_env / "simulate_vertical_up_eps0.0001_n100_T20")
    assert record.summary["failed"] is not None
    assert "time" in record.summary["failed"]


@pytest.mark.parametrize("config", [
    {"scenario": "vertical_down", "cells": "40", "T": 0.1},
    {"scenario": "vertical_down", "cells": 40, "T": "0.1"},
])
def test_config_file_wrong_type_exits_one(out_env, tmp_path, config, capsys):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(config))
    assert run_cli("simulate", "--config", str(path)) == 1
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("validate", "--eps", "1"),
    ("tension", "--scenario", "vertical_down", "--T", "1"),
    ("counterexample", "--dt-max", "1"),
    ("nonuniqueness", "--mollify-radius", "0.1"),
])
def test_flag_outside_the_commands_row_exits_one(out_env, argv):
    assert run_cli(*argv) == 1


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
        assert dests == (row | {"config"} if row else set()), command


@pytest.mark.parametrize("argv, echo", [
    (("tension", "--scenario", "vertical_down", "--cells", "40"),
     "tension_vertical_down_n40/config.json"),
    (("counterexample", "--eps", "0.1", "--cells", "400"),
     "counterexample_alpha1.5708/config.json"),
    (("nonuniqueness", "--T", "0.2", "--eps", "1e-2", "--cells", "40"),
     "nonuniqueness_eps0.01_n40_T0.2/summary.json"),
])
def test_echo_holds_exactly_the_commands_row(out_env, argv, echo):
    assert run_cli(*argv) == 0
    config = json.loads((out_env / echo).read_text())["config"]
    assert set(config) == {s.name for s in settings_of(argv[0])} | {"command"}
    assert config["command"] == argv[0]


def _tree_bytes(directory):
    return {path.relative_to(directory): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("argv, echo", [
    (("tension", "--scenario", "helix", "--dim", "3", "--cells", "60",
      "--alpha0", "1.2", "--geom-eps", "0.2"),
     "tension_helix_n60/config.json"),
    (("nonuniqueness", "--T", "0.2", "--eps", "1e-2", "--cells", "40",
      "--dt-max", "0.01"),
     "nonuniqueness_eps0.01_n40_T0.2/summary.json"),
])
def test_replaying_an_echo_reproduces_the_bytes(out_env, argv, echo):
    assert run_cli(*argv) == 0
    directory = (out_env / echo).parent
    first = _tree_bytes(directory)
    replay = out_env / "replay.json"
    replay.write_bytes((out_env / echo).read_bytes())
    shutil.rmtree(directory)
    assert run_cli(argv[0], "--config", str(replay)) == 0
    assert _tree_bytes(directory) == first
