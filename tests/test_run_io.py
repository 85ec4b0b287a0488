import json
import re
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from whipflow import (ArcState, GravitySpec, Grid, RunRecord, Snapshot,
                      TensionProfile, read_run, write_run)
from whipflow import run_io
from whipflow.errors import RunFormatError, SchemaVersionError, ShapeError
from whipflow.run_io import (TABLE_CHUNK_FLOATS, TIMESERIES_COLUMNS,
                             records_equal, write_table, write_trajectory)


def timeseries(*rows):
    """A timeseries table of the given rows of TIMESERIES_COLUMNS."""
    return np.array(rows, dtype=float).reshape(-1, len(TIMESERIES_COLUMNS))


def random_record(rng, tag=0):
    rows = []
    t = 0.0
    for _ in range(int(rng.integers(0, 8))):
        values = rng.normal(size=11).tolist()
        t += float(rng.uniform(1e-4, 0.7))
        values[0] = t
        # the step's dt and Newton iterations
        rows.append([*values, float(rng.uniform(1e-6, 0.1)),
                     int(rng.integers(0, 25))])
    snapshots = []
    for _ in range(int(rng.integers(0, 3))):
        n = int(rng.integers(4, 16))
        d = int(rng.choice([2, 3]))
        grid = Grid(n)
        positions = rng.normal(size=(n + 1, d))
        positions[-1] = 0.0
        sigma = rng.normal(size=n + 1)
        sigma[0] = 0.0
        snapshots.append(Snapshot(
            state=ArcState(grid=grid, positions=positions,
                           time=float(rng.uniform(0.0, 10.0))),
            tension=TensionProfile(grid=grid, values=sigma),
        ))
    snapshots.sort(key=lambda s: s.state.time)
    return RunRecord(
        config_echo={"tag": tag, "eps": [float(rng.uniform(1e-4, 1.0))],
                     "scenario": "quarter_circle"},
        reports=timeseries(*rows),
        snapshots=snapshots,
        solver_stats={"steps": len(rows), "rejections": int(rng.integers(0, 4))},
        summary={"note": "randomized", "value": float(rng.normal())},
    )


def test_round_trip_100_randomized_records(tmp_path):
    rng = np.random.default_rng(2024)
    for k in range(100):
        record = random_record(rng, tag=k)
        directory = tmp_path / f"run{k}"
        write_run(record, directory)
        assert records_equal(record, read_run(directory))


def _first_snapshot_moved(record, dt=0.0, dx=0.0, dsigma=0.0):
    snap = record.snapshots[0]
    grid = snap.state.grid
    positions = snap.state.positions.copy()
    positions[0, 0] += dx
    values = snap.tension.values.copy()
    values[1] += dsigma
    moved = Snapshot(
        state=ArcState(grid=grid, positions=positions,
                       time=snap.state.time + dt),
        tension=TensionProfile(grid=grid, values=values),
    )
    return replace(record, snapshots=[moved, *record.snapshots[1:]])


def _first_row_changed(record, column, change):
    """The record with ``change`` applied to its first row's cell in
    ``column``."""
    table = record.reports.copy()
    k = TIMESERIES_COLUMNS.index(column)
    table[0, k] = change(table[0, k])
    return replace(record, reports=table)


PERTURBATIONS = {
    "config_echo": lambda r: replace(r, config_echo={**r.config_echo,
                                                     "tag": -1}),
    "summary": lambda r: replace(r, summary={**r.summary, "value":
                                             r.summary["value"] + 1.0}),
    "solver_stats": lambda r: replace(r, solver_stats={
        **r.solver_stats, "steps": r.solver_stats["steps"] + 1}),
    # a report field, the step's dt and its Newton iterations: table cells
    "report_field": lambda r: _first_row_changed(r, "E", lambda x: x + 1.0),
    "step_dts": lambda r: _first_row_changed(r, "dt", lambda x: 2.0 * x),
    "step_newton_iters": lambda r: _first_row_changed(r, "newton_iters",
                                                      lambda x: x + 1),
    "snapshot_count": lambda r: replace(r, snapshots=r.snapshots[:-1]),
    "snapshot_time": lambda r: _first_snapshot_moved(r, dt=1.0),
    "position": lambda r: _first_snapshot_moved(r, dx=1.0),
    "tension": lambda r: _first_snapshot_moved(r, dsigma=1.0),
}


@pytest.mark.parametrize("field", PERTURBATIONS)
def test_records_equal_sees_each_compared_field(tmp_path, field):
    rng = np.random.default_rng(11)
    record = random_record(rng)
    while not (len(record.reports) and record.snapshots):
        record = random_record(rng)
    write_run(record, tmp_path)
    back = read_run(tmp_path)
    assert records_equal(record, back)
    assert not records_equal(record, PERTURBATIONS[field](back))


def _with_first_report_E(record, value):
    return _first_row_changed(record, "E", lambda _: value)


def _record_with_reports(rng):
    record = random_record(rng)
    while not len(record.reports):
        record = random_record(rng)
    return record


def test_records_equal_tells_negative_zero_from_zero():
    # write_table prints -0.0 as "-0", so the two records write different
    # bytes
    record = _record_with_reports(np.random.default_rng(5))
    assert not records_equal(_with_first_report_E(record, 0.0),
                             _with_first_report_E(record, -0.0))


def test_record_holding_nan_equals_its_read_back(tmp_path):
    record = _with_first_report_E(
        _record_with_reports(np.random.default_rng(6)), float("nan"))
    write_run(record, tmp_path)
    assert records_equal(record, read_run(tmp_path))
    assert records_equal(record, _with_first_report_E(record, -float("nan")))


def test_empty_reports_header_only(tmp_path):
    record = RunRecord(config_echo={"eps": [0.1]})
    write_run(record, tmp_path)
    lines = (tmp_path / "timeseries.csv").read_text().splitlines()
    assert lines == [",".join(TIMESERIES_COLUMNS)]
    assert records_equal(record, read_run(tmp_path))


def test_snapshot_of_equilibrium_has_pinned_last_row(tmp_path):
    grid = Grid(4)
    positions = np.zeros((5, 2))
    positions[:, 1] = -(1.0 - grid.nodes)  # (1-s) g with g = (0,-1)
    record = RunRecord(
        config_echo={},
        snapshots=[Snapshot(
            state=ArcState(grid=grid, positions=positions),
            tension=TensionProfile(grid=grid, values=grid.nodes),
        )],
    )
    write_run(record, tmp_path)
    lines = (tmp_path / "snapshot_t0.csv").read_text().splitlines()
    assert len(lines) == 6  # header + 5 nodes
    last = lines[-1].split(",")
    assert float(last[1]) == 0.0 and float(last[2]) == 0.0


@pytest.mark.parametrize("edit, line, message", [
    (lambda lines: lines[:1], 1, "0 node rows"),
    (lambda lines: lines[:-1] + ["1,0.25,0,0.5"], 6,
     "pinned exactly at the origin"),
    (lambda lines: lines[:2] + ["0.25,nan,-0.75,0.25"] + lines[3:], 3,
     "non-finite"),
    (lambda lines: [lines[0], "0,0,-1,0.125"] + lines[2:], 2,
     "vanish at s = 0"),
    (lambda lines: lines[:3] + ["0.5,0,-0.5,nan", "0.75,0,-0.25,inf"]
     + lines[5:], 4, "non-finite"),
    (lambda lines: [lines[0], "0,0,-1,-inf"] + lines[2:], 2, "non-finite"),
    (lambda lines: [line.rsplit(",", 2)[0] + "," + line.rsplit(",", 1)[1]
                    for line in lines], 1, "ambient dimension"),
], ids=["header_only", "off_origin", "nan_row", "loose_sigma",
        "nan_sigma", "infinite_first_sigma", "missing_column"])
def test_invalid_snapshot_state_names_file_and_line(tmp_path, edit, line,
                                                    message):
    grid = Grid(4)
    positions = np.zeros((5, 2))
    positions[:, 1] = -(1.0 - grid.nodes)
    write_run(RunRecord(config_echo={}, snapshots=[Snapshot(
        state=ArcState(grid=grid, positions=positions, time=0.5),
        tension=TensionProfile(grid=grid, values=grid.nodes))]), tmp_path)
    path = tmp_path / "snapshot_t0.5.csv"
    path.write_text("\r\n".join(edit(path.read_text().splitlines())) + "\r\n")
    with pytest.raises(RunFormatError, match=message) as err:
        read_run(tmp_path)
    assert err.value.path == str(path)
    assert err.value.line == line


def test_timeseries_columns_exact_order():
    assert TIMESERIES_COLUMNS == (
        "t", "E", "E_alt", "E_rel", "E_rel_back", "E_eps", "D",
        "cos_alpha", "max_stretch", "constraint_L1", "sigma_at_1",
        "dt", "newton_iters",
    )


def test_truncated_timeseries_names_line(tmp_path):
    rng = np.random.default_rng(5)
    record = _record_with_reports(rng)
    write_run(record, tmp_path)
    path = tmp_path / "timeseries.csv"
    lines = path.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0]  # drop a field from the first row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RunFormatError) as err:
        read_run(tmp_path)
    assert err.value.line == 2


def test_corrupt_float_names_line(tmp_path):
    rng = np.random.default_rng(6)
    record = _record_with_reports(rng)
    write_run(record, tmp_path)
    path = tmp_path / "timeseries.csv"
    lines = path.read_text().splitlines()
    parts = lines[1].split(",")
    parts[3] = "not-a-number"
    lines[1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RunFormatError):
        read_run(tmp_path)


def _swap_first_two_columns(text):
    lines = text.splitlines()
    names = lines[0].split(",")
    names[:2] = names[1::-1]
    return "\r\n".join([",".join(names), *lines[1:]]) + "\r\n"


def _swap_last_two_rows(text):
    lines = text.splitlines()
    return "\r\n".join([*lines[:-2], lines[-1], lines[-2]]) + "\r\n"


@pytest.mark.parametrize("name, edit, line, message", [
    ("summary.json", lambda text: text[:-2], 6, "invalid JSON"),
    ("timeseries.csv", _swap_first_two_columns, 1, "unexpected columns"),
    # rows at t = 0.5, 1.5, 1: the third row's t does not increase
    ("timeseries.csv", _swap_last_two_rows, 4, "t does not increase"),
    ("config.json", lambda text: text.replace('"config"', '"settings"'),
     None, 'no "config" object'),
    ("summary.json", lambda text: text.replace('"snapshot_times": []',
                                               '"snapshot_times": 3'),
     None, "snapshot_times is not a list of numbers"),
    ("summary.json", lambda text: text.replace('"snapshot_times": []',
                                               '"snapshot_times": ["0.5"]'),
     None, "snapshot_times is not a list of numbers"),
    ("config.json", lambda text: "[1]\n", None, "not a JSON object"),
], ids=["summary_not_json", "timeseries_columns_out_of_order",
        "timeseries_rows_out_of_order", "config_without_config",
        "snapshot_times_not_a_list", "snapshot_times_not_numbers",
        "config_not_an_object"])
def test_corrupt_file_names_file_and_line(tmp_path, name, edit, line,
                                          message):
    write_run(RunRecord(config_echo={}, reports=timeseries(
        [0.5] * 11 + [0.1, 3], [1.0] * 11 + [0.1, 3],
        [1.5] * 11 + [0.1, 3])), tmp_path)
    path = tmp_path / name
    path.write_text(edit(path.read_text()))
    with pytest.raises(RunFormatError, match=message) as err:
        read_run(tmp_path)
    assert err.value.path == str(path)
    assert err.value.line == line


def test_unknown_schema_version_rejected(tmp_path):
    record = RunRecord(config_echo={})
    write_run(record, tmp_path)
    path = tmp_path / "config.json"
    path.write_text(path.read_text().replace('"schema_version": "1"',
                                             '"schema_version": "99"'))
    with pytest.raises(SchemaVersionError):
        read_run(tmp_path)


def test_empty_timeseries_file_rejected(tmp_path):
    write_run(RunRecord(config_echo={}), tmp_path)
    (tmp_path / "timeseries.csv").write_text("")
    with pytest.raises(RunFormatError) as err:
        read_run(tmp_path)
    assert err.value.line == 1


def test_fractional_newton_iters_rejected(tmp_path):
    record = RunRecord(config_echo={},
                       reports=timeseries([0.5] * 11 + [0.1, 3]))
    write_run(record, tmp_path)
    path = tmp_path / "timeseries.csv"
    path.write_bytes(path.read_bytes().replace(b",3\r\n", b",3.5\r\n"))
    with pytest.raises(RunFormatError, match="bad integer '3.5'") as err:
        read_run(tmp_path)
    assert err.value.line == 2


def test_table_bytes_are_crlf_17_digit_floats(tmp_path):
    grid = Grid(2)
    positions = np.array([[-0.0, 0.1], [5e-324, -2.5], [0.0, 0.0]])
    record = RunRecord(
        config_echo={},
        reports=timeseries([0.0, -0.0, 5e-324, 0.1, 1.0, -1.5, 2.0, 1e300,
                            float("nan"), 3.0, 1.0 / 3.0, 0.25, 12]),
        snapshots=[Snapshot(state=ArcState(grid=grid, positions=positions,
                                           time=0.5),
                            tension=TensionProfile(grid=grid,
                                                   values=[0.0, -0.0, 1.0]))],
    )
    write_run(record, tmp_path)
    assert (tmp_path / "timeseries.csv").read_bytes() == (
        b"t,E,E_alt,E_rel,E_rel_back,E_eps,D,cos_alpha,max_stretch,"
        b"constraint_L1,sigma_at_1,dt,newton_iters\r\n"
        b"0,-0,4.9406564584124654e-324,0.10000000000000001,1,-1.5,2,"
        b"1.0000000000000001e+300,nan,3,0.33333333333333331,0.25,12\r\n"
    )
    assert (tmp_path / "snapshot_t0.5.csv").read_bytes() == (
        b"s,x0,x1,sigma\r\n"
        b"0,-0,0.10000000000000001,0\r\n"
        b"0.5,4.9406564584124654e-324,-2.5,-0\r\n"
        b"1,0,0,1\r\n"
    )


SPECIAL_VALUES = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"),
                  5e-324, -5e-324, 1e300, -1e-300, 1.0 / 3.0, 0.1, 2.0 ** 53,
                  12.0, -2.5e-8]


def _savetxt_bytes(path, header, rows):
    # the reference writer: numpy's per-row loop with the same format
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",", newline="\r\n",
                   header=",".join(header), comments="")
    return path.read_bytes()


def _special_table(rng, n_rows, n_cols):
    table = rng.normal(size=(n_rows, n_cols)) * 10.0 ** rng.integers(
        -20, 20, size=(n_rows, n_cols))
    picks = rng.random(size=(n_rows, n_cols)) < 0.2
    table[picks] = rng.choice(SPECIAL_VALUES, size=int(picks.sum()))
    return table


def _timeseries_rows(rng, n_rows):
    # as write_run builds them: floats, then an int newton_iters column
    table = _special_table(rng, n_rows, len(TIMESERIES_COLUMNS) - 1)
    iters = rng.integers(0, 40, size=n_rows)
    return [[*row, int(k)] for row, k in zip(table.tolist(), iters)]


WIDTH_HEADERS = {2: ("s", "sigma"), 4: ("s", "x0", "x1", "sigma"),
                 13: TIMESERIES_COLUMNS}


def _chunk_cases():
    # row counts around write_table's chunk of rows at each width: empty,
    # one row, a chunk but one, a chunk, a chunk and one, two and one
    cases, ids = [], []
    for ncols, header in WIDTH_HEADERS.items():
        chunk = max(1, TABLE_CHUNK_FLOATS // ncols)
        for n_rows in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            if ncols == 13:
                make = partial(_timeseries_rows, n_rows=n_rows)
            else:
                make = partial(_special_table, n_rows=n_rows, n_cols=ncols)
            cases.append((header, make))
            ids.append(f"chunked_{n_rows}x{ncols}")
    return cases, ids


CHUNK_CASES, CHUNK_IDS = _chunk_cases()


@pytest.mark.parametrize("header, make_rows", [
    (["s", "x0", "x1", "sigma"], lambda rng: np.empty((0, 4))),
    (TIMESERIES_COLUMNS, lambda rng: []),
    (["a"], lambda rng: np.array([[-0.0]])),
    (["s", "x0", "x1", "sigma"], lambda rng: _special_table(rng, 1001, 4)),
    (TIMESERIES_COLUMNS, lambda rng: _timeseries_rows(rng, 414)),
    *CHUNK_CASES,
], ids=["0x4", "no_rows", "1x1", "1001x4", "414x13_int_column", *CHUNK_IDS])
def test_write_table_bytes_match_savetxt(tmp_path, header, make_rows):
    rows = make_rows(np.random.default_rng(11))
    write_table(tmp_path / "table.csv", header, rows)
    expected = _savetxt_bytes(tmp_path / "reference.csv", header, rows)
    assert (tmp_path / "table.csv").read_bytes() == expected


def test_write_table_holds_one_chunk_beyond_its_input(tmp_path):
    # the input array is allocated before tracing starts; the writer may
    # add one chunk of Python floats and text (about 0.1 MiB), not a copy
    # of the table as Python objects (about 3.8 MiB here)
    table = _special_table(np.random.default_rng(12), 5000,
                           len(TIMESERIES_COLUMNS))
    tracemalloc.start()
    try:
        write_table(tmp_path / "table.csv", TIMESERIES_COLUMNS, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB beyond the input"


@pytest.mark.parametrize("rows", [
    np.zeros((3, 5)),
    np.zeros((3, 3)),
    np.zeros(4),
    np.zeros((2, 2, 4)),
    [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0]],
], ids=["too_wide", "too_narrow", "one_dim", "three_dim", "ragged"])
def test_write_table_rejects_a_width_other_than_the_headers(tmp_path, rows):
    with pytest.raises(ValueError):
        write_table(tmp_path / "table.csv", ["s", "x0", "x1", "sigma"], rows)


def _trajectory(count):
    grid = Grid(3)
    rng = np.random.default_rng(count)
    pairs = []
    for k in range(count):
        positions = rng.normal(size=(4, 2))
        positions[-1] = 0.0
        sigma = rng.normal(size=4)
        sigma[0] = 0.0
        pairs.append((ArcState(grid=grid, positions=positions, time=0.1 * k),
                      TensionProfile(grid=grid, values=sigma)))
    return pairs


def _check_trajectory_files(pairs, directory, kept):
    index = json.loads((directory / "index.json").read_text())
    assert index["schema_version"] == "1"
    assert index["gravity"] == [0.0, -1.0]
    assert index["times"] == [pairs[k][0].time for k in kept]
    names = sorted(p.name for p in directory.glob("snapshot_t*.csv"))
    assert names == sorted(f"snapshot_t{'%.17g' % t}.csv"
                           for t in index["times"])
    for k in kept:
        state, tension = pairs[k]
        data = np.loadtxt(directory / f"snapshot_t{'%.17g' % state.time}.csv",
                          delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], state.grid.nodes)
        assert np.array_equal(data[:, 1:3], state.positions)
        assert np.array_equal(data[:, 3], tension.values)


def test_write_trajectory_thins_to_50_states_with_endpoints(tmp_path):
    pairs = _trajectory(120)
    write_trajectory(pairs, GravitySpec.down(2), tmp_path)
    index = json.loads((tmp_path / "index.json").read_text())
    kept = [round(t / 0.1) for t in index["times"]]
    assert kept == [round(k * 119 / 49) for k in range(50)]
    assert len(set(kept)) == 50 and kept[0] == 0 and kept[-1] == 119
    assert len(list(tmp_path.glob("snapshot_t*.csv"))) == 50
    _check_trajectory_files(pairs, tmp_path, kept)


@pytest.mark.parametrize("count", [1, 7, 50])
def test_write_trajectory_keeps_every_state_of_a_short_run(tmp_path, count):
    pairs = _trajectory(count)
    write_trajectory(pairs, GravitySpec.down(2), tmp_path)
    _check_trajectory_files(pairs, tmp_path, range(count))


def test_missing_files_reported(tmp_path):
    with pytest.raises(RunFormatError):
        read_run(tmp_path / "nowhere")
    record = RunRecord(config_echo={})
    write_run(record, tmp_path)
    (tmp_path / "timeseries.csv").unlink()
    with pytest.raises(RunFormatError):
        read_run(tmp_path)


def test_records_strictly_increasing_times():
    row = [float(v) for v in range(13)]
    with pytest.raises(ValueError, match="strictly increasing"):
        RunRecord(config_echo={}, reports=timeseries(row, row))
    later = [1.0 + row[0], *row[1:]]
    RunRecord(config_echo={}, reports=timeseries(row, later))
    # a NaN time compares false with its neighbours, so it is not refused
    RunRecord(config_echo={}, reports=timeseries(row, [np.nan, *row[1:]]))


@pytest.mark.parametrize("table", [
    np.zeros(13), np.zeros((2, 12)), np.zeros((2, 14)), np.zeros((1, 1, 13)),
    [],
], ids=["one_dim", "12_wide", "14_wide", "three_dim", "empty_list"])
def test_record_refuses_a_table_other_than_rows_by_13(table):
    with pytest.raises(ShapeError, match=re.escape(str(np.shape(table)))):
        RunRecord(config_echo={}, reports=table)


def test_reading_a_snapshot_table_holds_one_float_array(tmp_path):
    # a 5001 x 4 snapshot table is 0.15 MiB of floats; parsed into
    # per-row Python lists and then an array it would peak at about
    # 1.2 MiB
    grid = Grid(5000)
    positions = np.zeros((grid.n_nodes, 2))
    positions[:, 1] = -(1.0 - grid.nodes)
    write_run(RunRecord(config_echo={}, snapshots=[Snapshot(
        state=ArcState(grid=grid, positions=positions, time=0.5),
        tension=TensionProfile(grid=grid, values=grid.nodes))]), tmp_path)
    path = tmp_path / "snapshot_t0.5.csv"
    tracemalloc.start()
    try:
        snapshot = run_io._read_snapshot(path, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(snapshot.state.positions, positions)
    assert peak < 2 ** 19, f"peak {peak / 2 ** 20:.2f} MiB"
