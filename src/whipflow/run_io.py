"""Persistence: the one module that knows the names and the formats of the
files a run leaves on disk.

Every subcommand that writes gets one directory from run_path:
``<out>/<command>-<h>``, where ``h`` is the first 12 hex digits of the
sha256 of the resolved settings without ``out``, so two runs share a
directory exactly when they resolve to the same settings.  Its
config.json echoes those settings, written once: by run_directory as it
makes the directory, or, for a simulate run, by write_run.

A simulate run directory (write_run, read_run) holds

    config.json          resolved configuration
    timeseries.csv       one row per accepted step (plus the initial state)
    snapshot_t<t>.csv    node table (s, positions, tension) per snapshot,
                         named by the time of its state
    summary.json         summary (E_rel_initial, E_rel_final, decay_fit,
                         max_energy_increase, running_sup_tangent,
                         verdicts, failed), solver_stats, snapshot_times

and the falling branch of a nonuniqueness run is such a directory,
``falling/``, beside the run's config.json and its summary.json of
residuals.  No command writes a trajectory directory any more:
write_trajectory (at most 50 evenly spaced snapshot_t<t>.csv of a list
of (state, tension) pairs plus index.json with their times and the
gravity) stays only because perfbench's span table names it.

Every CSV table goes through write_table: a header line, then one row of
floats with 17 significant digits per line, CRLF line ends.  The rows are
formatted by one ``%`` over the whole table, which writes exactly the bytes
of a row-by-row ``"%.17g"`` writer, so the files the determinism contract
compares are unchanged.  Every JSON document goes through write_json:
schema-versioned, indented by 2, keys sorted, floats in Python's shortest
round-trip form.  Both read back exactly; write_run followed by read_run
reproduces the record bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
import numpy as np

from .diagnostics import EnergyReport
from .errors import RunFormatError, SchemaVersionError, ShapeError
from .flow import ArcState
from .grid import Grid
from .tension import TensionProfile

SCHEMA_VERSION = "1"

# states a trajectory directory keeps at most, evenly spaced, endpoints kept
TRAJECTORY_SNAPSHOTS = 50

TIMESERIES_COLUMNS = (*EnergyReport.FIELDS, "dt", "newton_iters")


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


@dataclass(frozen=True)
class Snapshot:
    """One persisted instant: a state (which carries its time) and its
    tension profile."""

    state: ArcState
    tension: TensionProfile


@dataclass
class RunRecord:
    """Everything a run produces, in memory."""

    config_echo: dict
    reports: list = field(default_factory=list)
    step_dts: list = field(default_factory=list)
    step_newton_iters: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    solver_stats: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.step_dts) != len(self.reports) or \
                len(self.step_newton_iters) != len(self.reports):
            raise ValueError("step_dts and step_newton_iters must align with reports")
        times = [r.t for r in self.reports]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("reports must be strictly increasing in t")


def _timeseries_rows(record: RunRecord) -> list:
    """timeseries.csv's rows: each report's fields, dt, Newton iterations."""
    return [[*(getattr(rep, name) for name in EnergyReport.FIELDS), dt, iters]
            for rep, dt, iters in zip(record.reports, record.step_dts,
                                      record.step_newton_iters)]


def _as_written(record: RunRecord) -> tuple:
    """The record as its files hold it: the JSON parts as write_json
    serializes them, each table float as write_table prints it."""
    def printed(table):
        return [[_fmt(x) for x in row] for row in np.atleast_2d(table)]

    return (json.dumps([record.config_echo, record.summary,
                        record.solver_stats], sort_keys=True),
            printed(_timeseries_rows(record)),
            [(_fmt(s.state.time), printed(s.state.positions),
              printed(s.tension.values)) for s in record.snapshots])


def records_equal(a: RunRecord, b: RunRecord) -> bool:
    """Exact equality of two records as their files hold them: ``-0``
    differs from ``0``, and every NaN equals every NaN, since ``"%.17g"``
    drops a NaN's sign."""
    return _as_written(a) == _as_written(b)


def write_table(path, header, rows) -> None:
    """Write a CSV table: the header line, then one row of ``%.17g`` floats
    per line, every line ending in CRLF.  ``rows`` is a 2-D table of
    ``len(header)`` columns (an empty sequence is a table with no rows, and
    writes the header alone); any other shape raises ValueError.  An
    integer column prints without a decimal point, and ``-0``, ``nan``,
    ``inf`` and subnormals print as ``"%.17g"`` prints them."""
    ncols = len(header)
    table = np.asarray(rows, dtype=float)
    if table.shape == (0,):
        table = table.reshape(0, ncols)
    if table.ndim != 2 or table.shape[1] != ncols:
        raise ValueError(f"table of shape {table.shape} does not match "
                         f"{ncols} header columns")
    line = ",".join(["%.17g"] * ncols) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write((line * len(table)) % tuple(table.ravel().tolist()))


def write_json(path, doc: dict) -> None:
    """Write ``doc`` with the schema version added, indented by 2, keys
    sorted."""
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def run_name(settings: dict) -> str:
    """``<command>-<h>``: ``h`` is the first 12 hex digits of the sha256 of
    the settings without ``out``, serialized with sorted keys."""
    key = {name: value for name, value in settings.items() if name != "out"}
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode())
    return f"{settings['command']}-{digest.hexdigest()[:12]}"


def run_path(settings: dict) -> Path:
    """Create the directory of a run with these resolved settings under
    ``settings["out"]`` and return it."""
    directory = Path(settings["out"]) / run_name(settings)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def run_directory(settings: dict) -> Path:
    """run_path, with the settings echoed to its config.json."""
    directory = run_path(settings)
    write_json(directory / "config.json", {"config": settings})
    return directory


def eps_directory(sweep: Path, eps: float) -> Path:
    """The subdirectory of a sweep that holds its run at ``eps``."""
    return sweep / f"eps_{_fmt(eps)}"


def _snapshot_path(directory: Path, t: float) -> Path:
    return directory / f"snapshot_t{_fmt(t)}.csv"


def _write_snapshot(directory: Path, state: ArcState,
                    tension: TensionProfile) -> None:
    header = ["s", *(f"x{c}" for c in range(state.dim)), "sigma"]
    rows = np.column_stack((state.grid.nodes, state.positions, tension.values))
    write_table(_snapshot_path(directory, state.time), header, rows)


def write_run(record: RunRecord, directory) -> None:
    """Persist a record; overwrites existing files of the same run."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_json(directory / "config.json", {"config": record.config_echo})
    write_table(directory / "timeseries.csv", TIMESERIES_COLUMNS,
                _timeseries_rows(record))
    for snap in record.snapshots:
        _write_snapshot(directory, snap.state, snap.tension)
    write_json(directory / "summary.json", {
        "summary": record.summary,
        "solver_stats": record.solver_stats,
        "snapshot_times": [snap.state.time for snap in record.snapshots],
    })


def write_trajectory(pairs, gravity, directory) -> None:
    """Persist (state, tension) pairs under ``gravity`` as snapshot CSVs
    plus an index; thins long runs to 50 evenly spaced states (endpoints
    kept)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    count = len(pairs)
    if count > TRAJECTORY_SNAPSHOTS:
        last = TRAJECTORY_SNAPSHOTS - 1
        pairs = [pairs[round(k * (count - 1) / last)] for k in range(last + 1)]
    for state, tension in pairs:
        _write_snapshot(directory, state, tension)
    write_json(directory / "index.json", {
        "times": [state.time for state, _ in pairs],
        "gravity": [float(x) for x in gravity.direction],
    })


def _load_json(path: Path) -> dict:
    if not path.exists():
        raise RunFormatError("missing file", path=str(path))
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise RunFormatError(f"invalid JSON: {exc.msg}", path=str(path),
                             line=exc.lineno) from exc
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"unsupported schema version {version!r}, expected {SCHEMA_VERSION!r}",
            path=str(path),
        )
    return doc


def _parse_float(text: str, path: Path, line: int) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise RunFormatError(f"bad float {text!r}", path=str(path),
                             line=line) from exc


def _parse_int(text: str, path: Path, line: int) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise RunFormatError(f"bad integer {text!r}", path=str(path),
                             line=line) from exc


def _read_table(path: Path, what: str, columns=None) -> tuple[list, list]:
    """Header and parsed rows of a table written by write_table.

    The header must equal ``columns`` when given, and every row must have
    the header's width.  Cells parse as floats, except ``newton_iters``,
    which must be a plain integer.  Errors name the file and the line.
    """
    if not path.exists():
        raise RunFormatError(f"missing {what}", path=str(path))
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    if not lines:
        raise RunFormatError(f"empty {what}", path=str(path), line=1)
    header = lines[0]
    if columns is not None and tuple(header) != columns:
        raise RunFormatError(f"unexpected columns {header!r}", path=str(path),
                             line=1)
    parsers = [_parse_int if name == "newton_iters" else _parse_float
               for name in header]
    rows = []
    for lineno, row in enumerate(lines[1:], start=2):
        if len(row) != len(header):
            raise RunFormatError(
                f"expected {len(header)} fields, got {len(row)}",
                path=str(path), line=lineno,
            )
        rows.append([parse(cell, path, lineno)
                     for parse, cell in zip(parsers, row)])
    return header, rows


def _read_snapshot(path: Path, t: float) -> Snapshot:
    """Read one snapshot table.  A table that parses but is not a pinned
    state with its tension fails as RunFormatError, naming the line the
    violated condition is about."""
    header, rows = _read_table(path, "snapshot file")
    last = len(rows) + 1
    try:
        grid = Grid(len(rows) - 1)
    except ValueError as exc:
        raise RunFormatError(f"{len(rows)} node rows, need at least 2",
                             path=str(path), line=last) from exc
    data = np.array(rows)
    d = len(header) - 2
    positions = data[:, 1:1 + d]
    try:
        state = ArcState(grid=grid, positions=positions, time=t)
    except ShapeError as exc:
        raise RunFormatError(str(exc), path=str(path), line=1) from exc
    except ValueError as exc:
        # a non-finite row, else the last row off the origin
        finite = np.isfinite(positions).all(axis=1)
        line = last if finite.all() else 2 + int(np.argmin(finite))
        raise RunFormatError(str(exc), path=str(path), line=line) from exc
    try:
        tension = TensionProfile(grid=grid, values=data[:, 1 + d])
    except ValueError as exc:
        raise RunFormatError(str(exc), path=str(path), line=2) from exc
    return Snapshot(state=state, tension=tension)


def read_run(directory) -> RunRecord:
    """Reconstruct a record written by write_run, exactly."""
    directory = Path(directory)
    config_doc = _load_json(directory / "config.json")
    summary_doc = _load_json(directory / "summary.json")

    n_fields = len(EnergyReport.FIELDS)
    _, rows = _read_table(directory / "timeseries.csv", "file",
                          TIMESERIES_COLUMNS)
    reports = [EnergyReport(*row[:n_fields]) for row in rows]
    step_dts = [row[n_fields] for row in rows]
    step_iters = [row[n_fields + 1] for row in rows]

    snapshots = [_read_snapshot(_snapshot_path(directory, t), t)
                 for t in summary_doc.get("snapshot_times", [])]

    return RunRecord(
        config_echo=config_doc["config"],
        reports=reports,
        step_dts=step_dts,
        step_newton_iters=step_iters,
        snapshots=snapshots,
        solver_stats=summary_doc.get("solver_stats", {}),
        summary=summary_doc.get("summary", {}),
    )
