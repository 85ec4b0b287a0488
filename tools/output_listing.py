"""Print the sha256 of every file the seven reference commands write.

    PYTHONPATH=<checkout>/src python tools/output_listing.py

Runs each command below through ``whipflow.cli.main`` with ``--out runs``
from an empty temporary directory (every config.json echoes ``out``, so
it is the same relative path on every run).  Prints one ``dir <k> <name>``
line per command, ``<name>`` being the run directory that command ``k``
made, then one ``<sha256>  <k>/<path>`` line per file written, its path
taken inside that directory, sorted by ``k`` and path, and last
``listing sha256 <hex>``, the sha256 of the file lines, each ended by a
newline.  A run directory is named by a digest of its settings, so a
change to the settings table renames every directory; keyed by ``k``,
the file lines do not move with it.  A diff of two checkouts' listings
shows renamed directories on ``dir`` lines and changed files on file
lines, and two checkouts write the same bytes exactly when their last
lines agree.  The commands' own output and the path of the imported
package go to stderr.  Each command runs with warnings turned into
errors.  Each run directory a command leaves with a timeseries.csv (a
simulate run, a sweep's ``eps_*`` runs, a nonuniqueness run's
``falling/``) is read back by ``run_io.read_run`` and written again by
``run_io.write_run`` outside ``runs``; its files must come back byte
for byte.  Exits 1 if a command warns, does not exit 0 or does not make
exactly one new directory, or if a file does not round-trip, naming it.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import tempfile
import warnings
from pathlib import Path

import whipflow.cli
import whipflow.run_io

COMMANDS = (
    # pendulum, fine_grid at shape seed 0 and branching: the perfbench
    # workload commands
    ["simulate", "--scenario", "quarter_circle", "--eps", "1e-2",
     "--cells", "200", "--T", "8"],
    ["simulate", "--scenario", "random_lipschitz", "--seed", "0",
     "--eps", "1e-2", "--cells", "1500", "--T", "0.1",
     "--snapshots", "0.025,0.05,0.075,0.1"],
    ["nonuniqueness", "--T", "5", "--eps", "1e-3", "--cells", "1000"],
    ["tension", "--scenario", "straight_angle", "--cells", "200"],
    ["counterexample", "--eps", "0.1,0.05,0.01"],
    # the sweep path; after them, so that commands 0-4 keep their keys
    ["sweep-eps", "--scenario", "quarter_circle", "--eps", "1e-2,1e-3",
     "--cells", "100", "--T", "0.05", "--snapshots", "0.025"],
    # a snapshot of the initial state, on the falling branch; last, so
    # that commands 0-5 keep their keys
    ["nonuniqueness", "--T", "0.5", "--eps", "1e-2", "--cells", "60",
     "--snapshots", "0,0.25"],
)


def listing(k: int, directory: Path) -> list[str]:
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
            f"{k}/{p.relative_to(directory).as_posix()}" for p in files]


def round_trip_difference(k: int, directory: Path):
    """``<k>/<path>`` of the first file of a run directory under
    ``directory`` that read_run followed by write_run does not write back
    byte for byte, or None."""
    for series in sorted(directory.rglob("timeseries.csv")):
        run_dir = series.parent
        copy = Path("roundtrip", str(k), run_dir.relative_to(directory))
        whipflow.run_io.write_run(whipflow.run_io.read_run(run_dir), copy)
        names = {p.name for p in run_dir.iterdir() if p.is_file()} \
            | {p.name for p in copy.iterdir()}
        for name in sorted(names):
            a, b = run_dir / name, copy / name
            if not (a.is_file() and b.is_file()
                    and a.read_bytes() == b.read_bytes()):
                return f"{k}/{a.relative_to(directory).as_posix()}"
    return None


def main() -> int:
    print(f"whipflow from {Path(whipflow.cli.__file__).parent}",
          file=sys.stderr)
    cwd = os.getcwd()
    dirs, lines = [], []
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            runs = Path("runs")
            runs.mkdir()
            for k, argv in enumerate(COMMANDS):
                before = set(runs.iterdir())
                try:
                    with contextlib.redirect_stdout(sys.stderr), \
                            warnings.catch_warnings():
                        warnings.simplefilter("error")
                        code = whipflow.cli.main(argv + ["--out", "runs"])
                except Warning as exc:
                    print(f"{' '.join(argv)} warned: {exc!r}",
                          file=sys.stderr)
                    return 1
                made = set(runs.iterdir()) - before
                if code != 0 or len(made) != 1:
                    print(f"{' '.join(argv)} exited {code} and made "
                          f"{len(made)} directories", file=sys.stderr)
                    return 1
                directory, = made
                changed = round_trip_difference(k, directory)
                if changed is not None:
                    print(f"{changed} does not round-trip through read_run "
                          f"and write_run", file=sys.stderr)
                    return 1
                dirs.append(f"dir {k} {directory.name}\n")
                lines += listing(k, directory)
        finally:
            os.chdir(cwd)
    text = "".join(line + "\n" for line in lines)
    sys.stdout.write("".join(dirs) + text)
    print(f"listing sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
