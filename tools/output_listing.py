"""Print the sha256 of every file the five reference commands write.

    PYTHONPATH=<checkout>/src python tools/output_listing.py

Runs each command below through ``whipflow.cli.main`` with ``--out runs``
from an empty temporary directory (every config.json echoes ``out``, so
it is the same relative path on every run).  Then prints one
``<sha256>  ./<path>`` line per file written, sorted by path (the format
of ``sha256sum`` run from ``runs``), and last ``listing sha256 <hex>``,
the sha256 of the lines before it, each ended by a newline.  Two
checkouts write the same bytes exactly when their last lines agree.  The
commands' own output and the path of the imported package go to stderr.
Exits 1 if a command does not exit 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

import whipflow.cli

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
)


def listing(root: Path) -> list[str]:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
            f"./{p.relative_to(root).as_posix()}" for p in files]


def main() -> int:
    print(f"whipflow from {Path(whipflow.cli.__file__).parent}",
          file=sys.stderr)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in COMMANDS:
                with contextlib.redirect_stdout(sys.stderr):
                    code = whipflow.cli.main(argv + ["--out", "runs"])
                if code != 0:
                    print(f"{' '.join(argv)} exited {code}", file=sys.stderr)
                    return 1
            lines = listing(Path("runs"))
        finally:
            os.chdir(cwd)
    text = "".join(line + "\n" for line in lines)
    sys.stdout.write(text)
    print(f"listing sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
