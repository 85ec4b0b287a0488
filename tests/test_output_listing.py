"""tools/output_listing.py, the byte check of refactors, stays runnable.

No file count or digest is pinned: a change that moves outputs on purpose
changes the listing, not this test."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_listing.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_listing", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_listing_lists_every_command_and_its_digest(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(TOOL)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    commands = range(len(_tool().COMMANDS))
    dirs = [line for line in lines if line.startswith("dir ")]
    assert [int(line.split()[1]) for line in dirs] == list(commands)
    files = [line for line in lines if re.fullmatch(r"[0-9a-f]{64}  \d+/.+",
                                                    line)]
    assert {int(line.split()[1].split("/")[0]) for line in files} == \
        set(commands)
    assert lines == dirs + files + [lines[-1]]
    text = "".join(line + "\n" for line in files)
    assert lines[-1] == \
        f"listing sha256 {hashlib.sha256(text.encode()).hexdigest()}"


def test_output_listing_fails_on_a_warning(tmp_path, monkeypatch, capsys):
    tool = _tool()

    def warns(argv):
        np.float64(1e300) * np.float64(1e300)
        return 0

    monkeypatch.setattr(tool.whipflow.cli, "main", warns)
    monkeypatch.chdir(tmp_path)
    assert tool.main() == 1
    assert f"{' '.join(tool.COMMANDS[0])} warned" in capsys.readouterr().err


def test_output_listing_fails_on_a_file_that_does_not_round_trip(
        tmp_path, monkeypatch, capsys):
    # write_run of the round trip changes one byte of timeseries.csv
    tool = _tool()
    write_run = tool.whipflow.run_io.write_run

    def off_by_one_byte(record, directory):
        write_run(record, directory)
        path = Path(directory) / "timeseries.csv"
        data = bytearray(path.read_bytes())
        data[-3] ^= 1
        path.write_bytes(bytes(data))

    monkeypatch.setattr(tool.whipflow.run_io, "write_run", off_by_one_byte)
    monkeypatch.chdir(tmp_path)
    assert tool.main() == 1
    assert "0/timeseries.csv does not round-trip" in capsys.readouterr().err
