"""perfbench's correctness checks on the branching and fine_grid workloads.

The benchmark's own tests run pendulum's quick traced sample alone.  These
run one quick sample of each other workload through ``perfbench/run.py``
and require that it passes its check (criterion 11's tolerances on the
nonuniqueness summary; the acceptance verdicts and the byte-exact
``read_run`` round trip of the simulate run).  Their expected counters are
not compared: the stale ones are flagged, not failed."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, trace",
                         [("branching", "1"), ("fine_grid", "0")])
def test_quick_sample_passes_its_check(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--quick", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
