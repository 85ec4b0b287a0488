"""Tests of the benchmark itself (not part of the package test suite).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_subtract_nested_spans_and_add_up_to_the_root():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: _busy(0.002))

    def middle():
        _busy(0.001)
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle)
    root = tracer.wrap("root", lambda: (middle(), leaf()))
    root()

    agg = spans.aggregate(tracer.spans)
    assert {k: v["calls"] for k, v in agg.items()} == {"root": 1, "middle": 1, "leaf": 3}
    assert agg["middle"]["self_s"] < agg["middle"]["incl_s"] - 0.004
    total_self = sum(v["self_s"] for v in agg.values())
    assert abs(total_self - agg["root"]["incl_s"]) < 1e-9
    parents = [tracer.spans[p][0] if p >= 0 else None for *_, p in tracer.spans]
    assert parents == [None, "root", "middle", "middle", "root"]


def test_span_closes_when_the_callable_raises():
    tracer = spans.Tracer()

    def fail():
        raise ValueError("boom")

    wrapped = tracer.wrap("fail", fail)
    try:
        wrapped()
    except ValueError:
        pass
    name, start, end, parent = tracer.spans[0]
    assert end >= start and parent == -1
    tracer.wrap("next", lambda: None)()
    assert tracer.spans[1][3] == -1  # the stack was popped


def test_accepted_steps_run_between_observer_spans():
    # evolve [0, 10]; observer spans at [2, 3] and [6, 7]; a stray child
    spans_list = [
        ["flow.evolve", 0.0, 10.0, -1],
        ["flow.solve_banded", 0.5, 1.0, 0],
        ["diagnostics.report", 2.0, 3.0, 0],
        ["diagnostics.report", 6.0, 7.0, 0],
        ["regmap.invert", 6.5, 6.6, 3],
    ]
    assert spans.accepted_step_seconds(spans_list) == [2.0, 3.0]


def test_patches_restore_the_originals():
    class Target:
        value = 1

    with spans.Patches() as patches:
        patches.set(Target, "value", 2)
        patches.set(Target, "value", 3)
        assert Target.value == 3
    assert Target.value == 1


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_quick_traced_pendulum_run_is_correct_and_repeats_its_counters():
    proc = _run(["--workload", "pendulum", "--quick", "--trace", "1"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in benchmark["per_layer"]}
    assert (metrics["flow.steps"], metrics["flow.rejections"],
            metrics["flow.newton_iters"]) == (413, 0, 880)
    assert "COUNTER FLAG" not in proc.stdout


def test_fails_without_printing_a_result_when_the_program_is_missing():
    # a directory holding only BENCHMARK.json and the benchmark's files
    bare = ROOT / ".perfbench_bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(["--workload", "pendulum", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
