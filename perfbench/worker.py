"""One benchmark sample in a fresh interpreter.

    python3 perfbench/worker.py <spec-json> <result-path>

The spec names the CLI arguments, the output directory, whether to trace,
and which correctness check to run.  The worker imports ``whipflow.cli``
first, so the time from its spawn (taken by the parent on the shared
monotonic clock) to ``ready_monotonic`` is the set-up a user pays.  It then
calls ``whipflow.cli.main(argv)`` once, checks the outputs and writes a JSON
result.  Exit code 3 means the program under test could not be imported.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
try:
    import whipflow.cli
except ImportError as exc:
    sys.stderr.write(f"cannot import whipflow from {SRC}: {exc}\n")
    sys.exit(3)
READY = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")


def _environment():
    import numpy
    import scipy

    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _check_simulate(run_dir, spec, problems):
    """Acceptance-gate checks of a simulate run, and a byte-exact round trip
    of its directory through run_io.read_run and write_run."""
    from whipflow.run_io import read_run, write_run

    doc = json.loads((run_dir / "summary.json").read_text())
    summary = doc["summary"]
    stats = doc["solver_stats"]
    eps = spec["eps"]
    T = spec["T"]
    if summary["failed"] is not None:
        problems.append(f"solver failed: {summary['failed']}")
    for name, ok in summary["verdicts"].items():
        if ok is not True:
            problems.append(f"verdict {name} is {ok}")
    # evolve stops within 1e-12 * max(1, T) of the horizon
    if abs(stats["final_time"] - T) > 1e-12 * max(1.0, T):
        problems.append(f"final_time {stats['final_time']!r} != T {T!r}")
    if not summary["max_energy_increase"] <= 1e-9:
        problems.append(f"max_energy_increase {summary['max_energy_increase']}")
    limit = 1.0 + math.sqrt(eps) + 0.05
    if not summary["running_sup_tangent"] <= limit:
        problems.append(f"running_sup_tangent {summary['running_sup_tangent']} > {limit}")

    t0 = time.perf_counter()
    record = read_run(run_dir)
    read_s = time.perf_counter() - t0
    if len(record.reports) != stats["steps"] + 1:
        problems.append(f"read back {len(record.reports)} rows for {stats['steps']} steps")
    copy = run_dir.parent / (run_dir.name + ".roundtrip")
    write_run(record, copy)
    for path in sorted(run_dir.iterdir()):
        if path.read_bytes() != (copy / path.name).read_bytes():
            problems.append(f"{path.name} does not round-trip through read_run")
    shutil.rmtree(copy)
    counters = {"steps": stats["steps"], "rejections": stats["rejections"],
                "newton_iters": stats["newton_iterations"]}
    return counters, read_s


def _check_branching(run_dir, evolve_stats, problems):
    """Criterion 11's frozen tolerances on the nonuniqueness summary."""
    doc = json.loads((run_dir / "summary.json").read_text())
    stat = doc["stationary_residual"]
    fall = doc["falling_residual"]
    limits = (
        ("separation_L2_at_T", doc["separation_L2_at_T"] >= 0.5),
        ("stationary pde_residual_L2", stat["pde_residual_L2"] <= 1e-10),
        ("stationary constraint_product_L2", stat["constraint_product_L2"] <= 1e-10),
        ("stationary diss_inequality_slack", stat["diss_inequality_slack"] >= -1e-10),
        ("falling pde_residual_L2", fall["pde_residual_L2"] <= 1.0),
        ("falling constraint_product_L2", fall["constraint_product_L2"] <= 0.15),
        ("falling stretch_violation", fall["stretch_violation"] <= 0.02),
        ("falling diss_inequality_slack", fall["diss_inequality_slack"] >= -30.0),
    )
    for name, ok in limits:
        if not ok:
            problems.append(f"{name} outside its frozen tolerance")
    if len(evolve_stats) != 1:
        problems.append(f"expected one evolve call, saw {len(evolve_stats)}")
        return {"steps": 0, "rejections": 0, "newton_iters": 0}, 0.0
    stats = evolve_stats[0]
    return {"steps": stats["steps"], "rejections": stats["rejections"],
            "newton_iters": stats["newton_iterations"]}, 0.0


def _stats_capture(evolve, sink):
    """evolve with a ``stats`` dict passed when the caller gives none, so
    that the step counters of a run without a summary can be read."""

    def evolve_with_stats(*args, **kwargs):
        stats = kwargs.setdefault("stats", {})
        try:
            return evolve(*args, **kwargs)
        finally:
            sink.append(stats)

    return evolve_with_stats


def calibrate():
    """Seconds for a fixed mix of the kinds of work whipflow does: numpy
    arithmetic on small arrays, a banded LAPACK solve and interpreter
    overhead.  It runs no whipflow code, so it measures only how fast the
    machine is at the moment; the runner divides timings by it to cancel
    the drift of a shared machine."""
    import numpy as np
    from scipy.linalg import solve_banded

    x = np.linspace(0.1, 1.0, 3000).reshape(1500, 2)
    ab = np.zeros((7, 3000))
    ab[3] = 4.0
    ab[2, 1:] = -1.0
    ab[4, :-1] = -1.0
    rhs = np.ones(3000)
    t0 = time.perf_counter()
    for _ in range(100):
        r = np.sqrt(np.sum(x * x, axis=-1))
        for _ in range(6):
            r = r - (0.01 * r + r / np.sqrt(0.01 + r * r) - 0.5) \
                / (0.01 + 0.01 * (0.01 + r * r) ** -1.5)
        solve_banded((3, 3), ab, rhs)
        total = 0
        for j in range(300):
            total += j * j
    return time.perf_counter() - t0


def run_sample(spec):
    from whipflow import cli, scenarios

    out = Path(spec["out"])
    if out.exists():
        shutil.rmtree(out)
    argv = list(spec["argv"]) + ["--out", str(out)]
    tracer = spans.Tracer() if spec["trace"] else None
    evolve_stats = []
    calib_before = calibrate()
    with spans.Patches() as patches:
        patches.set(scenarios, "evolve", _stats_capture(scenarios.evolve, evolve_stats))
        main = cli.main
        if tracer is not None:
            spans.install(tracer, patches)
            main = tracer.wrap(spans.ROOT_SPAN, main)
        c0 = time.process_time()
        t0 = time.perf_counter()
        rc = main(argv)
        run_s = time.perf_counter() - t0
        cpu_s = time.process_time() - c0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calib_s = 0.5 * (calib_before + calibrate())

    result = {"rc": rc, "run_s": run_s, "cpu_s": cpu_s, "calib_s": calib_s,
              "peak_rss_mib": peak_rss_mib, "problems": []}
    problems = result["problems"]
    dirs = [p for p in out.iterdir() if p.is_dir()] if out.exists() else []
    if rc != 0 or len(dirs) != 1:
        problems.append(f"exit code {rc}, {len(dirs)} run directories")
        return result
    run_dir = dirs[0]
    files = [p for p in run_dir.rglob("*") if p.is_file()]
    output = {"bytes_written": sum(p.stat().st_size for p in files),
              "files_written": len(files)}
    result["digest"] = hashlib.sha256(
        (run_dir / spec["digest_file"]).read_bytes()).hexdigest()
    if spec["check"] == "simulate":
        counters, output["read_run_s"] = _check_simulate(run_dir, spec, problems)
    else:
        counters, output["read_run_s"] = _check_branching(run_dir, evolve_stats, problems)
    result["counters"] = counters
    if tracer is not None:
        layers = spans.layer_metrics(tracer.spans, counters, output)
        self_sum = layers.pop("trace.self_sum_s")
        if abs(self_sum - layers["trace.run_s"]) > 1e-6 * layers["trace.run_s"]:
            problems.append(f"self times sum to {self_sum}, traced run_s is "
                            f"{layers['trace.run_s']}")
        result["layers"] = layers
        result["counters"] = dict(
            counters,
            solve_banded_calls=layers["flow.solve_banded.calls"],
            local_calculus_calls=layers["regmap.local_calculus.calls"])
    shutil.rmtree(out)
    return result


def main():
    spec = json.loads(sys.argv[1])
    result_path = sys.argv[2]
    if os.path.realpath(os.path.dirname(whipflow.cli.__file__)) != \
            os.path.realpath(os.path.join(SRC, "whipflow")):
        sys.stderr.write(f"imported whipflow from {whipflow.cli.__file__}, "
                         f"not from {SRC}\n")
        return 3
    result = {"ready_monotonic": READY}
    if spec.get("setup_only"):
        result["calib_s"] = calibrate()
    else:
        result.update(run_sample(spec))
        result["environment"] = _environment()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
