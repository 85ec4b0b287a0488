"""whipflow benchmark: closed-loop runs of canonical CLI workloads.

    python3 perfbench/run.py --workload pendulum --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --quick        # smoke run, checks on

One client, one sample at a time: each sample is a fresh interpreter
(perfbench/worker.py) that imports ``whipflow.cli`` from ``src/``, calls
``whipflow.cli.main(argv)`` once and checks the outputs.  New samples start
while fewer than ``--seconds`` have passed.  A sample that outlives its
workload's budget is killed, counted as failed and not retried.

``--trace 0`` reports the end-to-end metrics (medians over samples):
run_s, cpu_s, setup_s and peak_rss_mib, with the timings scaled to a
reference machine speed (see CALIB_REF_S).  ``--trace 1`` alternates untraced
and traced samples and reports the per-layer metrics of the traced ones,
plus trace.overhead_frac.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the lines before it
are a readable table and the run's environment record.

The workloads are fixed configurations (perfbench/workloads.json), so every
``--seed`` gives the same inputs and runs at different seeds measure the
same work.  fine_grid's random initial shape is ``--shape-seed`` (default 0,
the seed its expected counters were taken at); re-check a claim on another
shape seed by hand.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench_work")  # relative to ROOT, so config echoes are stable
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
NAMES = [name for name in WORKLOADS if name != "predictions"]
# a run must end within 180 s; keep room for the set-up samples after the loop
HARD_LIMIT_S = 165.0
MIN_SETUP_SAMPLES = 7
# Timings are reported at a reference machine speed: each is scaled by
# CALIB_REF_S over the worker's own calibration time (worker.calibrate, about
# 0.06 s on a shared 2-core x86 virtual machine).  A shared
# machine's speed drifts by 20-40% over minutes; the scaling cancels most of
# that and leaves changes in whipflow's own work in full.
CALIB_REF_S = 0.06
IMPORT_FAILED = 3


def _git_commit():
    """HEAD of the checkout, read from .git without running git (which
    would search parent directories); None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Sampler:
    """Spawns worker processes one at a time and collects their results."""

    def __init__(self, name, spec, shape_seed, deadline):
        self.name = name
        self.spec = spec
        self.argv = [a.replace("{shape_seed}", str(shape_seed)) for a in spec["argv"]]
        self.deadline = deadline
        self.setup_s = []  # (seconds, calibration seconds) per worker
        self.samples = []  # dicts: traced, ok, problems, and worker fields
        self.env = None

    def _spawn(self, payload, budget):
        """Run one worker; returns (result or None, problem or None)."""
        WORK.mkdir(exist_ok=True)
        result_path = WORK / f"result-{os.getpid()}.json"
        if result_path.exists():
            result_path.unlink()
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(payload),
             str(result_path)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, f"killed after its {budget:.0f} s budget"
        if proc.returncode == IMPORT_FAILED:
            sys.stderr.write(err)
            raise SystemExit("the program under test cannot be imported")
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or [""]
            return None, f"worker exited {proc.returncode}: {tail[0]}"
        result = json.loads(result_path.read_text())
        result_path.unlink()
        self.setup_s.append((result["ready_monotonic"] - start, result["calib_s"]))
        return result, None

    def _budget(self):
        return max(1.0, min(self.spec["budget_s"], self.deadline - time.monotonic()))

    def sample(self, traced):
        payload = {"argv": self.argv, "out": str(WORK / self.name),
                   "trace": traced, "check": self.spec["check"],
                   "eps": self.spec["eps"], "T": self.spec["T"],
                   "digest_file": self.spec["digest_file"]}
        result, problem = self._spawn(payload, self._budget())
        entry = {"traced": traced}
        if result is not None:
            entry.update(result)
            self.env = self.env or result.get("environment")
            problems = result["problems"]
        else:
            problems = [problem]
        entry["problems"] = problems
        entry["ok"] = not problems
        self.samples.append(entry)

    def setup_only(self):
        self._spawn({"setup_only": True}, self._budget())


def _median(values):
    """Median; for counts, the lower middle value, so a count stays whole."""
    if not values:
        return float("nan")
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _counter_flags(samples, expected, check_expected):
    """Samples whose counters differ from the first sample's, and counters
    that differ from the seed-commit values (information, not a gate)."""
    flags = []
    with_counters = [s for s in samples if "counters" in s]
    if not with_counters:
        return flags
    reference = with_counters[0]["counters"]
    for index, sample in enumerate(samples):
        counters = sample.get("counters")
        if counters is None:
            continue
        for key, value in counters.items():
            if key in reference and reference[key] != value:
                flags.append(f"sample {index}: {key} = {value}, first sample {reference[key]}")
    if check_expected:
        merged = {}
        for sample in with_counters:
            merged.update(sample["counters"])
        for key, value in expected.items():
            if key in merged and merged[key] != value:
                flags.append(f"{key} = {merged[key]}, seed-commit value {value}")
    return flags


def run_workload(name, args):
    spec = WORKLOADS[name]
    started = time.monotonic()
    sampler = Sampler(name, spec, args.shape_seed, started + HARD_LIMIT_S)
    load_before = os.getloadavg()
    # warm-up import: compiles bytecode once per checkout, fails fast when
    # the program is missing, and is not counted in setup_s
    sampler.setup_only()
    sampler.setup_s.clear()

    # start a sample only if one like the last would end within --seconds,
    # so that a run of a slow workload does not overshoot by a whole sample
    measured = time.monotonic()
    traced_next = False
    while True:
        began = time.monotonic()
        sampler.sample(traced=traced_next)
        last = time.monotonic() - began
        if args.trace:
            traced_next = not traced_next
        elapsed = time.monotonic() - measured
        have_traced = any(s["traced"] for s in sampler.samples)
        if (args.quick or elapsed + last > args.seconds) and \
                (have_traced or not args.trace):
            break
        if time.monotonic() >= sampler.deadline:
            break
    want_setup = 1 if args.quick else MIN_SETUP_SAMPLES
    while len(sampler.setup_s) < want_setup and time.monotonic() < sampler.deadline:
        sampler.setup_only()
    load_after = os.getloadavg()
    shutil.rmtree(WORK, ignore_errors=True)

    samples = sampler.samples
    plain = [s for s in samples if not s["traced"] and s["ok"]]
    traced = [s for s in samples if s["traced"] and s["ok"]]
    attempted = len(samples)
    failed = sum(1 for s in samples if not s["ok"])
    check_expected = \
        spec.get("expected_counters_shape_seed", args.shape_seed) == args.shape_seed
    flags = _counter_flags(samples, spec["expected_counters"], check_expected)
    digests = sorted({s["digest"] for s in samples if "digest" in s})

    def at_reference(samples, key):
        return _median([s[key] * CALIB_REF_S / s["calib_s"] for s in samples])

    end_to_end = {
        "run_s": (at_reference(plain, "run_s"), "s", len(plain)),
        "cpu_s": (at_reference(plain, "cpu_s"), "s", len(plain)),
        "setup_s": (_median([t * CALIB_REF_S / c for t, c in sampler.setup_s]), "s",
                    len(sampler.setup_s)),
        "peak_rss_mib": (_median([s["peak_rss_mib"] for s in plain]), "MiB", len(plain)),
    }
    as_measured = {
        "run_s": _median([s["run_s"] for s in plain]),
        "cpu_s": _median([s["cpu_s"] for s in plain]),
        "setup_s": _median([t for t, _ in sampler.setup_s]),
        "calib_s": _median([s["calib_s"] for s in plain]),
    }
    print(f"workload {name}: {attempted} samples ({len(traced)} traced), "
          f"{failed} failed, {time.monotonic() - started:.1f} s")
    print(f"  {'metric':<14} {'at ref speed':>12}      {'as measured':>12}")
    for metric, (value, unit, count) in end_to_end.items():
        raw = as_measured.get(metric, value)
        print(f"  {metric:<14} {value:>12.6g} {unit:<4} {raw:>12.6g} {unit:<4} median of {count}")
    print(f"  {'failed_frac':<14} {failed / attempted:>12.6g}      of {attempted} attempted")
    print(f"  {'calib_s':<14} {as_measured['calib_s']:>12.6g} s    reference {CALIB_REF_S}")
    for index, sample in enumerate(samples):
        if sample["problems"]:
            print(f"  FAILED sample {index}: {'; '.join(sample['problems'])}")
    for flag in flags:
        print(f"  COUNTER FLAG {flag}")

    layers = {}
    if traced:
        keys = traced[0]["layers"].keys()
        layers = {k: _median([s["layers"][k] for s in traced]) for k in keys}
        layers["machine.calib_ms"] = 1e3 * _median([s["calib_s"] for s in traced])
        untraced_run_s = end_to_end["run_s"][0]
        layers["trace.overhead_frac"] = \
            (at_reference(traced, "run_s") - untraced_run_s) / untraced_run_s
        for key, value in layers.items():
            print(f"  {key:<44} {value:>14.6g}   median of {len(traced)}")

    record = {
        "workload": name,
        "argv": sampler.argv,
        "seed": args.seed,
        "shape_seed": args.shape_seed,
        "seconds": args.seconds,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "worker": sampler.env,
        "counters": [s.get("counters") for s in samples],
        "sample_run_s": [[s.get("run_s"), s["traced"], s["ok"]] for s in samples],
        "setup_s": sampler.setup_s,
        "calib_s": [s.get("calib_s") for s in samples],
        "calib_ref_s": CALIB_REF_S,
        "counter_flags": flags,
        "output_sha256": digests,
    }
    print("record " + json.dumps(record, sort_keys=True))
    if not plain or (args.trace and not traced):
        return None
    if args.trace:
        values = layers
    else:
        values = {metric: value for metric, (value, _, _) in end_to_end.items()}
    return {"attempted": attempted, "failed": failed, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one sample (one of each kind with --trace 1)")
    parser.add_argument("--shape-seed", type=int, default=0,
                        help="random initial shape of fine_grid")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "whipflow" / "cli.py").is_file():
        sys.stderr.write(f"no program to benchmark: {ROOT / 'src/whipflow'} is missing\n")
        return 1

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    exit_code = 0
    names = NAMES if args.workload == "all" else [args.workload]
    for name in names:
        outcome = run_workload(name, args)
        if outcome is None:
            sys.stderr.write(f"{name}: no successful sample to report\n")
            exit_code = 1
            continue
        listed = benchmark["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": outcome["values"][m["name"]], "unit": m["unit"]}
                   for m in listed}
        print(json.dumps({"correct": outcome["failed"] == 0,
                          "attempted": outcome["attempted"],
                          "failed": outcome["failed"],
                          "metrics": metrics}))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
