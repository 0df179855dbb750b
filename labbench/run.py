#!/usr/bin/env python3
"""Repository benchmark: campaign workloads through the labmon API.

Run from the root of a checkout:

    python3 labbench/run.py --workload batch_campus --seed 20050201 \
        --seconds 20 --trace 0

The first call configures and builds labbench/ (the labmon libraries from
src/ plus the `labbench` driver) in Release mode under .labbench_build/.
Every measured repetition is its own `labbench run` process, so the peak RSS
and CPU time read for it belong to that repetition alone. Repetitions
continue until --seconds are spent (at least three). With --trace 0 the last
stdout line carries the end-to-end metrics as medians over the repetitions;
with --trace 1 each repetition is a traced run and the line carries the
per-layer metrics. Spans of traced runs are written to .labbench_out/spans/.
See labbench/README.md for the workloads, metrics and baselines.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".labbench_build")
BINARY = os.path.join(BUILD, "labbench")
OUT = os.path.join(ROOT, ".labbench_out")

# BENCHMARK.json lists every workload but stream_longhorizon, which runs by
# hand only: its wall time is not steady enough on a shared host to gate on
# (labbench/README.md).
WORKLOADS = ("batch_campus", "snapshot_replay", "stream_longhorizon",
             "harvest_month")
PAPER_SEED = 20050201
MIN_REPS = 3
CHILD_TIMEOUT_S = 60
# Start no new repetition after this long, whatever --seconds says, so a run
# always ends inside the 180 s budget.
HARD_STOP_S = 110

# The metrics a call reports, with their units, are the ones BENCHMARK.json
# at the checkout root declares.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    SPEC = json.load(_spec)
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
# A per-layer metric that does not apply to a workload reads 0.
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
# Fields of a traced record that are not per-layer numbers.
TRACED_FIELDS = ("type", "ok", "errors", "untraced_wall_s", "traced_wall_s")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark package; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        return subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                               stdout=sys.stderr) == 0


def child(args, cpu=None):
    """Runs one labbench process, pinned to `cpu` if given; returns (last
    JSON line, rusage)."""
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        if cpu is not None:
            try:
                os.sched_setaffinity(proc.pid, {cpu})
            except ProcessLookupError:
                pass  # already exited; wait4 below reports how
        out = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        return {"ok": 0, "errors": "labbench %s exited %d" %
                (" ".join(args[:2]), proc.returncode)}, usage
    try:
        return json.loads(lines[-1]), usage
    except ValueError:
        return {"ok": 0, "errors": "unparsable output"}, usage


def errors_of(res):
    """The failures a labbench result record reports, as a list."""
    return [] if res.get("ok") else [res.get("errors") or "not ok"]


def percentile_note(values):
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n <= 10:
        return ""
    pct = math.floor(100.0 * (n - 10) / n)
    if pct < 50:
        return ""
    ordered = sorted(values)
    index = min(n - 1, math.ceil(pct / 100.0 * n) - 1)
    return " p%d=%.6g" % (pct, ordered[index])


def measure(run_once, seconds):
    """Repeats run_once until `seconds` are spent (at least MIN_REPS)."""
    results = []
    start = time.monotonic()
    while True:
        rep_t0 = time.monotonic()
        results.append(run_once(len(results)))
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(results)
        if len(results) >= MIN_REPS and elapsed + per_rep > seconds:
            break
        if elapsed + (time.monotonic() - rep_t0) > HARD_STOP_S:
            break
    return results


def untraced(workload, seed, seconds, work):
    """End-to-end run: returns (correct, attempted, failed, metrics, notes)."""
    failures = []
    reference = None
    setup_s = None
    if workload == "snapshot_replay":
        res, _ = child(["snapshot-setup", "--seed", str(seed), "--work-dir",
                        work])
        failures += errors_of(res)
        reference = res.get("hash")  # the batch_campus engine's hash
        setup_s = res.get("setup_s")
    elif workload != "harvest_month":
        res, _ = child(["reference", workload, "--seed", str(seed)])
        failures += errors_of(res)
        reference = res.get("hash")

    # harvest_month is single-threaded, and the vCPUs of a shared host run
    # at different speeds: its repetitions rotate over the allowed CPUs so
    # the median does not hang on where the scheduler happened to place
    # them. The multi-threaded workloads always span every CPU.
    cpus = sorted(os.sched_getaffinity(0))

    def run_once(index):
        cpu = cpus[index % len(cpus)] if workload == "harvest_month" else None
        res, usage = child(["run", workload, "--seed", str(seed),
                            "--work-dir", work], cpu)
        res["peak_rss_mib"] = usage.ru_maxrss / 1024.0
        return res

    reps = measure(run_once, seconds)
    if reference is None:
        # harvest_month: every repetition of one seed must agree exactly.
        reference = reps[0].get("hash")
    failed = 0
    for i, rep in enumerate(reps):
        errors = errors_of(rep)
        if rep.get("hash") != reference:
            errors.append("hash %s != reference %s" %
                          (rep.get("hash"), reference))
        if errors:
            failed += 1
            log("rep %d FAILED: %s" % (i, "; ".join(errors)))
    ok_reps = [r for r in reps if r.get("ok")] or reps
    series = {
        "wall_s": [r.get("wall_s", 0.0) for r in ok_reps],
        "machine_days_per_s": [r.get("machine_days", 0.0) /
                               max(r.get("wall_s", 0.0), 1e-9)
                               for r in ok_reps],
        "cpu_s": [r.get("cpu_s", 0.0) for r in ok_reps],
        "peak_rss_mib": [r["peak_rss_mib"] for r in ok_reps],
        "setup_s": ([setup_s] if setup_s is not None else
                    [r.get("setup_s", 0.0) for r in ok_reps]),
    }
    metrics = {name: {"value": statistics.median(series[name]), "unit": unit}
               for name, unit in END_TO_END}
    notes = ["%s = %.6g %s (median of %d%s)" %
             (name, metrics[name]["value"], unit, len(series[name]),
              percentile_note(series[name])) for name, unit in END_TO_END]
    notes.append("failed_ratio = %.6g (%d of %d repetitions)" %
                 (failed / len(reps), failed, len(reps)))
    if "spill_bytes" in reps[0]:
        notes.append("spill_mib = %.6g MiB" %
                     (reps[0]["spill_bytes"] / 1048576.0))
    if "equiv_ratio" in reps[0]:
        notes.append("equiv_ratio = %.6g (Fig 6: 0.51)" %
                     reps[0]["equiv_ratio"])
    for failure in failures:
        log("setup FAILED: %s" % failure)
    if failures:
        failed = len(reps)  # no valid reference to check any repetition
    return failed == 0, len(reps), failed, metrics, notes


def traced(workload, seed, seconds, work):
    """Per-layer run: returns (correct, attempted, failed, metrics, notes)."""
    spans_dir = os.path.join(OUT, "spans")
    os.makedirs(spans_dir, exist_ok=True)

    def run_once(index):
        spans = os.path.join(spans_dir, "%s-seed%d-rep%d.json" %
                             (workload, seed, index))
        res, _ = child(["traced", workload, "--seed", str(seed),
                        "--work-dir", work, "--spans-out", spans])
        return res

    reps = measure(run_once, seconds)
    failed = 0
    for i, rep in enumerate(reps):
        if not rep.get("ok"):
            failed += 1
            log("traced rep %d FAILED: %s" % (i, "; ".join(errors_of(rep))))
    ok_reps = [r for r in reps if r.get("ok")] or reps
    metrics = {name: {"value": statistics.median(r.get(name, 0.0)
                                                 for r in ok_reps),
                      "unit": unit}
               for name, unit in PER_LAYER}
    notes = ["%s = %.6g %s" % (name, metrics[name]["value"], unit)
             for name, unit in PER_LAYER]
    # Numbers the traced run reports beyond BENCHMARK.json's list (the
    # stream-only layers of stream_longhorizon) go to the text lines; those
    # that do not apply read 0 and are left out.
    listed = {name for name, _ in PER_LAYER}
    for key in sorted(ok_reps[0]):
        if key in listed or key in TRACED_FIELDS:
            continue
        value = statistics.median(r.get(key, 0.0) for r in ok_reps)
        if value:
            notes.append("%s = %.6g" % (key, value))
    notes.append("untraced_wall_s = %.6g s, traced_wall_s = %.6g s "
                 "(median of %d)" %
                 (statistics.median(r.get("untraced_wall_s", 0.0)
                                    for r in ok_reps),
                  statistics.median(r.get("traced_wall_s", 0.0)
                                    for r in ok_reps), len(ok_reps)))
    return failed == 0, len(reps), failed, metrics, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PAPER_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seed >= 2 ** 64:
        parser.error("--seed must fit in 64 unsigned bits")

    if not build():
        log("labbench: build failed")
        return 1
    work = os.path.join(OUT, "work-%s-%d-%d" % (args.workload, args.seed,
                                                os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run = traced if args.trace else untraced
        correct, attempted, failed, metrics, notes = run(
            args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("workload %s seed %d trace %d" %
          (args.workload, args.seed, args.trace))
    for note in notes:
        print("  " + note)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
