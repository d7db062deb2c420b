#!/usr/bin/env python3
"""Repository benchmark: file-to-file usep_solve and open-loop usep_serve.

BENCHMARK.json at the repository root names the workloads and metrics; the
README beside this file defines them.

  python3 benchmark/run.py                    # every workload at seed 41,
                                              # all metrics as text lines
  python3 benchmark/run.py --workload solve-paper --seed 7 --seconds 15 \\
      --trace 0                               # one run, JSON result last
  python3 benchmark/run.py --aa --runs 5      # two interleaved sets, same build
  python3 benchmark/run.py --self-test        # statistics checks + smoke run

Builds benchmark/CMakeLists.txt into benchmark/.build on every call (a no-op
when nothing changed), then runs the load generator, one process per
workload.  Traced runs leave <workload>.trace.json (Perfetto) and
<workload>.layers.json in benchmark/out/.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = BENCH_DIR / ".build"
OUT_DIR = BENCH_DIR / "out"
LOADGEN = BUILD_DIR / "usep_loadgen"
BUILD_TIMEOUT_S = 780
# A run's set-up, checks and traced pass come on top of its window.
RUN_TIMEOUT_BASE_S = 140


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")


def build():
    """Configures (first call only) and builds the load generator."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {BENCH_DIR.name}/; nothing to build")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "usep_loadgen", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1, deadline - time.monotonic())
                                      ).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-25:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)} (log {log_path})")


def run_loadgen(workload, seed, seconds, trace, scale="paper", out_dir=OUT_DIR):
    """Runs one workload in its own process group; returns its JSON report."""
    work_dir = out_dir / "work" / f"{workload}-{seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [str(LOADGEN), f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--trace={trace}", f"--scale={scale}",
               f"--work_dir={work_dir}", f"--out_dir={out_dir}"]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    timeout = RUN_TIMEOUT_BASE_S + 2 * seconds
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # The load generator may have a usep_solve child: stop the group.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        fail(f"{workload} did not finish within {timeout:g} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        fail(f"load generator exited with {process.returncode} on {workload}")
    return json.loads(lines[-1])


def contract_result(spec, report, trace):
    """The result object for one run: every metric of the requested kind."""
    kind = "per_layer" if trace else "end_to_end"
    values = report["layers"] if trace else report["metrics"]
    metrics = {}
    problems = list(report["errors"])
    for metric in spec[kind]:
        value = values.get(metric["name"])
        if value is None or not math.isfinite(value):
            problems.append(f"metric {metric['name']} missing")
            continue
        if kind == "end_to_end" and value <= 0:
            problems.append(f"metric {metric['name']} is {value}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    return {"correct": report["correct"] and not problems,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics}


# --- Statistics shared by --aa and --self-test ------------------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


def worse_by(metric, base, new):
    """How much worse `new` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0 if new == base else math.inf
    change = (new - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def agree(metric, first, second):
    """Two sets of runs of the same code agree on `metric`.

    Omega is deterministic for a seed, so any change fails; every other
    metric may differ by at most its bound, in either direction.
    """
    if metric["name"] == "omega_ratio":
        return first == second
    a, b = statistics.median(first), statistics.median(second)
    return (worse_by(metric, a, b) <= metric["bound"]
            and worse_by(metric, b, a) <= metric["bound"])


# --- Modes ------------------------------------------------------------------

def run_all(spec, seed, seconds):
    """Every workload once, traced; prints `workload metric value unit`."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        report = run_loadgen(workload, seed, seconds, trace=1)
        print(f"{workload} correct {str(report['correct']).lower()} "
              f"attempted {report['attempted']} failed {report['failed']}")
        for error in report["errors"]:
            print(f"{workload} error {error}")
        for section in ("metrics", "layers"):
            for name, value in report[section].items():
                print(f"{workload} {name} {value!r} {units.get(name, '')}")
        ok = ok and report["correct"]
    return 0 if ok else 1


def run_aa(spec, seed, seconds, runs, vary_seed, out_path):
    """Two sets of the same build, interleaved run by run."""
    workloads = [w["name"] for w in spec["workloads"]]
    records = []
    for i in range(runs):
        run_seed = seed + i if vary_seed else seed
        for which in ("AB" if i % 2 == 0 else "BA"):
            for workload in workloads:
                report = run_loadgen(workload, run_seed, seconds, trace=0)
                records.append({"set": which, "workload": workload,
                                "seed": run_seed, "correct": report["correct"],
                                "attempted": report["attempted"],
                                "failed": report["failed"],
                                "steal_frac": report["steal_frac"],
                                "metrics": report["metrics"]})
                print(f"run {i + 1}/{runs} set {which} {workload} seed "
                      f"{run_seed} steal {report['steal_frac']:.4f} "
                      f"correct {report['correct']}", file=sys.stderr)
    summary = []
    ok = all(r["correct"] and r["failed"] == 0 for r in records)
    print(f"{'workload':15} {'metric':15} {'A median':>12} {'A spread':>9} "
          f"{'B median':>12} {'B spread':>9} {'bound':>6} agree steady")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sets = {s: [r["metrics"][name] for r in records
                        if r["set"] == s and r["workload"] == workload]
                    for s in "AB"}
            agreed = agree(metric, sets["A"], sets["B"])
            # Set-up time is exempt: it is a few samples per run by design.
            steady = name == "setup_s" or all(
                spread(sets[s]) <= metric["bound"] for s in "AB")
            ok = ok and agreed and steady
            row = {"workload": workload, "metric": name, "bound": metric["bound"],
                   "agree": agreed, "steady": steady}
            for s in "AB":
                q1, median, q3 = quartiles(sets[s])
                row[s] = {"q1": q1, "median": median, "q3": q3,
                          "spread": spread(sets[s]), "values": sets[s]}
            summary.append(row)
            print(f"{workload:15} {name:15} {row['A']['median']:12.6g} "
                  f"{row['A']['spread']:9.4f} {row['B']['median']:12.6g} "
                  f"{row['B']['spread']:9.4f} {metric['bound']:6.2f} "
                  f"{'yes' if agreed else 'NO':5} {'yes' if steady else 'NO'}")
    if out_path:
        Path(out_path).write_text(json.dumps(
            {"seed": seed, "vary_seed": vary_seed, "runs": runs,
             "seconds": seconds, "agree": ok, "summary": summary,
             "runs_detail": records}, indent=1) + "\n")
    return 0 if ok else 1


def self_test(spec):
    failures = []

    def expect(condition, what):
        if not condition:
            failures.append(what)

    # Statistics and bound checks.
    expect(quartiles([1, 2, 3, 4, 5])[1] == 3, "median of 1..5")
    expect(statistics.median([4, 1, 3, 2]) == 2.5, "median of an even count")
    expect(spread([10.0] * 10) == 0.0, "identical values have no spread")
    latency = {"name": "latency_ms_p50", "better": "lower", "bound": 0.1}
    rate = {"name": "ops_per_s", "better": "higher", "bound": 0.1}
    omega = {"name": "omega_ratio", "better": "higher", "bound": 0.02}
    runs = [100.0, 101.0, 99.0, 100.5, 99.5]
    expect(agree(latency, runs, list(runs)), "identical latencies agree")
    expect(not agree(latency, runs, [2 * v for v in runs]),
           "a 2x slowdown fails")
    expect(not agree(rate, runs, [v / 2 for v in runs]),
           "a halved rate fails")
    expect(agree(rate, runs, [v * 1.05 for v in runs]),
           "a 5% change is within a 10% bound")
    expect(worse_by(latency, 100.0, 90.0) < 0, "faster is not worse")
    expect(worse_by(rate, 100.0, 90.0) > 0, "a lower rate is worse")
    expect(agree(omega, [0.9912] * 3, [0.9912] * 3), "equal omega agrees")
    expect(not agree(omega, [0.9912] * 3, [0.9912, 0.9912, 0.99120001]),
           "any omega change fails")
    if subprocess.run([str(LOADGEN), "--self_test"]).returncode != 0:
        failures.append("load generator statistics self-test")

    # Smoke run of every workload at tiny sizes.
    start = time.monotonic()
    smoke_dir = OUT_DIR / "self-test"
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            report = run_loadgen(workload, 41, 1, trace, scale="tiny",
                                 out_dir=smoke_dir)
            result = contract_result(spec, report, trace)
            expect(result["correct"], f"smoke {workload} trace {trace}")
    elapsed = time.monotonic() - start
    expect(elapsed < 20, f"smoke run took {elapsed:.1f} s (limit 20 s)")
    shutil.rmtree(smoke_dir, ignore_errors=True)

    for failure in failures:
        print(f"self-test FAILED: {failure}", file=sys.stderr)
    print(f"self-test: {'ok' if not failures else 'FAILED'} "
          f"(smoke {elapsed:.1f} s)")
    return 0 if not failures else 1


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true",
                        help="two interleaved sets of runs of this build")
    parser.add_argument("--runs", type=int, default=5, help="runs per --aa set")
    parser.add_argument("--vary-seed", action="store_true",
                        help="--aa run i uses seed + i in both sets")
    parser.add_argument("--out", help="--aa: write the summary JSON here")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    OUT_DIR.mkdir(exist_ok=True)
    if args.self_test:
        return self_test(spec)
    if args.aa:
        return run_aa(spec, args.seed, args.seconds, args.runs, args.vary_seed,
                      args.out)
    if args.workload is None:
        return run_all(spec, args.seed, args.seconds)
    report = run_loadgen(args.workload, args.seed, args.seconds, args.trace)
    result = contract_result(spec, report, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
