"""congames benchmark: CLI sweeps timed end to end, and a traced run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload worst-dpp-s3 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 1 --trace 1 --smoke

The loop is closed with one client: sweeps run one after another, each in a
fresh single process (``sweep.py``) that runs ``congames.cli.main`` once with
``--seed <seed>``, until ``--seconds`` have passed.  BLAS threads are pinned
to one, so each sweep is one busy core.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each the
median over the sweeps of the run:

* ``sweep_s``: the sweep's wall time, rescaled by the speed probe timed
  inside that sweep (``sweep.SpeedProbe``) to seconds at a fixed nominal
  speed.  On a shared host a fixed loop's speed swings by up to 2x within
  seconds, and raw medians moved 17% between runs.
* ``setup_s``: process start until the CLI is ready (imports, argument
  parsing), rescaled the same way by ``sweep.setup_probe``.
* ``cpu_util``: CPU time over wall time of the sweep; above 1 when work
  runs in parallel.
* ``peak_rss_mb``: ``ru_maxrss`` of the sweep's own process.
* ``objective_mean``: mean of the CSV's ``value`` column (``worst``
  sweeps) or ``potential`` column (``nash``); the same for one seed.

The raw wall-time medians are printed in each table's heading line.
``--trace 1`` alternates untraced and traced sweeps; the traced ones
(``spans.py``) give the per-layer metrics, and ``trace.overhead`` is the
median traced ``sweep_s`` over the median untraced one.

A sweep fails if its process exits nonzero, if its CSV breaks an invariant
of the sweep table, if it differs from the first CSV of the run (one seed
must give the same bytes), or, for seed 0, if its sha256 differs from the
one recorded in ``workloads.json``.  ``--smoke`` shrinks every workload to a
tiny size and checks the smoke hashes instead; it exists for
``test_perfbench.py``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment.  Without the congames sources under ``src/`` the benchmark
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SWEEP = HERE / "sweep.py"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s a run may take
# Typical probe times on the 2-vCPU host the benchmark was defined on.  Times
# are reported in seconds at the speed where the probes take this long; the
# constants fix the unit and cancel out of every comparison.
SWEEP_PROBE_NOMINAL_S = 0.006
SETUP_PROBE_NOMINAL_S = 0.003
PROBABILITY_TOL = 1e-6


class SetupError(Exception):
    """The program under test cannot be started at all."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CONGAMES_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``sweep.py`` to completion; returns (spawn time, process)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(SWEEP), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    return spawned, proc


def sweep_argv(workload: str, seed: int, smoke: bool) -> list[str]:
    spec = WORKLOADS["workloads"][workload]
    return spec["argv"] + (spec["smoke_argv"] if smoke else []) + ["--seed", str(seed)]


def csv_problems(workload: str, text: str, smoke: bool) -> tuple[list[str], float]:
    """Invariant violations of a sweep table, and its objective column mean."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    points = WORKLOADS["workloads"][workload]["smoke_points" if smoke else "points"]
    if len(rows) != points:
        return [f"expected {points} rows, got {len(rows)}"], math.nan
    problems = []
    for row in rows:
        values = {k: float(v) for k, v in row.items()}
        e1 = values["e1"]
        if not all(math.isfinite(v) for v in values.values()):
            problems.append(f"e1={e1}: non-finite entry")
        for prefix in ("p", "pa", "pb"):
            group = [v for k, v in values.items() if k[len(prefix):].isdigit() and k.startswith(prefix)]
            if group and (min(group) < -PROBABILITY_TOL or abs(sum(group) - 1.0) > PROBABILITY_TOL):
                problems.append(f"e1={e1}: {prefix}* is not a probability vector")
        if "potential" in values:
            # at most twice the total mean reward; the preset means are (e1, 1, ..., 1)
            n = sum(1 for k in values if k.startswith("pa"))
            if values["potential"] > 2.0 * (e1 + n - 1):
                problems.append(f"e1={e1}: potential above its bound")
        else:
            if values["stderr"] < 0:
                problems.append(f"e1={e1}: negative stderr")
            if not values["value_min"] <= values["value"] <= values["value_max"]:
                problems.append(f"e1={e1}: value outside [value_min, value_max]")
    objective = "potential" if "potential" in rows[0] else "value"
    mean = statistics.fmean(float(row[objective]) for row in rows)
    return problems, mean


def sweep(workload: str, seed: int, smoke: bool, traced: bool, timeout: float) -> dict:
    """One sweep process; its report, with ``problems`` listing what failed."""
    flags = ["--trace"] if traced else []
    try:
        spawned, proc = run_child(flags + ["--"] + sweep_argv(workload, seed, smoke), timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"no result within {timeout:.0f} s"], "traced": traced}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"problems": [f"sweep process exited with {proc.returncode}"], "traced": traced}
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["traced"] = traced
    report["setup_wall_s"] = report["ready"] - spawned - report["setup_probe_before_s"]
    report["setup_s"] = report["setup_wall_s"] * SETUP_PROBE_NOMINAL_S / report["setup_probe_s"]
    report["problems"] = []
    if report["exit_code"] != 0:
        report["problems"].append(f"congames exited with {report['exit_code']}")
        return report
    if not Path(report["congames_file"]).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"congames was imported from {report['congames_file']}, not from {ROOT / 'src'}")
    problems, report["objective_mean"] = csv_problems(workload, report["csv"], smoke)
    report["problems"] += problems
    report["sha256"] = hashlib.sha256(report["csv"].encode()).hexdigest()
    return report


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Closed-loop sweeps of one workload for ``seconds``; returns the result."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if workload not in WORKLOADS["workloads"]:
        raise SetupError(f"unknown workload {workload!r}")
    try:  # compiles bytecode and warms the file cache before anything is timed
        warm = run_child(["--import-only", "--"], RUN_LIMIT_S / 2)[1]
    except subprocess.TimeoutExpired:
        raise SetupError("importing congames did not finish") from None
    if warm.returncode != 0:
        raise SetupError("cannot import congames from src/")

    expected = WORKLOADS["smoke_csv_sha256_seed0" if smoke else "csv_sha256_seed0"].get(workload)
    reports = []
    loop_start = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(reports) % 2 == 1
        remaining = deadline - time.monotonic()
        if remaining < longest + 5.0:
            break
        t0 = time.monotonic()
        report = sweep(workload, seed, smoke, traced, remaining)
        longest = max(longest, time.monotonic() - t0)
        if "csv" in report and not report["problems"]:
            first = next((r for r in reports if "sha256" in r), report)
            if report["sha256"] != first["sha256"]:
                report["problems"].append("CSV differs from the first sweep of this seed")
            if seed == 0 and expected is not None and report["sha256"] != expected:
                report["problems"].append(f"CSV sha256 {report['sha256']} differs from the recorded {expected}")
        for problem in report["problems"]:
            print(f"perfbench: {workload} seed {seed}: {problem}", file=sys.stderr)
        reports.append(report)
        done = time.monotonic() - loop_start >= seconds
        if done and (not trace or len(reports) >= 2):
            break

    timed = [r for r in reports if "sha256" in r]
    untraced = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not untraced or (trace and not traced):
        raise SetupError(f"{workload}: no sweep produced a result")
    for r in timed:
        r["sweep_wall_s"] = r["sweep_s"]
        r["sweep_s"] = r["sweep_wall_s"] * SWEEP_PROBE_NOMINAL_S / r["probe_s"]
        r["cpu_util"] = r["cpu_s"] / r["wall_s"]
    if trace:
        samples = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
        samples["trace.overhead"] = [
            statistics.median(r["sweep_s"] for r in traced) / statistics.median(r["sweep_s"] for r in untraced)
        ]
        specs = BENCHMARK["per_layer"]
    else:
        samples = {
            name: [r[name] for r in untraced]
            for name in ("sweep_s", "setup_s", "cpu_util", "peak_rss_mb", "objective_mean")
        }
        specs = BENCHMARK["end_to_end"]
    if set(samples) != {spec["name"] for spec in specs}:
        raise SetupError("measured metrics do not match the names in BENCHMARK.json")
    failed = sum(1 for r in reports if r["problems"])
    return {
        "workload": workload,
        "seed": seed,
        "untraced_sweeps": len(untraced),
        "traced_sweeps": len(traced),
        "sweep_wall_s": statistics.median(r["sweep_wall_s"] for r in untraced),
        "setup_wall_s": statistics.median(r["setup_wall_s"] for r in untraced),
        "samples": samples,
        "specs": specs,
        "result": {
            "correct": failed == 0,
            "attempted": len(reports),
            "failed": failed,
            "metrics": {
                spec["name"]: {"value": statistics.median(samples[spec["name"]]), "unit": spec["unit"]}
                for spec in specs
            },
        },
    }


def print_table(measured: dict):
    result = measured["result"]
    print(
        f"{measured['workload']} seed {measured['seed']}: {result['attempted']} sweeps "
        f"({measured['untraced_sweeps']} untraced, {measured['traced_sweeps']} traced), "
        f"{result['failed']} failed; raw wall medians: sweep {measured['sweep_wall_s']:.4g} s,"
        f" setup {measured['setup_wall_s']:.4g} s"
    )
    for spec in measured["specs"]:
        values = measured["samples"][spec["name"]]
        note = "  computed as T*n*8 per call" if spec["name"] == "dpp.history_mb" else ""
        if spec["name"] == "dpp.violations" and max(values) > 0:
            note = "  WARNING: queue-cap violations"
            print(f"perfbench: {measured['workload']}: {max(values)} DPP queue-cap violations", file=sys.stderr)
        print(
            f"  {spec['name']:<40} {statistics.median(values):>14.6g} {spec['unit']:<12}"
            f" median of {len(values)} (min {min(values):.6g}, max {max(values):.6g}){note}"
        )


def git_sha() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "peak_rss_mb": "ru_maxrss of each sweep's own process, median over the sweeps of the run",
        "loop": "closed, one client, one single-process sweep at a time",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # a terminated run still stops its sweep: subprocess.run kills the child on SystemExit
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "congames" / "cli.py").is_file():
        print(f"perfbench: no congames sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = names if args.workload == "all" else [args.workload]
    results = []
    try:
        for workload in workloads:
            measured = measure(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
            print_table(measured)
            results.append(measured)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        final = results[0]["result"]
    else:
        final = {
            "correct": all(m["result"]["correct"] for m in results),
            "attempted": sum(m["result"]["attempted"] for m in results),
            "failed": sum(m["result"]["failed"] for m in results),
            "metrics": {
                f"{m['workload']}.{name}": value
                for m in results
                for name, value in m["result"]["metrics"].items()
            },
        }
    print(json.dumps({"env": environment()}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
