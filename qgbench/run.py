"""Closed-loop benchmark of the quivergrass library.

    python3 qgbench/run.py --workload kron_table|kron_deep|dynkin --seed N \
        --seconds S --trace 0|1
    python3 qgbench/run.py --check [--seed N]

One client, one thread: each job starts after the previous one finished, and
every job is judged by an independent oracle (see `jobs.py`).  Every pass runs
in a fresh interpreter, so no cache survives from one pass to the next.
A run makes as many passes as fill `--seconds` at the nominal pass times
measured on a 2-vCPU VM (`NOMINAL_PASS_S`), and at least three with at least
100 job times pooled, which leaves at least 10 of them beyond the 90th
percentile.  The count depends on the arguments only, so `attempted` and
`failed` repeat exactly for a seed; the failing jobs are the same for every
seed.

wall_s and cpu_s are medians over passes.  job_s_p90 is the 90th percentile
of the pooled job times.  The median job time, taken over jobs of each job's
median across passes, is printed but is not a metric: on kron_deep it is the
time of one 40 ms job, whose interquartile spread over ten seeds reached 0.29
of its median on a 2-vCPU VM whose speed swings within seconds.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of
traced passes interleaved with untraced ones.  `--check` runs one untraced and
one traced pass of every workload, prints every metric by name with its unit,
and exits 1 if any job failed its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("kron_table", "kron_deep", "dynkin")
DEADLINE_S = 170.0       # a run must end within 180 s
MIN_PASSES = 3
MIN_JOB_SAMPLES = 100    # 10 samples beyond the 90th percentile
# Median untraced pass wall time on a 2-vCPU Xeon VM at 2.1 GHz.
NOMINAL_PASS_S = {"kron_table": 2.5, "kron_deep": 9.0, "dynkin": 3.5}
SETUP_SAMPLES = 7
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "job_s_p90": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(workload: str, seed: int, mode: str, index: int, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next worker")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("QUIVERGRASS_CAP", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--pass-index", str(index)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining,
                              env=env, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def planned_passes(workload: str, seconds: float, trace: bool, jobs: int) -> int:
    """Passes for a run of about `seconds`, fixed by the arguments alone, so
    that `attempted` and `failed` repeat exactly for a seed."""
    if trace:  # traced passes alternate with untraced ones
        return max(1, round(seconds / (2 * NOMINAL_PASS_S[workload])))
    return max(MIN_PASSES, math.ceil(MIN_JOB_SAMPLES / jobs),
               round(seconds / NOMINAL_PASS_S[workload]))


def collect(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    spawn(workload, seed, "setup", 0, deadline)  # compiles bytecode; not counted
    plain, traced, setups = [], [], []
    passes = None
    while passes is None or len(plain) < passes:
        plain.append(spawn(workload, seed, "pass", len(plain), deadline))
        if trace:
            traced.append(spawn(workload, seed, "trace", len(traced), deadline))
        setups.append(spawn(workload, seed, "setup", 0, deadline)["setup_s"])
        passes = passes or planned_passes(workload, seconds, trace, plain[0]["jobs"])
        elapsed = time.monotonic() - start
        if elapsed * (len(plain) + 1) / len(plain) > DEADLINE_S - 10:
            break  # a machine far slower than NOMINAL_PASS_S: end early
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", 0, deadline)["setup_s"])
    return {"plain": plain, "traced": traced, "setups": setups}


def end_to_end(runs: dict) -> tuple[dict, list[str]]:
    plain = runs["plain"]
    per_job = [statistics.median(times) for times in zip(*(p["job_s"] for p in plain))]
    pooled = sorted(t for p in plain for t in p["job_s"])
    p90 = statistics.quantiles(pooled, n=10)[8] if len(pooled) > 1 else pooled[0]
    beyond = sum(1 for t in pooled if t > p90)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "job_s_p90": p90,
        "setup_s": statistics.median(runs["setups"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in plain)
    notes = [f"pass walls (s): {walls}",
             f"median job time (s): {statistics.median(per_job):.6g}",
             f"passes {len(plain)}; job_s_p90 from {len(pooled)} job times, "
             f"{beyond} beyond it; setup_s median of {len(runs['setups'])} spawns"]
    return metrics, notes


def per_layer(runs: dict) -> tuple[dict, list[str]]:
    import tracing

    traced = runs["traced"]
    layers = [t["layers"] for t in traced]
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name, _, _ in tracing.METRICS if name != "trace.overhead_s"}
    notes = []
    for name in tracing.DETERMINISTIC:
        values = {layer[name] for layer in layers}
        if len(values) > 1:
            notes.append(f"counter {name} differs between traced passes: {sorted(values)}")
        metrics[name] = layers[0][name]
    metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                   - statistics.median(p["wall_s"] for p in runs["plain"]))
    absent = sorted({a for t in traced for a in t["absent"]})
    if absent:
        notes.append("absent trace targets (reported as 0): " + ", ".join(absent))
    shares = ", ".join(f"{name[6:]} {metrics[name]:.3f}" for name, _, _ in tracing.METRICS
                       if name.startswith("share."))
    notes.append(f"self-time share of traced wall: {shares}")
    return metrics, notes


def verdicts(runs: dict) -> tuple[dict, list[str]]:
    passes = runs["plain"] + runs["traced"]
    prints = {p["fingerprint"] for p in passes}
    if len(prints) != 1:
        raise BenchError(f"job list differs between passes: {sorted(prints)}")
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    first = passes[0]
    notes = [f"{first['jobs']} jobs, fingerprint sha256:{prints.pop()}",
             f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}; "
             f"{len(first['failures'])} failing jobs per pass:"]
    notes += [f"  {job}: {kind}: {detail}" for job, (kind, detail) in first["failures"].items()]
    if any(p["failures"] != first["failures"] for p in passes):
        notes.append("failing jobs differ between passes")
        wrong += 1
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed}, notes


def units() -> dict:
    import tracing
    out = dict(E2E_UNITS)
    out.update({name: unit for name, unit, _ in tracing.METRICS})
    return out


def check_program() -> None:
    if not (ROOT / "src" / "quivergrass" / "__init__.py").is_file():
        raise BenchError(f"no program source at {ROOT / 'src' / 'quivergrass'}")


def run_one(args) -> int:
    if args.trace:
        runs = collect(args.workload, args.seed, args.seconds, True)
    else:
        runs = collect(args.workload, args.seed, args.seconds, False)
    result, notes = verdicts(runs)
    if args.trace:
        metrics, more = per_layer(runs)
    else:
        metrics, more = end_to_end(runs)
    print(f"workload {args.workload} seed {args.seed}")
    for line in notes + more:
        print(line)
    table = units()
    result["metrics"] = {name: {"value": value, "unit": table[name]}
                         for name, value in metrics.items()}
    print(json.dumps(result))
    return 0


def run_check(args) -> int:
    broken = 0
    table = units()
    for workload in WORKLOADS:
        runs = collect(workload, args.seed, 0, True)
        result, notes = verdicts(runs)
        e2e, e2e_notes = end_to_end(runs)
        layers, layer_notes = per_layer(runs)
        print(f"== {workload} (seed {args.seed})")
        for line in notes + e2e_notes + layer_notes:
            print(line)
        for name, value in {**e2e, **layers}.items():
            print(f"{name:48s} {value:14.6g} {table[name]}")
        broken += result["failed"]
    print(f"{broken} failed job(s)" if broken else "every job verified")
    return 1 if broken else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    if not args.check and args.workload is None:
        parser.error("--workload is required unless --check is given")
    try:
        check_program()
        return run_check(args) if args.check else run_one(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
