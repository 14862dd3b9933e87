"""Self-test of the benchmark: run with `python3 qgbench/selftest.py`.

Checks that
* BENCHMARK.json and layers.json list exactly the workloads and metrics that
  the code reports, with the same units and directions;
* the job generator is deterministic: one seed gives one fingerprint, and
  different seeds give different job lists;
* the deterministic counters repeat exactly: two traced passes of every
  workload, each in a fresh interpreter, give identical values;
* another seed fails on the same jobs, so `failed` does not depend on it.

Exits 1 and names every failed check.  Takes about two minutes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def check_declarations() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS),
           "BENCHMARK.json workloads differ from jobs.WORKLOADS")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS,
           "BENCHMARK.json end_to_end metrics differ from run.E2E_UNITS")
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    expect(declared == list(tracing.METRICS),
           "BENCHMARK.json per_layer metrics differ from tracing.METRICS")
    layers = json.loads((HERE / "layers.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    for name, entry in layers["moves"].items():
        expect(name in per_layer, f"layers.json maps unknown metric {name}")
        for target in entry["moves"]:
            expect(target["metric"] in run.E2E_UNITS and target["workload"] in jobs.WORKLOADS,
                   f"layers.json: bad target {target} for {name}")
    expect(set(layers["shares"]) == set(jobs.WORKLOADS), "layers.json shares miss a workload")


def check_generator() -> None:
    for workload in jobs.WORKLOADS:
        first = jobs.fingerprint(jobs.build_jobs(workload, 7))
        expect(first == jobs.fingerprint(jobs.build_jobs(workload, 7)),
               f"{workload}: seed 7 gave two different job lists")
        prints = {jobs.fingerprint(jobs.build_jobs(workload, seed)) for seed in range(4)}
        expect(len(prints) > 1, f"{workload}: seeds 0-3 all gave one job list")


def check_counters() -> None:
    deadline = time.monotonic() + 600
    for workload in jobs.WORKLOADS:
        a, b = (run.spawn(workload, 3, "trace", k, deadline) for k in range(2))
        expect(a["fingerprint"] == b["fingerprint"], f"{workload}: fingerprints differ")
        for name in tracing.DETERMINISTIC:
            expect(a["layers"][name] == b["layers"][name],
                   f"{workload}: {name} is {a['layers'][name]} then {b['layers'][name]}")
        expect(a["failures"] == b["failures"], f"{workload}: failing jobs differ")
        other = run.spawn(workload, 4, "pass", 0, deadline)
        expect(sorted(other["failures"]) == sorted(a["failures"]),
               f"{workload}: seeds 3 and 4 fail on different jobs")


def main() -> int:
    check_declarations()
    check_generator()
    check_counters()
    for message in problems:
        print(f"FAIL {message}")
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
