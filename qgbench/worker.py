"""One fresh interpreter: set up a workload, optionally run one pass over it.

    python3 qgbench/worker.py --workload W --seed N --mode setup|pass|trace

Prints one JSON object on stdout.  `setup_s` covers importing `quivergrass`
and its CLI module, building the CLI parser, and building the job inputs
from the seed; interpreter start-up is not included.  A pass runs every job
once, in order, each starting after the previous one finished.  In `trace`
mode the spans are written to `.qgbench_out/` next to `qgbench/`.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _cpu() -> float:
    """User + system CPU seconds of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(jobs, tracer=None) -> dict:
    times, failures, wrong = [], {}, 0
    cpu0, wall0 = _cpu(), time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
            index = tracer.open("bench.job")
        result = exc = None
        start = time.perf_counter()
        try:
            result = job.run()
        except Exception as err:  # every failure is a verdict, never fatal
            exc = err
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.close(index)
            index = tracer.open("bench.check")
        verdict = job.check(result, exc)
        if tracer is not None:
            tracer.close(index)
        if verdict is not None:
            failures[job.id] = verdict
            wrong += verdict[0] == "wrong"
    return {"wall_s": time.perf_counter() - wall0, "cpu_s": _cpu() - cpu0,
            "job_s": times, "failures": failures, "wrong": wrong}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    args = parser.parse_args()

    import quivergrass.cli
    import jobs as jobs_mod

    quivergrass.cli.build_parser()
    jobs = jobs_mod.build_jobs(args.workload, args.seed)
    out = {"setup_s": time.perf_counter() - _T0}
    if args.mode != "setup":
        out["jobs"] = len(jobs)
        out["fingerprint"] = jobs_mod.fingerprint(jobs)
        tracer = None
        if args.mode == "trace":
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        out.update(run_pass(jobs, tracer))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            out["layers"] = tracing.layer_metrics(tracer)
            out["absent"] = tracer.absent
            out_dir = ROOT / ".qgbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{args.workload}-s{args.seed}-{args.pass_index}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
