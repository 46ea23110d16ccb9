"""One benchmark run in a fresh, single-threaded process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

Set-up (imports, program build and parse, input generation) is timed from
the first line of this file.  The run then repeats whole rounds of the
workload's job list until the time is up, timing each job alone; checks run
between jobs, outside the timing.  The first round checks every output in
full; later rounds check that a text snapshot of each output, covering
every field the full check reads, equals the verified one.  Prints
one JSON object on its last line.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from metrics import RUN_SECONDS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_JOBS = 200   # the 95th percentile needs ten samples above it


class Verifier:
    """Full check of a job's first output; equality with it afterwards."""

    def __init__(self):
        self.first: dict[int, tuple] = {}   # job index -> (error, digest, steps)

    def __call__(self, i, job, out) -> tuple[str | None, int | None]:
        if i not in self.first:
            try:
                err = job.check(out)
                steps = job.steps(out) if job.steps else None
                self.first[i] = (err, job.digest(out), steps)
            except Exception as exc:   # a malformed output fails its job
                self.first[i] = (f"check raised {exc!r}", None, None)
        err, digest, steps = self.first[i]
        if err is None and job.digest(out) != digest:
            err = "output differs from the verified first round"
        return err, steps


def run_rounds(jobs, seconds: float, min_rounds: int, verify: Verifier,
               tracer=None) -> dict:
    latencies, round_times, step_times = [], [], []
    steps_per_round = 0
    failed = wrong = 0
    errors: list[str] = []
    start = perf_counter()
    last_wall = 0.0
    while len(round_times) < min_rounds or perf_counter() - start + last_wall <= seconds:
        wall0 = perf_counter()
        job_time = step_time = 0.0
        steps_per_round = 0
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.begin_job(job.name)
            t0 = perf_counter()
            try:
                out = job.call()
                raised = None
            except Exception as exc:
                out, raised = None, f"raised {exc!r}"
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end_job()
                tracer.after_job()
            if raised is None:
                err, steps = verify(i, job, out)
            else:
                err, steps = raised, None
            del out
            latencies.append(dt)
            job_time += dt
            if steps is not None:
                steps_per_round += steps
                step_time += dt
            if err is not None:
                failed += 1
                wrong += raised is None
                if len(errors) < 5:
                    errors.append(f"{job.name}: {err}")
        round_times.append(job_time)
        step_times.append(step_time)
        last_wall = perf_counter() - wall0
    return {"latencies": latencies, "round_times": round_times, "step_times": step_times,
            "steps_per_round": steps_per_round, "failed": failed, "wrong": wrong,
            "errors": errors, "rounds": len(round_times)}


def end_to_end(jobs, r: dict) -> dict:
    lat_ms = sorted(1000 * t for t in r["latencies"])
    metrics = {
        "jobs_per_s": len(jobs) / statistics.median(r["round_times"]),
        "job_p50_ms": statistics.median(lat_ms),
        "job_p95_ms": statistics.quantiles(lat_ms, n=20, method="inclusive")[18],
        "steps_per_s": r["steps_per_round"] / statistics.median(r["step_times"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    progs, build_s, parse_s = workloads.build_programs(args.workload)
    jobs = workloads.make_jobs(args.workload, args.seed, progs)
    setup_s = perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    gc.collect()
    verify = Verifier()
    result = {"setup_s": setup_s, "jobs": len(jobs)}
    if args.trace == 0:
        r = run_rounds(jobs, args.seconds, math.ceil(MIN_JOBS / len(jobs)), verify)
        result["metrics"] = end_to_end(jobs, r)
    else:
        import tracing
        r0 = run_rounds(jobs, args.seconds / 2, 1, verify)
        tracer = tracing.Tracer()
        tracer.install([workloads])
        r = run_rounds(jobs, args.seconds / 2, 1, verify, tracer)
        tracer.uninstall_gc()
        untraced = len(jobs) / statistics.median(r0["round_times"])
        traced = len(jobs) / statistics.median(r["round_times"])
        metrics = tracer.layer_metrics(r["rounds"], build_s, parse_s)
        metrics.update({"trace.jobs_per_s_untraced": untraced,
                        "trace.jobs_per_s_traced": traced,
                        "trace.overhead_ratio": untraced / traced})
        result["metrics"] = metrics
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        for key in ("failed", "wrong"):
            r[key] += r0[key]
        r["errors"] = r0["errors"] + r["errors"]
        r["latencies"] = r0["latencies"] + r["latencies"]
    result.update(attempted=len(r["latencies"]), failed=r["failed"], wrong=r["wrong"],
                  rounds=r["rounds"], errors=r["errors"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
