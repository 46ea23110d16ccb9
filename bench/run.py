"""Run one workload of the benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a checkout of the repository.  Each run starts fresh,
single-threaded Python processes for the program: SETUP_PROBES processes
that only set up, then the worker that sets up and measures.  setup_s is
the median set-up time of all of them.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from a traced run (see tracing.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, LAYER_METRICS, RUN_SECONDS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 6
TIMEOUT_S = 150


def worker(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")] + args, cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that every check rejects a corrupted answer")
    args = ap.parse_args()
    if not (ROOT / "src" / "bssvm" / "__init__.py").is_file():
        print(f"no bssvm sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=ROOT,
                              timeout=TIMEOUT_S)
        return proc.returncode
    if args.workload is None:
        ap.error("--workload is required")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_PROBES):
            setups.append(worker(common + ["--setup-only"], 60)["setup_s"])
    res = worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                 TIMEOUT_S)
    for err in res["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    metrics = res["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = statistics.median(setups + [res["setup_s"]])
    names = END_TO_END if args.trace == 0 else LAYER_METRICS
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": res["rounds"],
                      "jobs_per_round": res["jobs"]}), file=sys.stderr)
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
