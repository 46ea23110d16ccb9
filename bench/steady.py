"""Steadiness of the benchmark, and the bounds in BENCHMARK.json.

    python3 bench/steady.py [--runs 10] [--seconds S] [--workloads a,b] [--write]

Runs every workload --runs times, one seed per run, alternating the order
of the workloads between passes so that slow drift of the machine falls on
all of them alike.  For each end-to-end metric and workload it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median.  Raw results go to
bench/out/steady.json.  With --write it rewrites BENCHMARK.json, setting each
metric's bound to three times its largest spread over the workloads, at
least MIN_BOUND and at most MAX_BOUND; setup_s gets MAX_BOUND.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, LAYER_METRICS, RUN_SECONDS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_BOUND = 0.05
MAX_BOUND = 0.25


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--write", action="store_true", help="rewrite BENCHMARK.json")
    args = ap.parse_args()
    names = args.workloads.split(",")
    if args.write and sorted(names) != sorted(WORKLOADS):
        ap.error("--write needs every workload")

    results: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(args.runs):
        for w in (names if i % 2 == 0 else names[::-1]):
            seed = 1 + i
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            res = json.loads(proc.stdout.splitlines()[-1])
            res["seed"] = seed
            results[w].append(res)
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steady.json").write_text(json.dumps(results, indent=1))

    worst: dict[str, float] = {}
    print(f"\n{'metric':<14}{'workload':<11}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}")
    for name, unit, _ in END_TO_END:
        for w in names:
            med, q1, q3, s = spread([r["metrics"][name]["value"] for r in results[w]])
            worst[name] = max(worst.get(name, 0.0), s)
            print(f"{name:<14}{w:<11}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{s:>8.3f}")
    for w in names:
        shares = {r["failed"] / r["attempted"] for r in results[w]}
        print(f"{w}: failed share {sorted(shares)}, attempted "
              f"{min(r['attempted'] for r in results[w])}-"
              f"{max(r['attempted'] for r in results[w])}")

    if args.write:
        def bound(name: str) -> float:
            if name == "setup_s":
                return MAX_BOUND
            return min(MAX_BOUND, max(MIN_BOUND, math.ceil(300 * worst[name]) / 100))

        spec = {
            "command": ["python3", "bench/run.py"],
            "paths": ["bench"],
            "run_seconds": args.seconds,
            "workloads": [{"name": w, "why": WORKLOADS[w]} for w in names],
            "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound(n)}
                           for n, u, b in END_TO_END],
            "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in LAYER_METRICS],
        }
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")
        print("wrote BENCHMARK.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
