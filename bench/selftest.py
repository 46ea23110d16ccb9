"""Show that every output check rejects a corrupted answer.

    python3 bench/run.py --self-test

Runs each workload's job list once at seed 0.  Every job's real output must
pass its check, and every corrupted copy of it (a wrong value, a missing or
extra path leaf, a failed certificate sample, a wrong witness degree, a
non-zero exit code, ...) must be rejected.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def rejected(job, out) -> bool:
    try:
        return job.check(out) is not None
    except Exception:   # a check that cannot read the answer rejects it
        return True


def main() -> int:
    problems = []
    checked = corrupted = 0
    for workload in workloads.WORKLOADS:
        progs, _, _ = workloads.build_programs(workload)
        for job in workloads.make_jobs(workload, 0, progs):
            out = job.call()
            err = job.check(out)
            checked += 1
            if err is not None:
                problems.append(f"{workload}: {job.name}: correct output rejected: {err}")
            for i, wrong in enumerate(job.corrupt(out)):
                corrupted += 1
                if not rejected(job, wrong):
                    problems.append(f"{workload}: {job.name}: corruption {i} accepted")
    for p in problems:
        print(p)
    print(f"self-test: {checked} outputs accepted, {corrupted - len(problems)}"
          f"/{corrupted} corrupted copies rejected")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
