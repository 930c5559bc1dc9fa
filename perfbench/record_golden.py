"""Record the artifact fingerprints that default-seed runs are checked against.

    python3 perfbench/record_golden.py

Runs one batch of each workload at the default seed and writes every
artifact's floats to ``perfbench/golden/<workload>.jsonl``.  Re-record only
when an artifact is meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import os
import shutil

import run  # sets the BLAS thread count before numpy loads

import checks
import workloads


def record(workload: str) -> dict:
    work = run.BENCH / "_work" / f"record-{workload}-{os.getpid()}"
    bench = run.Bench(workload, run.DEFAULT_SEED, work)
    try:
        bench.setup()
        batch = bench.batch()
        bad = [c.op.name for c in batch.calls if c.code != 0 or c.error]
        if bad:
            raise SystemExit(f"{workload}: calls failed: {bad}")
        return {c.op.name: checks.fingerprint(c.out)
                for c in batch.calls if c.outcome == "miss"}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> None:
    run.GOLDEN.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        path = run.GOLDEN / f"{workload}.jsonl"
        checks.write_golden(path, record(workload))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
