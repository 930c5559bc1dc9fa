"""Benchmark of nilseqlab, driven in-process through ``nilseqlab.cli.main``.

    python3 perfbench/run.py --workload correlate --seed 1 --seconds 30 --trace 0

One single-threaded process sets up the workload (import, generated configs
and CSV inputs, an empty private cache) and runs its batch of CLI calls,
again and again for ``--seconds``, checking the outputs untimed after each
batch.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
spends half the time untraced and half with every layer wrapped, and
reports the per-layer metrics.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# one BLAS thread: a single-threaded process, and decompose's solve must
# not change with the machine's core count
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import typing  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CACHE_ENV = "NILSEQLAB_CACHE_DIR"
DEFAULT_SEED = 1
GOLDEN = BENCH / "golden"
GROUPS = ("correlate", "class-distance", "decompose", "gowers")
END_TO_END = ("setup_s", "wall_s", "miss_p50_ms", "peak_rss_mb")


@dataclass
class Call:
    op: workloads.Op
    out: Path
    outcome: str  # "miss" computes (cache miss or --no-cache), "hit" replays
    code: object
    seconds: float
    error: str = ""


@dataclass
class Batch:
    wall: float
    calls: list
    layers: dict = field(default_factory=dict)


def forget_program() -> None:
    """Drop nilseqlab from the process, so that the next set-up pays for the
    import again.  typing's caches hold the old classes (through the
    ``Union`` aliases), and without clearing them each re-import would keep
    about 0.4 MB alive."""
    for name in [m for m in sys.modules if m == "nilseqlab" or m.startswith("nilseqlab.")]:
        del sys.modules[name]
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()


def import_program():
    nl = importlib.import_module("nilseqlab")
    importlib.import_module("nilseqlab.cli")
    return nl


def invoke(argv):
    """One CLI call; an uncaught exception becomes an error, not a crash."""
    sink = io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = sys.modules["nilseqlab.cli"].main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return code, time.perf_counter() - start, error


class Bench:
    """State of one run: its work directory, configs and results."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.root = self.cache = self.nl = None
        self.ops, self.cases = [], []
        self.digests = {}
        self.setups = []
        self.errors = []
        self.attempted = self.failed = self.wrong = 0
        self.tracer = None

    def setup(self) -> float:
        """Import, inputs (rewritten in place, so config paths stay the same)
        and an empty cache in a new directory for the next batch; returns
        the time it took."""
        self.root = self.work / f"batch-{len(self.setups)}"
        self.cache = self.root / "cache"
        forget_program()
        start = time.perf_counter()
        self.nl = import_program()
        self.ops, self.cases = workloads.generate(self.workload, self.seed,
                                                  self.work / "inputs")
        self.cache.mkdir(parents=True)
        elapsed = time.perf_counter() - start
        os.environ[CACHE_ENV] = str(self.cache)
        (self.root / "tmp").mkdir()
        tempfile.tempdir = str(self.root / "tmp")
        return elapsed

    def argv(self, op, out: Path, cache: bool):
        argv = [op.command, "--config", op.config_path, "--out", str(out)]
        return argv if cache else argv + ["--no-cache"]

    def run(self, op, out: Path, outcome: str, cache: bool) -> Call:
        if self.tracer is not None:
            self.tracer.experiment = f"{op.name}:{outcome}"
        return Call(op, out, outcome, *invoke(self.argv(op, out, cache)))

    def batch(self) -> Batch:
        """The timed unit: every op once (compute workloads, cache off), or
        every op as a miss then at once as a hit (campaign, cache on)."""
        root = self.root / "out"
        campaign = self.workload == "campaign"
        calls = []
        start = time.perf_counter()
        for op in self.ops:
            calls.append(self.run(op, root / "miss" / op.name, "miss", campaign))
            if campaign:
                calls.append(self.run(op, root / "hit" / op.name, "hit", True))
        wall = time.perf_counter() - start
        return Batch(wall, calls)

    def fail(self, label: str, message: str, case: bool = False) -> None:
        """Count a failed operation; ``wrong`` counts those of regular
        calls, which make the run incorrect."""
        self.failed += 1
        self.wrong += not case
        self.errors.append((label, message))

    def check_batch(self, batch: Batch, index: int) -> None:
        """Untimed: exit codes, hit == miss bytes, the oracles on the first
        batch and byte identity with it on later ones, and, for the default
        seed, the recorded values."""
        golden = None
        if self.seed == DEFAULT_SEED and index == 0:
            golden = checks.read_golden(GOLDEN / f"{self.workload}.jsonl")
        misses = {c.op.name: c for c in batch.calls if c.outcome == "miss"}
        for call in batch.calls:
            self.attempted += 1
            label = f"{call.op.name}:{call.outcome}"
            if call.error or call.code != 0:
                self.fail(label, call.error or f"exit code {call.code}")
                continue
            if call.outcome == "hit":
                if not checks.same_bytes(call.out, misses[call.op.name].out):
                    self.fail(label, "cache hit differs from its miss")
                continue
            digest = checks.artifact_digest(call.out)
            if call.op.name not in self.digests:
                self.digests[call.op.name] = digest
                error = checks.check_op(self.nl, call.op, call.out)
            elif self.digests[call.op.name] != digest:
                error = "artifacts differ from the first batch"
            else:
                error = None
            if error is None and golden is not None:
                error = checks.compare_fingerprint(checks.fingerprint(call.out),
                                                   golden[call.op.name])
            if error:
                self.fail(label, error)

    def loop(self, seconds: float, first_index: int, traced: bool) -> list:
        """Set up, run and check batches until ``seconds`` of batch time.

        Every batch gets its own set-up, so that set-up samples spread over
        the run like the batches do, and every batch starts from a fresh
        import and an empty cache.
        """
        batches, timed = [], 0.0
        while timed < seconds or not batches:
            self.setups.append(self.setup())
            index = first_index + len(batches)
            if traced:
                mark = len(self.tracer.spans)
                with self.tracer:
                    batch = self.batch()
                batch.layers = self.tracer.metrics(mark)
            else:
                batch = self.batch()
            self.check_batch(batch, index)
            self.integrity_cases()
            # delete now: files kept for the whole run reach the disk, and
            # campaign batches then slowed from run to run
            shutil.rmtree(self.root)
            batches.append(batch)
            timed += batch.wall
        return batches

    def integrity_cases(self) -> None:
        """Refusals and the stale-cache case, untimed, after every batch, in
        a temp dir and an empty cache of their own.  Once per batch, so
        that failed / attempted is the same in every run, however many
        batches fit in it."""
        root = self.root / "cases"
        for sub in ("tmp", "cache"):
            (root / sub).mkdir(parents=True)
        tempfile.tempdir = str(root / "tmp")
        os.environ[CACHE_ENV] = str(root / "cache")
        for case in self.cases:
            self.attempted += 1
            out = root / "out" / case.name
            code, _, error = invoke(self.argv(case, out, True))
            if case.expect != "recompute":
                if code != case.expect:
                    got = f"uncaught {error}" if error else f"exit code {code}"
                    self.fail(case.name, f"{got}, expected exit code {case.expect}",
                              case=True)
                continue
            if error or code:
                got = f"uncaught {error}" if error else f"exit code {code}"
                self.fail(case.name, f"first run failed: {got}", case=True)
                continue
            shutil.copyfile(case.replacement, case.csv_path)
            replay = invoke(self.argv(case, root / "out" / "replay", True))
            fresh = invoke(self.argv(case, root / "out" / "fresh", False))
            if replay[2] or fresh[2] or replay[0] or fresh[0]:
                self.fail(case.name, "a run after the csv was rewritten failed",
                          case=True)
            elif checks.artifact_digest(root / "out" / "replay") != \
                    checks.artifact_digest(root / "out" / "fresh"):
                self.fail(case.name, "stale cache replay after the csv was rewritten",
                          case=True)


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarise(batches: list, setups: list) -> dict:
    """Every end-to-end figure; the gated ones are END_TO_END."""
    out = {"setup_s": (statistics.median(setups), "s", len(setups)),
           "wall_s": (statistics.median(b.wall for b in batches), "s", len(batches))}
    for group in GROUPS:
        sums = [sum(c.seconds for c in b.calls if c.op.group == group and c.outcome == "miss")
                for b in batches]
        if any(sums):
            out[f"{group}_s"] = (statistics.median(sums), "s", len(sums))
    for outcome in ("miss", "hit"):
        lat = [1e3 * c.seconds for b in batches for c in b.calls if c.outcome == outcome]
        if len(lat) >= 2:
            out[f"{outcome}_p50_ms"] = (statistics.median(lat), "ms", len(lat))
            out[f"{outcome}_p90_ms"] = (percentile(lat, 90), "ms", len(lat))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    return out


def environment(seed: int, workload: str) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False).stdout.strip()
    return {"workload": workload, "seed": seed, "git_sha": sha,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas_threads": BLAS_THREADS, "cpus": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nilseqlab").is_dir():
        print(f"nilseqlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, work)
    try:
        if args.trace:
            bench.tracer = spans.Tracer()
            plain = bench.loop(args.seconds / 2, 0, traced=False)
            traced = bench.loop(args.seconds / 2, len(plain), traced=True)
            figures = summarise(plain, bench.setups)
            metrics = spans.median_metrics(
                [b.layers for b in traced],
                statistics.median(b.wall for b in plain),
                statistics.median(b.wall for b in traced))
            units = {name: spans.unit(name) for name in metrics}
            (BENCH / "_out").mkdir(exist_ok=True)
            bench.tracer.write(BENCH / "_out" / f"spans-{args.workload}.jsonl")
        else:
            batches = bench.loop(args.seconds, 0, traced=False)
            figures = summarise(batches, bench.setups)
            metrics = {name: figures[name][0] for name in END_TO_END}
            units = {name: figures[name][1] for name in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(environment(args.seed, args.workload), sort_keys=True))
    for name, (value, unit, count) in figures.items():
        print(f"{name:<22} {value:>12.4f} {unit:<5} n={count}")
    print(f"{'failed_frac':<22} {bench.failed / bench.attempted:>12.4f} ratio "
          f"n={bench.attempted}")
    for (label, message), count in collections.Counter(bench.errors).items():
        print(f"FAILED {label}: {message} [{count}x]")
    print(json.dumps({
        "correct": bench.wrong == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
