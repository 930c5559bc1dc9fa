"""Self-tests of the benchmark (not of nilseqlab).

    python3 -m pytest -q perfbench/tests/bench_selftest.py

The file name keeps these out of the repository's default test run; they
take about a minute because they trace real batches.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins the BLAS thread count before numpy loads)
import spans  # noqa: E402
import workloads  # noqa: E402

WORK_COUNTS = (".points", ".atoms", ".cells", ".leaves", ".grid_points", ".samples",
               ".entries", ".candidates", ".rows")


@pytest.fixture()
def traced(tmp_path, monkeypatch):
    """Per-layer totals of one traced batch of a workload at a seed."""
    def trace(workload: str, seed: int):
        bench = run.Bench(workload, seed, tmp_path / f"{workload}-{seed}")
        monkeypatch.setenv(run.CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(run.tempfile, "tempdir", run.tempfile.tempdir)
        bench.setup()
        bench.tracer = spans.Tracer()
        with bench.tracer:
            batch = bench.batch()
        assert all(c.code == 0 and not c.error for c in batch.calls)
        return bench.ops, bench.tracer.metrics()
    return trace


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_configs(tmp_path, workload):
    workloads.generate(workload, 5, tmp_path / "in")
    first = _files(tmp_path / "in")
    shutil.rmtree(tmp_path / "in")
    workloads.generate(workload, 5, tmp_path / "in")
    assert _files(tmp_path / "in") == first
    workloads.generate(workload, 6, tmp_path / "other")
    assert _files(tmp_path / "other") != first


@pytest.mark.parametrize("workload", ("correlate", "structure"))
def test_other_seed_changes_parameters_not_work(traced, workload):
    ops5, layers5 = traced(workload, 5)
    ops6, layers6 = traced(workload, 6)
    assert [op.config for op in ops5] != [op.config for op in ops6]
    work5 = {k: v for k, v in layers5.items() if k.endswith(WORK_COUNTS)}
    work6 = {k: v for k, v in layers6.items() if k.endswith(WORK_COUNTS)}
    assert work5 and work5 == work6


def _count(ops, command, **params) -> int:
    return sum(1 for op in ops if op.command == command and all(
        op.config["params"].get(k) == v for k, v in params.items()))


def _atoms(dictionary: dict) -> int:
    q = dictionary["Q"]
    degrees = dictionary.get("degrees", range(1, dictionary["step"] + 1))
    return q ** len(degrees) + (q * (q - 1) if dictionary.get("include_brackets") else 0)


def test_correlate_counts_match_configs(traced):
    ops, layers = traced("correlate", 7)
    bc_entries = sum(max(op.config["params"]["budget"] - 1, 1)
                     for op in ops if op.command == "class-distance")
    numeric = _count(ops, "correlate", engine="numeric")
    assert layers["systems.correlate_exact.calls"] == \
        _count(ops, "correlate", engine="exact") + bc_entries
    assert layers["systems.correlate_numeric.calls"] == numeric
    assert layers["systems.required_grid_size.calls"] == numeric
    assert layers["systems.corpus_generate.calls"] == _count(ops, "class-distance")
    assert layers["systems.corpus_generate.entries"] == bc_entries
    assert layers["cli.main.calls"] == len(ops)
    assert layers.get("decomposition.atom_matrix.calls", 0) == 0
    assert layers.get("uniformity.ghk_seminorm.o2.calls", 0) == 0


def test_structure_counts_match_configs(traced):
    ops, layers = traced("structure", 7)
    decomposes = [op for op in ops if op.command == "decompose"]
    assert layers.get("systems.correlate_exact.calls", 0) == 0
    for name in ("build_dictionary", "atom_matrix", "decompose"):
        assert layers[f"decomposition.{name}.calls"] == len(decomposes)
    assert layers["decomposition.build_dictionary.atoms"] == \
        sum(_atoms(op.config["params"]["dictionary"]) for op in decomposes)
    assert layers["decomposition.atom_matrix.cells"] == sum(
        _atoms(op.config["params"]["dictionary"]) * op.config["window"]["end"]
        for op in decomposes)
    for order in (2, 3, 4):
        expected = sum(1 for op in ops if op.config["params"].get("order") == order
                       and op.command in ("gowers", "decompose", "anti-uniformity"))
        assert layers[f"uniformity.ghk_seminorm.o{order}.calls"] == expected
    corpus = sum(json.dumps(op.config).count('"corpus"') for op in ops)
    assert layers["systems.corpus_generate.calls"] == corpus
    assert layers["nilmanifolds.eval_nilsequence.heis.calls"] == 1


def test_campaign_counts_match_configs(traced):
    ops, layers = traced("campaign", 7)
    assert layers["experiments.run_experiment.miss.calls"] == len(ops)
    assert layers["experiments.run_experiment.hit.calls"] == len(ops)
    assert layers[spans.HIT_RATIO] == 0.5
    assert layers["signals.read_csv.calls"] == \
        sum(json.dumps(op.config).count('"csv"') for op in ops)


def test_tracer_patches_and_restores_every_binding(tmp_path, monkeypatch):
    bench = run.Bench("campaign", 3, tmp_path / "work")
    monkeypatch.setenv(run.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(run.tempfile, "tempdir", run.tempfile.tempdir)
    bench.setup()
    experiments = sys.modules["nilseqlab.experiments"]
    decomposition = sys.modules["nilseqlab.decomposition"]
    systems = sys.modules["nilseqlab.systems"]

    def bindings():
        return (experiments.correlate_exact, systems.correlate_exact,
                experiments.decompose, decomposition.eval_nilsequence,
                decomposition.ghk_seminorm, systems.Signal.__post_init__)

    before = bindings()
    with spans.Tracer():
        during = bindings()
    assert all(b is not d for b, d in zip(before, during))
    assert during[0] is during[1]
    assert bindings() == before


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# the program's three known defects, and how each shows
KNOWN_DEFECTS = {
    "gowers-order-0": "uncaught ValueError: order must be in 1..6, expected exit code 2",
    "csv-shorter-than-window": "exit code 0, expected exit code 2",
    "csv-rewritten": "stale cache replay after the csv was rewritten",
}


@pytest.mark.parametrize("workload,failures", [("correlate", {}), ("structure", {}),
                                               ("campaign", KNOWN_DEFECTS)])
def test_default_seed_matches_recording(tmp_path, workload, failures):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                          "--seconds", "0", "--trace", "0"],
                         capture_output=True, text=True, check=True)
    result = _last_json(out.stdout)
    assert result["correct"] is True
    reported = dict(line[len("FAILED "):].rsplit(" [", 1)[0].split(": ", 1)
                    for line in out.stdout.splitlines() if line.startswith("FAILED "))
    assert reported == failures
    # one batch: every op once (campaign: a miss and a hit), every case once
    ops, cases = workloads.generate(workload, 1, tmp_path)
    calls = len(ops) * (2 if workload == "campaign" else 1) + len(cases)
    assert (result["attempted"], result["failed"]) == (calls, len(failures))
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_what_runs_report():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == spans.metric_names()
    assert [m["unit"] for m in spec["per_layer"]] == \
        [spans.unit(name) for name in spans.metric_names()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "correlate",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": ""})
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
