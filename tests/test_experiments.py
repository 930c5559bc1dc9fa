"""Tests for configs, the runner, caching, subsequences, and the CLI."""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nilseqlab import (
    BracketPhase,
    BudgetError,
    ConfigError,
    PolynomialPhase,
    Signal,
    Window,
    class_distance,
    config_from_dict,
    constant_signal,
    density_seminorm,
    eval_nilsequence,
    run_experiment,
    subsequence_average,
)
from nilseqlab import experiments
from nilseqlab.cli import main as cli_main
from nilseqlab.experiments import (KINDS, SubsequenceSpec, build_signal, load_config,
                                   parse_signal_spec)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("NILSEQLAB_CACHE_DIR", str(tmp_path / "cache"))


def base_config(kind: str, params: dict, *, start=0, end=256, seed=0) -> dict:
    return {
        "kind": kind,
        "window": {"start": start, "end": end},
        "params": params,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_unknown_field_rejected():
    raw = base_config("gowers", {"target": {"kind": "noise"}, "order": 2})
    raw["surprise"] = 1
    with pytest.raises(ConfigError, match="unknown field 'surprise'"):
        config_from_dict(raw)


def test_unknown_param_rejected():
    raw = base_config("gowers", {"target": {"kind": "noise"}, "order": 2,
                                 "bogus": 3})
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict(raw)


def test_unknown_kind_rejected():
    raw = base_config("eigenvalues", {})
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        config_from_dict(raw)


def test_bad_window_rejected():
    raw = base_config("gowers", {"target": {"kind": "noise"}, "order": 2})
    raw["window"] = {"start": 5, "end": 5}
    with pytest.raises(ConfigError, match="window"):
        config_from_dict(raw)


def test_bad_signal_spec_rejected():
    raw = base_config("gowers", {"target": {"kind": "sawtooth"}, "order": 2})
    with pytest.raises(ConfigError, match="unknown signal kind"):
        config_from_dict(raw)


def test_json_syntax_error_reports_line(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{\n  "kind": "gowers",\n  oops\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(path)


# ---------------------------------------------------------------------------
# signal specs
# ---------------------------------------------------------------------------

def test_build_signal_kinds():
    w = Window(0, 64)
    rng = np.random.default_rng(0)

    def build(spec, seed=0):
        return build_signal(parse_signal_spec(spec, w, "target", {}), rng, seed)

    lin = build({"kind": "linear_phase", "alpha": 0.25})
    assert np.allclose(lin.values[:4], [1, 1j, -1, -1j], atol=1e-12)
    alt = build({"kind": "alternating"})
    assert np.allclose(alt.values[:4], [1, -1, 1, -1])
    spike = build({"kind": "spike", "positions": [3]})
    assert spike.values[3] == 1.0 and np.sum(np.abs(spike.values)) == 1.0
    noise = build({"kind": "noise"})
    assert np.max(np.abs(np.abs(noise.values) - 1.0)) < 1e-12
    member = build({"kind": "corpus", "family": "C", "ell": 2, "index": 1}, seed=4)
    assert member.window == w
    bracket = build({"kind": "bracket_phase", "quad": 0.1, "cross": 0.2,
                     "alpha": 0.3, "linear": 0.4})
    assert np.array_equal(bracket.values, eval_nilsequence(
        BracketPhase(0.1, 0.2, 0.3, 0.4), w).values)


@pytest.mark.parametrize("target", [
    {"kind": "noise"},
    {"kind": "spike", "positions": [5]},
    {"kind": "corpus", "family": "C", "ell": 2, "index": 0},
    {"kind": "polynomial_phase", "coefficients": [0.0, 0.5]},
])
def test_load_allocates_no_signal(target):
    """Loading a config, and so serving a cache hit, builds no signal."""
    raw = base_config("vdc-check", {"target": target, "H": 8}, end=2**20)
    tracemalloc.start()
    try:
        config_from_dict(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # one window of complex values takes 16 MiB


def test_spike_outside_window_rejected():
    with pytest.raises(ConfigError, match="target.positions: .* outside the window"):
        parse_signal_spec({"kind": "spike", "positions": [99]}, Window(0, 8),
                          "target", {})


# ---------------------------------------------------------------------------
# subsequences
# ---------------------------------------------------------------------------

def test_subsequence_even_indices_of_alternating():
    w = Window(0, 300)
    alt = Signal(w, np.where(w.indices() % 2 == 0, 1.0, -1.0))
    table = subsequence_average(alt, SubsequenceSpec("arithmetic", q=2),
                                checkpoints=[10, 50, 100])
    assert all(v == 1.0 for v in table.averages)
    assert table.max_successive_diff == 0.0


def test_subsequence_identity_matches_window_mean():
    rng = np.random.default_rng(17)
    w = Window(0, 200)
    sig = Signal(w, rng.normal(size=200) + 1j * rng.normal(size=200))
    table = subsequence_average(sig, SubsequenceSpec("identity"),
                                checkpoints=[40])
    expected = np.mean(sig.restrict(Window(1, 41)).values)
    assert table.averages[0] == pytest.approx(expected, abs=1e-12)


def test_subsequence_alternating_identity_values():
    w = Window(0, 64)
    alt = Signal(w, np.where(w.indices() % 2 == 0, 1.0, -1.0))
    table = subsequence_average(alt, SubsequenceSpec("identity"),
                                checkpoints=[9, 10])
    # averages of (-1)^n from n=1: -1/N for odd N, 0 for even N
    assert table.averages[0] == pytest.approx(-1.0 / 9)
    assert table.averages[1] == 0.0


def test_subsequence_growth_constants():
    sqrt_spec = SubsequenceSpec("sqrt-perturbed")
    terms = sqrt_spec.generate(100)
    assert np.all(np.diff(terms) > 0)
    assert sqrt_spec.growth_constant(terms) <= 2.0
    rand_spec = SubsequenceSpec("random-density", density=0.5)
    terms = rand_spec.generate(50, seed=11)
    assert np.all(np.diff(terms) > 0)
    assert rand_spec.growth_constant(terms) < 10.0


def test_subsequence_window_exhausted_names_checkpoint():
    w = Window(0, 100)
    sig = constant_signal(1.0, w)
    with pytest.raises(ValueError, match="largest usable checkpoint is 49"):
        subsequence_average(sig, SubsequenceSpec("arithmetic", q=2),
                            checkpoints=[60])


def test_subsequence_draws_no_more_terms_than_the_window_holds(monkeypatch):
    asked = []
    generate = SubsequenceSpec.generate

    def spy(self, count, *args, **kwargs):
        asked.append(count)
        return generate(self, count, *args, **kwargs)

    monkeypatch.setattr(SubsequenceSpec, "generate", spy)
    sig = constant_signal(1.0, Window(0, 64))
    with pytest.raises(ValueError, match="largest usable checkpoint is 63"):
        subsequence_average(sig, SubsequenceSpec("identity"),
                            checkpoints=[4, 10**7])
    assert asked and max(asked) <= 64


def test_subsequence_rotation_geometric_bound():
    alpha = 0.2901
    w = Window(0, 4097)
    sig = eval_nilsequence(PolynomialPhase((0.0, alpha)), w)
    table = subsequence_average(sig, SubsequenceSpec("identity"),
                                checkpoints=[512, 1024, 2048, 4096])
    for n, avg in zip(table.checkpoints, table.averages):
        bound = 2.0 / (n * abs(1 - np.exp(2j * np.pi * alpha)))
        assert abs(avg) <= bound


# ---------------------------------------------------------------------------
# class distance
# ---------------------------------------------------------------------------

def test_class_distance_member_is_found():
    w = Window(0, 512)
    target = eval_nilsequence(PolynomialPhase((0.0, 8 / 64)), w)
    res = class_distance(target, "A", 2, budget=70, scale=512, seed=0)
    assert res.best_distance < 1e-9
    assert "0.125" in res.witness


def test_class_distance_monotone_in_budget():
    rng = np.random.default_rng(23)
    w = Window(0, 256)
    target = Signal(w, np.exp(2j * np.pi * rng.random(256)), 1.0)
    for ell in (1, 2):
        prev = None
        for budget in (1, 8, 40):
            res = class_distance(target, "A", ell, budget=budget, scale=256, seed=5)
            assert res.evaluated <= budget
            if prev is not None:
                assert res.best_distance <= prev + 1e-15
            prev = res.best_distance


def test_class_distance_never_exceeds_zero_candidate():
    rng = np.random.default_rng(29)
    w = Window(0, 128)
    target = Signal(w, 0.5 * rng.normal(size=128))
    for family in ("A", "B", "C"):
        res = class_distance(target, family, 2, budget=6, scale=128, seed=3)
        assert res.best_distance <= density_seminorm(target, 128) + 1e-12


# ---------------------------------------------------------------------------
# runner determinism and caching
# ---------------------------------------------------------------------------

def run_twice(raw: dict, tmp_path, use_cache=True):
    cfg = config_from_dict(raw)
    return tuple(run_experiment(cfg, tmp_path / out, use_cache=use_cache)
                 for out in ("run1", "run2"))


def test_rerun_with_cache_is_byte_identical(tmp_path):
    raw = base_config("gowers", {
        "target": {"kind": "quadratic_phase", "gamma": 1.4142135623730951},
        "order": 2, "H": 16,
    })
    r1, r2 = run_twice(raw, tmp_path)
    assert not r1.cache_hit and r2.cache_hit
    assert r1.artifacts == r2.artifacts
    for name in r1.artifacts:
        b1 = (r1.out_dir / name).read_bytes()
        b2 = (r2.out_dir / name).read_bytes()
        assert b1 == b2, name


def test_rerun_without_cache_deterministic_results(tmp_path):
    raw = base_config("decompose", {
        "target": {"kind": "corpus", "family": "C", "ell": 2, "index": 0,
                   "variant": "rotations", "freq_grid": 16},
        "order": 2, "epsilon": 0.1, "H": 16,
        "dictionary": {"step": 1, "Q": 16},
    }, seed=3)
    r1, r2 = run_twice(raw, tmp_path, use_cache=False)
    assert not r1.cache_hit and not r2.cache_hit
    for name in r1.artifacts:
        if name == "manifest.json":
            continue  # carries wall time
        assert (r1.out_dir / name).read_bytes() == (r2.out_dir / name).read_bytes()
    assert {"decomposition.json", "a_st.csv", "a_er.csv"} <= set(r1.artifacts)


def test_vdc_and_anti_uniformity_kinds(tmp_path):
    raw = base_config("vdc-check", {"target": {"kind": "alternating"}, "H": 16})
    r, _ = run_twice(raw, tmp_path)
    payload = json.loads((r.out_dir / "vdc.json").read_text())
    assert payload["lhs"] == pytest.approx(0.0)
    assert payload["rhs"] == pytest.approx(4.0)

    raw = base_config("anti-uniformity", {
        "a": {"kind": "linear_phase", "alpha": 0.3},
        "b": {"kind": "constant"}, "order": 1, "H": 8,
    })
    r, _ = run_twice(raw, tmp_path)
    payload = json.loads((r.out_dir / "anti_uniformity.json").read_text())
    assert payload["bound"] == pytest.approx(4.0)


def test_correlate_and_subseq_kinds(tmp_path):
    raw = base_config("correlate", {
        "system": {"dimension": 1,
                   "transformations": [{"matrix": [[1]], "alpha": [0.25]},
                                       {"matrix": [[1]], "alpha": [0.5]}]},
        "observables": [[{"k": [1]}], [{"k": [-1]}]],
        "iterates": [[[0, 1], [0]], [[0], [0, 1]]],
        "engine": "numeric", "grid": 4,
    }, end=16)
    r, _ = run_twice(raw, tmp_path)
    assert "correlation.csv" in r.artifacts

    raw = base_config("subseq-avg", {}, end=64)
    raw["kind"] = "subsequence-average"
    raw["params"] = {
        "target": {"kind": "alternating"},
        "subsequence": {"kind": "arithmetic", "q": 2},
        "checkpoints": [8, 16],
    }
    r, _ = run_twice(raw, tmp_path)
    payload = json.loads((r.out_dir / "subsequence_average.json").read_text())
    assert payload["averages"][0]["re"] == 1.0
    assert "Cauchy" in payload["note"]


def test_interpolate_and_class_distance_kinds(tmp_path):
    raw = base_config("interpolate-check", {"cases": 20}, end=8)
    r, _ = run_twice(raw, tmp_path)
    payload = json.loads((r.out_dir / "interpolation.json").read_text())
    assert payload["max_error"] < 1e-12

    raw = base_config("class-distance", {
        "target": {"kind": "linear_phase", "alpha": 0.125},
        "family": "A", "ell": 2, "budget": 20, "Q": 8,
    }, end=128)
    r, _ = run_twice(raw, tmp_path)
    payload = json.loads((r.out_dir / "class_distance.json").read_text())
    assert payload["best_distance"] < 1e-9


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_config(tmp_path, raw) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_success_and_artifacts(tmp_path, capsys):
    raw = base_config("gowers", {"target": {"kind": "constant"}, "order": 2,
                                 "H": 8})
    code = cli_main(["gowers", "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "gowers_report.json" in out
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_config_error_exit_2(tmp_path, capsys):
    raw = base_config("gowers", {"target": {"kind": "nope"}, "order": 2})
    code = cli_main(["gowers", "--config", write_config(tmp_path, raw)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_kind_mismatch_exit_2(tmp_path, capsys):
    raw = base_config("gowers", {"target": {"kind": "constant"}, "order": 1})
    code = cli_main(["vdc-check", "--config", write_config(tmp_path, raw)])
    assert code == 2


def test_cli_budget_error_exit_3(tmp_path, capsys):
    raw = base_config("decompose", {
        "target": {"kind": "constant"},
        "order": 2, "epsilon": 0.1, "H": 8,
        "dictionary": {"step": 2, "Q": 64, "budget": 16},
    })
    code = cli_main(["decompose", "--config", write_config(tmp_path, raw)])
    assert code == 3
    assert "budget error" in capsys.readouterr().err


def test_dictionary_over_its_budget_is_refused_at_load():
    # 64^2 = 4,096 atoms over a budget of 1,000: refused before the target
    # is built, where decompose refused it once the target was built
    raw = base_config("decompose", {
        "target": {"kind": "noise"}, "order": 2, "epsilon": 0.1,
        "dictionary": {"step": 2, "Q": 64, "budget": 1000}})
    with pytest.raises(BudgetError, match=r"^<config>\.params\.dictionary\.budget: "
                                          r"dictionary would hold 4096 atoms"):
        config_from_dict(raw)


def test_cli_missing_config_file_exit_2(tmp_path, capsys):
    code = cli_main(["gowers", "--config", str(tmp_path / "absent.json")])
    assert code == 2


def test_cli_seed_override_changes_hash(tmp_path, capsys):
    raw = base_config("vdc-check", {"target": {"kind": "noise"}, "H": 8},
                      seed=1)
    path = write_config(tmp_path, raw)
    assert cli_main(["vdc-check", "--config", path,
                     "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["vdc-check", "--config", path, "--seed", "2",
                     "--out", str(tmp_path / "b")]) == 0
    ja = json.loads((tmp_path / "a" / "vdc.json").read_text())
    jb = json.loads((tmp_path / "b" / "vdc.json").read_text())
    assert ja != jb


def run_cli(tmp_path, raw, out="out", *options) -> int:
    """Run a config through the CLI under its kind's registered command."""
    command = KINDS[raw["kind"]].command or raw["kind"]
    return cli_main([command, "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / out), *options])


ROTATIONS = {
    "system": {"dimension": 1,
               "transformations": [{"matrix": [[1]], "alpha": [0.25]},
                                   {"matrix": [[1]], "alpha": [0.5]}]},
    "observables": [[{"k": [1]}], [{"k": [-1]}]],
    "iterates": [[[0, 1], [0]], [[0], [0, 1]]],
}

# one small config (params, window end) per experiment kind
KIND_CONFIGS = {
    "gowers": ({"target": {"kind": "constant"}, "order": 2, "H": 8}, 64),
    "correlate": (ROTATIONS, 16),
    "decompose": ({"target": {"kind": "linear_phase", "alpha": 0.25},
                   "order": 2, "epsilon": 0.1, "H": 8,
                   "dictionary": {"step": 1, "Q": 8}}, 64),
    "vdc-check": ({"target": {"kind": "alternating"}, "H": 8}, 64),
    "anti-uniformity": ({"a": {"kind": "noise"}, "b": {"kind": "noise"},
                         "order": 2, "H": 8}, 64),
    "interpolate-check": ({"cases": 4}, 8),
    "class-distance": ({"target": {"kind": "linear_phase", "alpha": 0.125},
                        "family": "B", "ell": 2, "budget": 4, "Q": 8}, 64),
    "subsequence-average": ({"target": {"kind": "alternating"},
                             "subsequence": {"kind": "random-density",
                                             "density": 0.5},
                             "checkpoints": [4, 8]}, 64),
}


def test_kind_configs_cover_the_registry():
    assert KIND_CONFIGS.keys() == KINDS.keys()


# digests of KIND_CONFIGS (seed 0, window from 0): parsing params into typed
# runner arguments keeps the raw params, so cache keys never move
PINNED_DIGESTS = {
    "gowers": "02c669021296cd57b8593d33a2ea91460f5c8ad4493e7872b995f5cd6084b653",
    "correlate": "7438b5a3f41d7fa0a7bf948fe9c14c9ea42e834de7991361fe37e2d6c2ac8d88",
    "decompose": "ea886ab986b830761d4873a4dd18a6bfbf6a3b55bf5e0e5b4100d66a188198c3",
    "vdc-check": "77611a98b31b38fb61ddebf5f8fc3847f49fd3c77b0f7110df92a5278a29d509",
    "anti-uniformity": "bc6917c5e6b2697ac3da03ffa777a492bcdad5799f539046f9cf9abcb8ab1140",
    "interpolate-check": "003666c5e79321b1d8669018c338ee17387fda37f61e52141950435bb77b9923",
    "class-distance": "57ac8301af6eac285e50aa485fa82a8c682b612baa9dab8a3fda4f7014ace8c0",
    "subsequence-average": "518dca27eaef9913d1ad97e358f2aa724f70e6eea7718307e0b1cfacd4648950",
}


@pytest.mark.parametrize("kind", KINDS)
def test_kind_config_digest_is_pinned(kind):
    params, end = KIND_CONFIGS[kind]
    assert config_from_dict(base_config(kind, params, end=end)).digest() \
        == PINNED_DIGESTS[kind]


@pytest.mark.parametrize("kind,overrides,field", [
    ("vdc-check", {"H": 64}, "H"),            # the window has 64 points
    ("class-distance", {"L": 100}, "L"),
    ("correlate", {"system": {"dimension": 2, "transformations": [
        {"matrix": [[1, 0], [1, 1]], "alpha": [0.25, 0]},
        {"matrix": [[1, 1], [0, 1]], "alpha": [0.5, 0]}]},
        "observables": [[{"k": [1, 0]}], [{"k": [0, 1]}]]}, "system"),
])
def test_window_and_system_checks_run_at_load(kind, overrides, field):
    """Values that only the window or the built query can refute are
    refused by config_from_dict, not first by run_experiment."""
    params, end = KIND_CONFIGS[kind]
    with pytest.raises(ConfigError, match=rf"<config>\.params\.{field}"):
        config_from_dict(base_config(kind, dict(params, **overrides), end=end))


@pytest.mark.parametrize("kind,overrides,field", [
    ("correlate", {"system": {"dimension": "x", "transformations": []}},
     "system.dimension"),
    ("correlate", {"system": {"dimension": 1, "transformations": [
        {"matrix": [[1.5]], "alpha": [0.25]}, {"matrix": [[1]], "alpha": [0.5]}]}},
     "system.transformations.matrix"),
    ("decompose", {"dictionary": {"step": 1, "Q": 1.5}}, "dictionary.Q"),
    ("subsequence-average", {"subsequence": {"kind": "arithmetic", "q": 0.5}},
     "subsequence.q"),
])
def test_refused_read_names_its_dotted_field(kind, overrides, field):
    """A refused read inside a block names its full dotted field, with no
    inner ``name:`` segment after the block's field."""
    params, end = KIND_CONFIGS[kind]
    with pytest.raises(ConfigError) as info:
        config_from_dict(base_config(kind, dict(params, **overrides), end=end))
    assert str(info.value).startswith(f"<config>.params.{field}: ")


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_runs_under_its_command(kind, tmp_path, capsys):
    params, end = KIND_CONFIGS[kind]
    raw = base_config(kind, params, end=end, seed=1)
    printed = []
    for out in ("first", "second"):
        assert run_cli(tmp_path, raw, out) == 0
        printed.append(capsys.readouterr().out.splitlines())
    assert "[computed]" in printed[0][0] and "[cache]" in printed[1][0]
    names = [line.strip() for line in printed[0][1:]]
    manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
    assert names == sorted(manifest["artifacts"] + ["manifest.json"])
    assert printed[1][1:] == printed[0][1:]
    for name in names:
        assert ((tmp_path / "first" / name).read_bytes()
                == (tmp_path / "second" / name).read_bytes()), name


@pytest.mark.parametrize("kind,field,value", [
    ("gowers", "window", 5),
    ("subsequence-average", "subsequence", 5),
    ("decompose", "dictionary", [1, 2]),
    ("correlate", "system", 5),
])
def test_cli_non_object_value_exit_2(kind, field, value, tmp_path, capsys):
    params, end = KIND_CONFIGS[kind]
    raw = base_config(kind, params, end=end)
    if field == "window":
        raw["window"] = value
    else:
        raw["params"] = dict(params, **{field: value})
    assert run_cli(tmp_path, raw) == 2
    assert "must be an object" in capsys.readouterr().err


# a valid spec whose built values exceed decompose's sup-norm bound of 1
UNBOUNDED_TARGET = {"kind": "constant", "re": 2.0}


# a dense unipotent map of dimension 8 (at MAX_DIMENSION), and the
# lower-bidiagonal one
JORDAN8 = [[1 if j <= i else 0 for j in range(8)] for i in range(8)]
BIDIAGONAL8 = [[int(j in (i - 1, i)) for j in range(8)] for i in range(8)]


def skew_copies(count: int) -> dict:
    """``count`` copies of the skew map (x + 0.25, y + x), slots at n and n^2."""
    return {"system": {"dimension": 2, "transformations": [
                {"matrix": [[1, 0], [1, 1]], "alpha": [0.25, 0]}] * count},
            "observables": [[{"k": [0, 1]}], [{"k": [0, -1]}]],
            "iterates": [[[0, 1], [0, 0, 1]]] * count}


@pytest.mark.parametrize("kind,overrides,field", [
    ("decompose", {"dictionary": {"step": 5, "Q": 8}}, "dictionary"),
    ("decompose", {"dictionary": {"step": 1, "Q": 8, "ridge": -1}}, "dictionary"),
    ("decompose", {"dictionary": {"step": 1, "Q": 0}}, "dictionary"),
    ("decompose", {"dictionary": {"step": 2, "Q": 4, "degrees": [3]}}, "dictionary"),
    ("class-distance", {"budget": 0}, "budget"),
    ("class-distance", {"budget": "many"}, "budget"),
    ("class-distance", {"ell": 0}, "ell"),
    ("class-distance", {"ell": 5}, "ell"),
    ("class-distance", {"family": "A", "ell": 4}, "ell"),
    ("class-distance", {"L": 0}, "L"),
    ("class-distance", {"L": 65}, "L"),  # the window has 64 points
    ("class-distance", {"Q": -1}, "Q"),
    ("subsequence-average", {"checkpoints": [0, 4]}, "checkpoints"),
    ("subsequence-average", {"checkpoints": []}, "checkpoints"),
    ("correlate", {"system": {"dimension": 1, "transformations": [
        {"matrix": [[2]], "alpha": [0.25]},
        {"matrix": [[1]], "alpha": [0.5]}]}}, "system"),  # not unipotent
    ("correlate", {"system": {"dimension": 2, "transformations": [
        {"matrix": [[1, 0], [1, 1]], "alpha": [0.25, 0]},
        {"matrix": [[1, 1], [0, 1]], "alpha": [0.5, 0]}]},
        "observables": [[{"k": [1, 0]}], [{"k": [0, 1]}]]}, "system"),  # skews do not commute
    ("correlate", {"engine": "numeric", "grid": 1}, "grid"),
    ("correlate", {"engine": "numeric", "grid": "abc"}, "grid"),
    ("gowers", {"target": {"kind": "linear_phase", "alpha": "x"}}, "target"),
    ("gowers", {"target": {"kind": "polynomial_phase",
                           "coefficients": [0, 0, 0, 0, 0.5]}}, "target"),
    ("gowers", {"target": {"kind": "corpus", "family": "D", "ell": 2,
                           "index": 0}}, "target"),
    ("gowers", {"target": {"kind": "corpus", "family": "B", "ell": 7,
                           "index": 0}}, "target"),
    ("gowers", {"target": {"kind": "corpus", "family": "C", "ell": 2,
                           "index": 0, "variant": "x"}}, "target"),
    ("gowers", {"target": {"kind": "constant", "re": "nan"}}, "target"),
    ("anti-uniformity", {"b": {"kind": "linear_phase", "alpha": "x"}}, "b"),
    ("gowers", {"target": {"kind": "corpus", "family": "C", "ell": 2,
                           "index": 8}}, "target"),  # count defaults to 8
    # non-finite coefficients, under both engines
    ("correlate", {"observables": [[{"k": [1], "re": math.nan}],
                                   [{"k": [-1]}]]}, "observables"),
    ("correlate", {"observables": [[{"k": [1], "re": math.nan}],
                                   [{"k": [-1]}]],
                   "engine": "numeric", "grid": 4}, "observables"),
    ("correlate", {"observables": [[{"k": [1]}],
                                   [{"k": [-1], "im": math.inf}]]},
     "observables"),
    ("correlate", {"observables": [[{"k": [1]}],
                                   [{"k": [-1], "im": math.inf}]],
                   "engine": "numeric", "grid": 4}, "observables"),
    # integer fields that would be truncated
    ("correlate", {"engine": "numeric", "grid": 4.7}, "grid"),
    ("correlate", {"observables": [[{"k": [1.9]}], [{"k": [-1]}]]},
     "observables"),
    ("correlate", {"iterates": [[[0, 1.5], [0]], [[0], [0, 1]]]}, "iterates"),
    ("correlate", {"iterates": [[[0, True], [0]], [[0], [0, 1]]]}, "iterates"),
    ("correlate", {"system": {"dimension": 1.5, "transformations": [
        {"matrix": [[1]], "alpha": [0.25]},
        {"matrix": [[1]], "alpha": [0.5]}]}}, "system"),
    ("vdc-check", {"H": 8.6}, "H"),
    ("class-distance", {"ell": 2.5}, "ell"),
    ("class-distance", {"L": True}, "L"),
    ("gowers", {"H": 8.6}, "H"),
    ("interpolate-check", {"cases": 2.5}, "cases"),
    ("gowers", {"target": {"kind": "corpus", "family": "C", "ell": 2,
                           "index": 0.5}}, "target"),
    ("decompose", {"dictionary": {"step": 2, "Q": 4, "degrees": [1.5]}},
     "dictionary"),
    # epsilon must be a finite positive number: NaN would be written into
    # decomposition.json as invalid JSON
    ("decompose", {"epsilon": math.nan}, "epsilon"),
    ("decompose", {"epsilon": -1}, "epsilon"),
    ("decompose", {"epsilon": "x"}, "epsilon"),
    ("decompose", {"epsilon": True}, "epsilon"),
    ("decompose", {"dictionary": {"step": 1, "Q": 8, "ridge": math.nan}},
     "dictionary"),
    ("decompose", {"dictionary": {"step": 1, "Q": 8,
                                  "include_brackets": "no"}}, "dictionary"),
    ("vdc-check", {"H": 0}, "H"),
    ("vdc-check", {"H": 64}, "H"),  # the window has 64 points
    ("interpolate-check", {"cases": -1}, "cases"),
    ("interpolate-check", {"cases": 4, "ell": 1}, "ell"),
    ("interpolate-check", {"cases": 4, "ell": 9}, "ell"),
    ("interpolate-check", {"cases": 4, "dimension": 0}, "dimension"),
    # signal-spec numbers must be finite numbers: not strings, not booleans
    ("gowers", {"target": {"kind": "linear_phase", "alpha": "0.25"}},
     "target.alpha"),
    ("gowers", {"target": {"kind": "polynomial_phase", "coefficients": "12"}},
     "target.coefficients"),
    ("gowers", {"target": {"kind": "polynomial_phase",
                           "coefficients": [0.5, True]}}, "target.coefficients"),
    ("gowers", {"target": {"kind": "spike", "positions": [3], "height": True}},
     "target.height"),
    ("gowers", {"target": {"kind": "spike", "positions": [3],
                           "height": math.inf}}, "target.height"),
    ("subsequence-average", {"subsequence": {"kind": "random-density",
                                             "density": True}}, "subsequence"),
    # epsilon whose delta = (epsilon/16)^(2^order) overflows a float
    ("decompose", {"epsilon": 1e79}, "epsilon"),
    ("decompose", {"epsilon": 1e21, "order": 4}, "epsilon"),
    # H and L that the window of 64 points cannot hold
    ("gowers", {"H": 1000}, "H"),
    ("gowers", {"order": 3, "H": 8, "L": 60}, "L"),
    ("decompose", {"H": 64}, "H"),
    ("anti-uniformity", {"H": 64}, "H"),
    # refusals that need the built target or atoms
    ("decompose", {"target": UNBOUNDED_TARGET}, "target"),
    ("decompose", {"dictionary": {"step": 2, "Q": 8, "ridge": 0}},
     "dictionary.ridge"),  # rank deficient
    # arithmetic terms q*n + r beyond int64
    ("subsequence-average", {"subsequence": {"kind": "arithmetic", "q": 2**70}},
     "subsequence"),
    ("subsequence-average", {"subsequence": {"kind": "arithmetic", "r": 2**70}},
     "subsequence"),
    ("subsequence-average", {"subsequence": {"kind": "arithmetic", "q": 2**62}},
     "subsequence"),
    ("subsequence-average", {"subsequence": {"kind": "arithmetic", "q": 4,
                                             "r": -2**70}}, "subsequence"),
    # a csv path must be a file name, not a number
    ("gowers", {"target": {"kind": "csv", "path": 12.5}}, "target.path"),
    # S R and R S differ by 2^-40 in y: exact, not within a float tolerance
    ("correlate", {"system": {"dimension": 2, "transformations": [
        {"matrix": [[1, 0], [1, 1]], "alpha": [0.25, 0]},
        {"matrix": [[1, 0], [0, 1]], "alpha": [2.0**-40, 0.5]}]},
        "observables": [[{"k": [0, 1]}], [{"k": [0, -1]}]]}, "system"),
    # a misspelt key, and alphas and coefficients that are not numbers
    ("correlate", {"system": {"dimension": 1, "transformations": [
        {"matrix": [[1]], "alpha": [0.25], "alpah": [0.5]},
        {"matrix": [[1]], "alpha": [0.5]}]}}, "system"),
    ("correlate", {"system": {"dimension": 1, "transformations": [
        {"matrix": [[1]], "alpha": ["0.25"]},
        {"matrix": [[1]], "alpha": [0.5]}]}}, "system"),
    ("correlate", {"system": {"dimension": 1, "transformations": [
        {"matrix": [[1]], "alpha": [False]},
        {"matrix": [[1]], "alpha": [0.5]}]}}, "system"),
    ("correlate", {"observables": [[{"k": [1], "Re": 0.5}], [{"k": [-1]}]]},
     "observables"),
    ("correlate", {"observables": [[{"k": [1], "re": True}], [{"k": [-1]}]]},
     "observables"),
    ("correlate", {"observables": [[{"k": [1]}], [{"k": [-1], "im": "0.5"}]]},
     "observables"),
    # observables and iterates of the wrong shape name their own field
    ("correlate", {"observables": 5}, "observables"),
    ("correlate", {"iterates": 5}, "iterates"),
    ("correlate", {"observables": [[{"k": 1}], [{"k": [-1]}]]}, "observables"),
    ("correlate", {"observables": [[{"k": [1, 0]}], [{"k": [-1, 0]}]]},
     "observables"),  # two-dimensional frequencies on a one-dimensional system
    ("correlate", {"iterates": [[[0, 1]], [[0], [0, 1]]]}, "iterates"),
    # a shift count below 1, refused before GowersParams is built
    ("gowers", {"H": 0}, "H"),
    ("gowers", {"H": -3}, "H"),
    ("decompose", {"H": 0}, "H"),
    ("anti-uniformity", {"H": 0}, "H"),
    # a dictionary of no degrees, refused at load rather than by decompose
    ("decompose", {"dictionary": {"step": 2, "Q": 4, "degrees": []}},
     "dictionary"),
    # signal specs checked against the window
    ("gowers", {"target": {"kind": "spike", "positions": [3, 64]}},
     "target.positions"),
    ("gowers", {"target": {"kind": "corpus", "family": "B", "ell": 2,
                           "index": 0, "freq_grid": 0}}, "target.freq_grid"),
    ("gowers", {"target": {"kind": ["noise"]}}, "target.kind"),  # unhashable
    ("gowers", {"target": "noise"}, "target"),  # not an object
    ("gowers", {"target": {"kind": "spike", "positions": 3}}, "target.positions"),
    ("correlate", {"engine": "fast"}, "engine"),
    ("correlate", {"engine": "numeric"}, "grid"),
    ("subsequence-average", {"checkpoints": 5}, "checkpoints"),
    # systems over MAX_MAPS maps or MAX_DIMENSION dimensions: 200 skew maps
    # ran 7.1 s on 2 slots, one identity map of dimension 80 loaded in 1.1 s
    ("correlate", skew_copies(200), "system"),
    ("correlate", skew_copies(9), "system"),
    ("correlate", {"system": {"dimension": 80, "transformations": [
        {"matrix": [[int(i == j) for j in range(80)] for i in range(80)],
         "alpha": [0] * 80}]},
        "observables": [[{"k": [1] + [0] * 79}]], "iterates": [[[0, 1]]]},
     "system"),
    ("correlate", {"system": {"dimension": 9, "transformations": [
        {"matrix": [[int(i == j) for j in range(9)] for i in range(9)],
         "alpha": [0] * 9}]},
        "observables": [[{"k": [1] + [0] * 8}]], "iterates": [[[0, 1]]]},
     "system"),
])
def test_cli_bad_param_value_exit_2(kind, overrides, field, tmp_path, capsys):
    params, end = KIND_CONFIGS[kind]
    raw = base_config(kind, dict(params, **overrides), end=end)
    # a bad signal spec is refused at load; only decompose's sup-norm check
    # needs the built target
    if field.split(".")[0] in KINDS[kind].signals \
            and overrides.get("target") != UNBOUNDED_TARGET:
        with pytest.raises(ConfigError, match=rf"<config>\.params\.{field}"):
            config_from_dict(raw)
    assert run_cli(tmp_path, raw) == 2
    assert f"params.{field}" in capsys.readouterr().err


# corpus_generate builds every entry before any is read: index + 1 entries
# for a corpus target, budget - 1 for class B and C candidates, each about
# 1 ms at class C ell 4 even on a 2-point window; class A scores budget
# candidates one at a time; a window longer than the budget holds no signal
# (2**36 points would need 1 TiB for one complex signal); the seminorm
# recursion reaches H^(order-1) derivatives of the window; decompose holds
# an atoms x window matrix and an atoms x atoms Gram; an interpolation case
# draws ell points of its dimension; correlate builds every term
# combination (4 observables of 20 terms: 160,000; 2 of 89 terms in dimension
# 8 at degree 4, each combination through D + 1 = 33 samples), samples the
# slot maps D + 1 times (8 maps of dimension 8 at degree 4: D = 32) and the numeric
# engine evaluates every term at every grid cell (2 x 64 terms on 2^24
# cells); vdc-check reads the window once per shift; random-density draws
# one number per candidate up to the window's end
@pytest.mark.parametrize("kind,params,end,field", [
    ("gowers", {"target": {"kind": "corpus", "family": "B", "ell": 2,
                           "index": 3_000_000, "count": 4_000_000},
                "order": 2, "H": 2}, 8, "target.index"),
    ("class-distance", {"target": {"kind": "noise"}, "family": "B", "ell": 2,
                        "budget": 100_000_000}, 64, "budget"),
    ("class-distance", {"target": {"kind": "noise"}, "family": "A", "ell": 2,
                        "budget": 100_000_000}, 64, "budget"),
    ("gowers", {"target": {"kind": "constant"}, "order": 2}, 2**36, "window"),
    ("correlate", ROTATIONS, 2**36, "window"),
    ("gowers", {"target": {"kind": "noise"}, "order": 4, "H": 300}, 1024, "H"),
    ("decompose", {"target": {"kind": "noise"}, "order": 2, "epsilon": 0.1,
                   "dictionary": {"step": 1, "Q": 262144, "budget": 1000000}},
     4096, "dictionary"),
    ("decompose", {"target": {"kind": "noise"}, "order": 2, "epsilon": 0.1,
                   "dictionary": {"step": 1, "Q": 65536, "budget": 100000}},
     64, "dictionary"),
    ("interpolate-check", {"cases": 100_000_000}, 8, "cases"),
    ("interpolate-check", {"cases": 1, "dimension": 1_000_000_000}, 8,
     "dimension"),
    ("correlate", dict(ROTATIONS,
                       observables=[[{"k": [k]} for k in range(1, 21)]] * 4,
                       iterates=[[[0, 1], [0], [0, 2], [0]],
                                 [[0], [0, 1], [0], [0, 2]]]),
     16, "observables"),
    ("vdc-check", {"target": {"kind": "noise"}, "H": 400}, 2**20, "H"),
    ("correlate", dict(ROTATIONS, engine="numeric", grid=16384, observables=[
        [{"k": [k]} for k in range(1, 65)], [{"k": [-k]} for k in range(1, 65)]]),
     1024, "grid"),
    ("correlate", {"system": {"dimension": 8, "transformations": [
        {"matrix": JORDAN8, "alpha": [0.25] + [0] * 7}] * 8},
        "observables": [[{"k": [0] * 7 + [1]}], [{"k": [0] * 7 + [-1]}]],
        "iterates": [[[0, 0, 0, 0, 1], [0, 1]]] * 8}, 64, "iterates"),
    ("subsequence-average", {"target": {"kind": "constant"},
                             "subsequence": {"kind": "random-density",
                                             "density": 1e-300},
                             "checkpoints": [4]}, (2**28, 2**28 + 16),
     "subsequence"),
    ("class-distance", {"target": {"kind": "noise"}, "family": "C", "ell": 4,
                        "budget": 1000}, 2, "budget"),
    ("gowers", {"target": {"kind": "corpus", "family": "C", "ell": 4,
                           "index": 999, "count": 1000}, "order": 2}, 2,
     "target.index"),
    ("correlate", {"system": {"dimension": 8, "transformations": [
        {"matrix": BIDIAGONAL8, "alpha": [0.25] + [0] * 7},
        {"matrix": BIDIAGONAL8, "alpha": [0.25] + [0] * 6 + [0.5]}]},
        "observables": [[{"k": [k] + [0] * 6 + [1]} for k in range(1, 90)],
                        [{"k": [-k] + [0] * 6 + [-1]} for k in range(1, 90)]],
        "iterates": [[[0, 0, 0, 0, 1], [0, 1, 0, 0, 1]]] * 2}, 1, "observables"),
])
def test_cli_corpus_over_budget_exit_3(kind, params, end, field, tmp_path,
                                       capsys):
    start, end = end if isinstance(end, tuple) else (0, end)
    raw = base_config(kind, params, start=start, end=end)
    where = field if field == "window" else f"params.{field}"
    with pytest.raises(BudgetError, match=rf"<config>\.{where}"):
        config_from_dict(raw)
    assert run_cli(tmp_path, raw) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget error") and f".{where}:" in err


ROTATION_TERMS = [[{"k": [k]} for k in range(1, 65)],
                  [{"k": [-k]} for k in range(1, 65)]]
# 8 copies of a unipotent map of dimension 7 at 8 slots of degree-1
# iterates: D = 7, so the samples take 8 x 8 x 8 x 8^3 exact products,
# charged 64 cells each; one iterate of degree 2 makes D = 14
J7_SYSTEM = {"dimension": 7, "transformations": [
    {"matrix": [[int(j in (i - 1, i)) for j in range(7)] for i in range(7)],
     "alpha": [0.25] + [0] * 6}] * 8}
J7_ITERATES = [[[0, 1]] * 8] * 8
J7_PARAMS = {"system": J7_SYSTEM, "observables": [[{"k": [0] * 6 + [1]}]] * 8,
             "iterates": J7_ITERATES}


# each at exactly DEFAULT_QUAD_BUDGET cells, and just over it with the
# overrides: 64^2 and 16^3 derivatives of 4,096 points, a Gram of 4,096^2
# and an atom matrix of 4,096 x 4,096, 2,048 interpolation cases of 8 x 896
# + 1,024 cells and one case of 8 x (2^21 - 128) + 1,024 (over it, one case is
# refused naming its dimension), 64^2 term combinations of 1,536 + 2,048 +
# 128 x 2 x 2 cells (dimension 1, D = 1), 2,048 shifts of 8,192 points, 2^13
# grid cells on 2^10 points for 2 terms, 2^18 exact products of the slot
# samples, 2^24 random-density draws, and 256 class candidates or corpus
# entries of 32,768 + 32,768 cells
WORK_EDGES = [
    ("gowers", {"target": {"kind": "noise"}, "order": 3, "H": 64}, 4096,
     {"H": 65}),
    ("anti-uniformity", {"a": {"kind": "noise"}, "b": {"kind": "noise"},
                         "order": 4, "H": 16}, 4096, {"H": 17}),
    ("decompose", {"target": {"kind": "noise"}, "order": 2, "epsilon": 0.1,
                   "dictionary": {"step": 2, "Q": 64}}, 256,
     {"dictionary": {"step": 2, "Q": 65}}),
    ("decompose", {"target": {"kind": "noise"}, "order": 2, "epsilon": 0.1,
                   "dictionary": {"step": 1, "Q": 4096}}, 4096,
     {"dictionary": {"step": 1, "Q": 4097}}),
    ("interpolate-check", {"cases": 2048, "ell": 8, "dimension": 896}, 8,
     {"cases": 2049}),
    ("correlate", dict(ROTATIONS, observables=ROTATION_TERMS), 1536,
     {"observables": [ROTATION_TERMS[0] + [{"k": [65]}], ROTATION_TERMS[1]]}),
    ("vdc-check", {"target": {"kind": "noise"}, "H": 2048}, 8192, {"H": 2049}),
    ("interpolate-check", {"cases": 1, "ell": 8, "dimension": 2**21 - 128}, 8,
     {"dimension": 2**21 - 127}),
    ("correlate", dict(ROTATIONS, engine="numeric", grid=8192), 1024,
     {"grid": 8193}),
    ("correlate", J7_PARAMS, 16,
     {"iterates": [[[0, 0, 1]] + [[0, 1]] * 7] + J7_ITERATES[1:]}),
    ("subsequence-average", {"target": {"kind": "constant"},
                             "subsequence": {"kind": "random-density",
                                             "density": 0.5},
                             "checkpoints": [4]}, (2**24 - 15, 2**24 + 1),
     {"window": (2**24 - 14, 2**24 + 2)}),
    ("class-distance", {"target": {"kind": "noise"}, "family": "A", "ell": 2,
                        "budget": 256}, 32768, {"budget": 257}),
    ("gowers", {"target": {"kind": "corpus", "family": "A", "ell": 1,
                           "index": 255, "count": 256}, "order": 2}, 32768,
     {"target": {"kind": "corpus", "family": "A", "ell": 1, "index": 256,
                 "count": 257}}),
]


# the ids of the first seven edges predate the overrides column
@pytest.mark.parametrize("kind,params,end,over", [
    pytest.param(*edge, id=f"{edge[0]}-params{i}-" + "-".join(
        map(str, edge[2] if isinstance(edge[2], tuple) else [edge[2]])))
    for i, edge in enumerate(WORK_EDGES)])
def test_work_bounds_admit_the_budget_exactly(kind, params, end, over):
    start, end = end if isinstance(end, tuple) else (0, end)
    config_from_dict(base_config(kind, params, start=start, end=end))
    start, end = over.pop("window", (start, end))
    with pytest.raises(BudgetError):
        config_from_dict(base_config(kind, dict(params, **over),
                                     start=start, end=end))


# a class-C skew spike is drawn off both ends of the window; on 2 points the
# entry is a rotation pair whatever the draw
@pytest.mark.parametrize("kind,params", [
    *(("gowers", {"target": {"kind": "corpus", "family": "C", "ell": 2,
                             "index": i}, "order": 2}) for i in range(6)),
    ("class-distance", {"target": {"kind": "noise"}, "family": "C", "ell": 2,
                        "budget": 8, "L": 1}),
])
def test_class_c_corpus_on_a_two_point_window_runs(kind, params, tmp_path,
                                                   capsys):
    assert run_cli(tmp_path, base_config(kind, params, end=2)) == 0


def _csv_rows(row5: str) -> str:
    rows = [f"{n},1.0,0.0" for n in range(64)]
    rows[5] = row5
    return "n,re,im\n" + "\n".join(rows) + "\n"


# csv targets that read_csv refuses: (text, message)
BAD_CSVS = {
    "non-finite": (_csv_rows("5,nan,0.0"), "CSV value at n=5 is not finite"),
    "two-fields": (_csv_rows("5,1.0"), "CSV line 7: expected n,re,im, got 2"),
    "blank-line": (_csv_rows(""), "CSV line 7: expected n,re,im, got 0"),
    "empty": ("", "CSV line 1: header [] is not n,re,im"),
    "non-numeric": (_csv_rows("5,one,0.0"),
                    "CSV line 7: could not convert string to float: 'one'"),
    "four-fields": (_csv_rows("5,1.0,0.0,0.0"),
                    "CSV line 7: expected n,re,im, got 4"),
    "long-header": ("n,re,im,w" + _csv_rows("5,1.0,0.0")[len("n,re,im"):],
                    "CSV line 1: header ['n', 're', 'im', 'w'] is not n,re,im"),
}


@pytest.mark.parametrize("kind,defect", [
    pytest.param("gowers", "non-finite", id="gowers"),
    pytest.param("decompose", "non-finite", id="decompose"),
    *(pytest.param("gowers", d, id=f"gowers-{d}")
      for d in BAD_CSVS if d != "non-finite"),
])
def test_cli_non_finite_csv_sample_exit_2(kind, defect, tmp_path, capsys):
    text, message = BAD_CSVS[defect]
    path = tmp_path / "target.csv"
    path.write_text(text)
    params, end = KIND_CONFIGS[kind]
    target = {"kind": "csv", "path": str(path)}
    raw = base_config(kind, dict(params, target=target), end=end)
    assert run_cli(tmp_path, raw) == 2
    assert f"params.target: {message}" in capsys.readouterr().err


def test_cli_decompose_unbounded_csv_target_exit_2(tmp_path, capsys):
    """The sup-norm of a csv target is known only once it is read."""
    path = tmp_path / "target.csv"
    rows = [f"{n},{1.5 if n == 5 else 1.0},0.0" for n in range(64)]
    path.write_text("n,re,im\n" + "\n".join(rows) + "\n")
    params, end = KIND_CONFIGS["decompose"]
    raw = base_config("decompose", dict(params, target={"kind": "csv",
                                                        "path": str(path)}),
                      end=end)
    assert run_cli(tmp_path, raw) == 2
    assert "params.target: signal sup-norm 1.5 exceeds 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # a refused run makes no --out


_SHORT = "short"  # a 16-row csv on the window [0, 64)


@pytest.mark.parametrize("kind,params,field,message", [
    ("gowers", {"target": _SHORT, "order": 2, "H": 20}, "target",
     "H=20 must be below window length 16"),
    ("anti-uniformity", {"a": {"kind": "noise"}, "b": _SHORT, "order": 2,
                         "H": 20}, "b", "H=20 must be below window length 16"),
    ("anti-uniformity", {"a": _SHORT, "b": {"kind": "noise"}, "order": 2,
                         "H": 4, "L": 60}, "a", "window intersection has 16 points, "
                                        "fewer than L=60"),
    ("anti-uniformity", {"a": _SHORT, "b": _SHORT, "order": 2, "H": 20}, "a",
     "H=20 must be below window length 16"),
    ("class-distance", {"target": _SHORT, "family": "B", "ell": 2,
                        "budget": 3}, "target",
     "scale too large: L=64 exceeds window length 16"),
    ("vdc-check", {"target": _SHORT, "H": 20}, "target",
     "need 1 <= H < N, got H=20, N=16"),
])
def test_cli_csv_shorter_than_window_is_refused_naming_it(
        kind, params, field, message, tmp_path, capsys):
    """Load checks scales and shifts against the window; a csv that ends
    before it is read only at run time, where the check's ValueError is a
    config error naming the csv's param."""
    path = tmp_path / "short.csv"
    path.write_text("n,re,im\n" + "".join(f"{n},1.0,0.0\n" for n in range(16)))
    params = {name: {"kind": "csv", "path": str(path)} if value == _SHORT
              else value for name, value in params.items()}
    assert run_cli(tmp_path, base_config(kind, params, end=64)) == 2
    assert f"params.{field}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("descriptor", ["pipe", "stdout"])
def test_cli_descriptor_as_csv_path_is_refused_and_left_open(
        descriptor, tmp_path, capsys):
    """open() takes an integer path (True is 1) for a file descriptor and
    closes it on leaving; such a path is refused at load instead."""
    read_fd, write_fd = os.pipe()
    saved_stdout = os.dup(1)
    try:
        os.write(write_fd, b"n,re,im\n0,1.0,0.0\n")
        os.close(write_fd)
        path = read_fd if descriptor == "pipe" else True
        params, end = KIND_CONFIGS["gowers"]
        raw = base_config("gowers", dict(params, target={"kind": "csv",
                                                         "path": path}),
                          end=end)
        assert run_cli(tmp_path, raw) == 2
        assert "params.target.path: must be a string" in capsys.readouterr().err
        os.fstat(read_fd)  # raises OSError (EBADF) once closed
        os.fstat(1)
    finally:
        os.dup2(saved_stdout, 1)
        os.close(saved_stdout)
        with contextlib.suppress(OSError):
            os.close(read_fd)


def test_correlate_parses_its_query_once(tmp_path, monkeypatch):
    """A load and a cache miss build the CorrelationQuery once."""
    calls = []
    parse = experiments._query_from_params
    monkeypatch.setattr(experiments, "_query_from_params",
                        lambda *args: calls.append(args) or parse(*args))
    params, end = KIND_CONFIGS["correlate"]
    assert run_cli(tmp_path, base_config("correlate", params, end=end)) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("start,end", [(0.9, 64.7), (True, 64)])
def test_cli_non_integer_window_exit_2(start, end, tmp_path, capsys):
    params, _ = KIND_CONFIGS["vdc-check"]
    raw = base_config("vdc-check", params, start=start, end=end)
    assert run_cli(tmp_path, raw) == 2
    assert "window.start: must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("start", [2**63 - 1, -2**63])
def test_cli_window_outside_int64_exit_2(start, tmp_path, capsys):
    raw = base_config("correlate", ROTATIONS, start=start, end=start + 4)
    assert run_cli(tmp_path, raw) == 2
    assert "2^63" in capsys.readouterr().err


def test_cli_frequency_guard_exit_3(tmp_path, capsys):
    raw = base_config("correlate", {
        "system": {"dimension": 3, "transformations": [
            {"matrix": [[1, 0, 0], [1, 1, 0], [0, 1, 1]],
             "alpha": [0.5, 0.25, 0]}]},
        "observables": [[{"k": [1, 1, 1]}], [{"k": [0, 0, 1]}]],
        "iterates": [[[0, 0, 1], [0, 1]]],
    }, start=2**40, end=2**40 + 4)
    assert run_cli(tmp_path, raw) == 3
    assert "budget error" in capsys.readouterr().err


@pytest.mark.parametrize("subsequence", [
    {"kind": "arithmetic", "q": 0},
    {"kind": "random-density", "density": 2},
    {"kind": "random-density"},
    {"kind": "fibonacci"},
    {"kind": "arithmetic", "q": "two"},
    {"kind": "random-density", "density": 1e-12},  # never reaches 8 terms
    {"kind": "arithmetic", "q": 20},               # leaves the window
])
def test_cli_bad_subsequence_exit_2(subsequence, tmp_path, capsys):
    params, end = KIND_CONFIGS["subsequence-average"]
    raw = base_config("subsequence-average",
                      dict(params, subsequence=subsequence), end=end)
    assert run_cli(tmp_path, raw) == 2
    assert "params.subsequence" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("out_dir", 5),
    ("use_cache", "no"),
    ("seed", True),
    ("encoding", "latin-1"),
    ("params", {"target": {"kind": "constant"}}),  # no "order"
    ("top level", []),
])
def test_cli_bad_top_level_value_exit_2(field, value, tmp_path, capsys,
                                        monkeypatch):
    monkeypatch.chdir(tmp_path)  # no --out: a run that passed would write here
    params, end = KIND_CONFIGS["gowers"]
    raw = base_config("gowers", params, end=end)
    path = tmp_path / "config.json"
    if field == "encoding":
        raw["params"] = dict(params, target={"kind": "csv", "path": "résultats.csv"})
        path.write_bytes(json.dumps(raw, ensure_ascii=False).encode(value))
    elif field == "top level":
        path.write_text(json.dumps(value))
    else:
        raw[field] = value
        path.write_text(json.dumps(raw))
    assert cli_main(["gowers", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert {"encoding": "UTF-8",
            "out_dir": "unknown field 'out_dir'",
            "use_cache": "unknown field 'use_cache'",
            "params": "params: missing required field 'order'",
            "top level": "top level must be an object"}.get(field, field) in err


def test_cli_help_lists_every_command():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "nilseqlab.cli", "--help"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0
    for kind, spec in KINDS.items():
        assert f"{spec.command or kind} " in out.stdout
        assert spec.help in out.stdout


def _cli_artifacts(tmp_path, name, raw, pin="", **env) -> dict:
    """Run a config through the CLI in a fresh process, ``pin`` run first,
    with ``env`` over one BLAS thread: every artifact's bytes, and the
    manifest without its wall time."""
    config = write_config(tmp_path, raw)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (f"import os, sys\n{pin}\n"
            "from nilseqlab.cli import main\nsys.exit(main(sys.argv[1:]))")
    out = tmp_path / name
    run = subprocess.run(
        [sys.executable, "-c", code, KINDS[raw["kind"]].command or raw["kind"],
         "--config", config, "--out", str(out), "--no-cache"],
        capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["wall_time_s"]
    return {p.name: manifest if p.name == "manifest.json" else p.read_bytes()
            for p in sorted(out.iterdir())}


# a numeric correlation of 8 one-row blocks of 129^2 grid cells
NUMERIC_SKEW = {
    "system": {"dimension": 2, "transformations": [
        {"matrix": [[1, 0], [1, 1]], "alpha": [0.37, 0.0]}]},
    "observables": [[{"k": [2, 2]}], [{"k": [8, -2]}]],
    "iterates": [[[0, 1], [0, 2]]], "engine": "numeric", "grid": 129}


_SECOND_CPU = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs a second CPU to run blocks on threads")


def _same_artifacts_on_one_cpu_and_all(tmp_path, raw) -> dict:
    """Pinned to one CPU the blocks run inline, unpinned on threads, and
    every artifact keeps its bytes."""
    first = min(os.sched_getaffinity(0))
    one = _cli_artifacts(tmp_path, "one", raw,
                         pin=f"os.sched_setaffinity(0, {{{first}}})")
    every = _cli_artifacts(tmp_path, "all", raw)
    assert one == every
    return every


@_SECOND_CPU
def test_decompose_artifacts_do_not_depend_on_cpu_count(tmp_path):
    # a step-2 Q=32 Gram has 8 row blocks; it runs on threads only beside a
    # single-threaded BLAS, and the artifacts also depend on the BLAS
    # thread count
    raw = base_config("decompose", {
        "target": {"kind": "noise"}, "order": 2, "epsilon": 0.1, "H": 8,
        "dictionary": {"step": 2, "Q": 32}}, end=1024)
    assert sorted(_same_artifacts_on_one_cpu_and_all(tmp_path, raw)) == [
        "a_er.csv", "a_st.csv", "decomposition.json", "manifest.json"]


@_SECOND_CPU
def test_numeric_correlate_artifacts_do_not_depend_on_cpu_count(tmp_path):
    raw = base_config("correlate", NUMERIC_SKEW, end=8)
    assert sorted(_same_artifacts_on_one_cpu_and_all(tmp_path, raw)) == [
        "correlation.csv", "manifest.json", "query.json"]


def test_numeric_correlate_artifacts_do_not_depend_on_blas_threads(tmp_path):
    raw = base_config("correlate", NUMERIC_SKEW, end=8)
    one = _cli_artifacts(tmp_path, "one", raw)
    two = _cli_artifacts(tmp_path, "two", raw, OPENBLAS_NUM_THREADS="2",
                         OMP_NUM_THREADS="2")
    assert sorted(one) == ["correlation.csv", "manifest.json", "query.json"]
    assert one == two


def test_cli_unknown_command_exit_2(tmp_path, capsys):
    raw = base_config("gowers", KIND_CONFIGS["gowers"][0])
    with pytest.raises(SystemExit) as exc:
        cli_main(["eigenvalues", "--config", write_config(tmp_path, raw)])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_runs_leave_only_cache_entries(tmp_path, capsys, monkeypatch):
    """A miss writes each artifact once and copies it once; the cache root
    then holds one directory per digest and nothing else, also after a run
    whose runner refuses the config."""
    copies = []
    copyfile = experiments.shutil.copyfile
    monkeypatch.setattr(experiments.shutil, "copyfile",
                        lambda src, dst: copies.append(dst) or copyfile(src, dst))
    params, end = KIND_CONFIGS["decompose"]
    raw = base_config("decompose", params, end=end)
    assert run_cli(tmp_path, raw, "first") == 0
    names = sorted(p.name for p in (tmp_path / "first").iterdir())
    assert sorted(Path(p).name for p in copies) == names
    assert run_cli(tmp_path, raw, "second") == 0
    params, end = KIND_CONFIGS["subsequence-average"]
    exhausted = base_config("subsequence-average", dict(
        params, subsequence={"kind": "arithmetic", "q": 20}), end=end)
    assert run_cli(tmp_path, exhausted) == 2
    cache = tmp_path / "cache"
    digest = config_from_dict(raw).digest()
    assert [p.name for p in cache.iterdir()] == [digest]
    assert sorted(p.name for p in (cache / digest).iterdir()) == names


def test_a_miss_that_loses_the_rename_serves_the_cached_entry(tmp_path,
                                                             monkeypatch):
    """When a concurrent run of the same config renames its stage into the
    cache first, a miss copies that entry's bytes out and removes its own
    stage."""
    replace = experiments.os.replace

    def lose(stage, entry):  # the winner's entry differs in one file
        shutil.copytree(stage, entry)
        (Path(entry) / "vdc.json").write_text("winner\n")
        replace(stage, entry)  # raises: the entry is a nonempty directory

    monkeypatch.setattr(experiments.os, "replace", lose)
    raw = base_config("vdc-check", {"target": {"kind": "alternating"}, "H": 16})
    result = run_experiment(config_from_dict(raw), tmp_path / "out")
    assert not result.cache_hit
    assert (tmp_path / "out" / "vdc.json").read_text() == "winner\n"
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [result.config_hash]


def test_uncached_run_leaves_nothing_behind(tmp_path, capsys, monkeypatch):
    """With the cache off each artifact is written once, straight into the
    output directory: no stage in tempfile's directory and no copy, and the
    bytes of a cached run."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    copies = []
    copyfile = experiments.shutil.copyfile
    monkeypatch.setattr(experiments.shutil, "copyfile",
                        lambda src, dst: copies.append(dst) or copyfile(src, dst))
    params, end = KIND_CONFIGS["decompose"]
    raw = base_config("decompose", params, end=end)
    assert run_cli(tmp_path, raw, "out", "--no-cache") == 0
    assert not (tmp_path / "cache").exists()
    assert list(scratch.iterdir()) == [] and copies == []
    assert run_cli(tmp_path, raw, "cached") == 0
    outputs = []
    for out in (tmp_path / "out", tmp_path / "cached"):
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        manifest = json.loads(files.pop("manifest.json"))
        del manifest["wall_time_s"]
        outputs.append((files, manifest))
    assert sorted(outputs[0][0]) == ["a_er.csv", "a_st.csv", "decomposition.json"]
    assert outputs[0] == outputs[1]
