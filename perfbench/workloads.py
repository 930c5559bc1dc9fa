"""Seeded experiment configs for the three benchmark workloads.

Each workload is a list of :class:`Op`: one CLI invocation with its JSON
config and the parameters its output oracle needs.  The program only ever
sees the config files and CSV inputs written here; the seed stays with the
benchmark.  Parameters change with the seed, work sizes never do, so two
seeds give the same window lengths, atom counts, grid sizes and shift
counts.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# exact-engine window lengths, chosen so that most exact configs cost about
# the same and the median latency falls inside that group; far windows sit
# near |n| = 10^6 so that an int64-only fast path cannot hide its big-integer
# fallback
N_EXACT = 1024
N_SKEW = 768
N_UNIPOTENT = 256
N_NUMERIC_SKEW = 64
FAR = 10**6
CD_WINDOW = 1024
CD_BUDGET = 5

N_STRUCT = 4096
N_BRACKET = 1024
CAMPAIGN_WINDOW = 256
CAMPAIGN_COPIES = 8

SKEW_MATRIX = [[1, 0], [1, 1]]
UNIPOTENT_3D = [[1, 0, 0], [1, 1, 0], [0, 1, 1]]


@dataclass
class Op:
    """One CLI call: subcommand, config, metric group and oracle spec."""

    name: str
    command: str
    config: dict
    group: str
    check: dict = field(default_factory=dict)
    config_path: str = ""


def _config(kind: str, start: int, end: int, params: dict, seed: int = 0) -> dict:
    return {"kind": kind, "window": {"start": start, "end": end},
            "params": params, "seed": seed}


def _unit(rng) -> float:
    return float(rng.random())


# ---------------------------------------------------------------------------
# correlation queries
# ---------------------------------------------------------------------------

def _rotation_pair(alpha: float, beta: float, poly) -> dict:
    """Slots see T1^p(n) and T2^p(n); the sequence is e(p(n)(alpha - beta))."""
    p, one = list(poly), [0]
    return {
        "system": {"dimension": 1, "transformations": [
            {"matrix": [[1]], "alpha": [alpha]},
            {"matrix": [[1]], "alpha": [beta]}]},
        "observables": [[{"k": [1]}], [{"k": [-1]}]],
        "iterates": [[p, one], [one, p]],
    }


def _skew_spike(alpha: float, k1: int, k1p: int, k2: int, polys) -> dict:
    """Skew product x -> (x + alpha, y + x); nonzero only where
    k1 + k1p - n k2 = 0, for iterate pairs (n, 2n) and (n^2, n^2 + n)."""
    return {
        "system": {"dimension": 2, "transformations": [
            {"matrix": SKEW_MATRIX, "alpha": [alpha, 0.0]}]},
        "observables": [[{"k": [k1, k2]}], [{"k": [k1p, -k2]}]],
        "iterates": [[list(polys[0]), list(polys[1])]],
    }


def _spike_params(rng, start: int, end: int):
    k2 = int(rng.integers(1, 3))
    n_star = int(rng.integers(start + 1, end - 1))
    k1 = int(rng.integers(-3, 4))
    return k1, n_star * k2 - k1, k2, n_star


def _unipotent_3d(rng) -> dict:
    """Two commuting maps (A, alpha), (A, beta) with beta - alpha in ker(A - I);
    each observable is a 2-term character sum."""
    alpha = [_unit(rng) for _ in range(3)]
    beta = [alpha[0], alpha[1], (alpha[2] + _unit(rng)) % 1.0]
    k, kp = [0, 0, 0], [0, 0, 0]
    while k == kp or not any(k) or not any(kp):
        k = [int(v) for v in rng.integers(-2, 3, size=3)]
        kp = [int(v) for v in rng.integers(-2, 3, size=3)]
    c = [round(0.9 * _unit(rng), 6), round(0.9 * _unit(rng), 6)]
    neg = [-v for v in k]
    negp = [-v for v in kp]
    return {
        "system": {"dimension": 3, "transformations": [
            {"matrix": UNIPOTENT_3D, "alpha": alpha},
            {"matrix": UNIPOTENT_3D, "alpha": beta}]},
        "observables": [
            [{"k": k}, {"k": kp, "re": c[0]}],
            [{"k": neg}, {"k": negp, "im": c[1]}]],
        "iterates": [[[0, 1], [0]], [[0], [0, 1]]],
    }


def correlate_ops(rng) -> list:
    ops = []

    def add(name, start, end, params, check, engine="exact", grid=None):
        params = dict(params, engine=engine)
        if grid is not None:
            params["grid"] = grid
        ops.append(Op(name, "correlate", _config("correlate", start, end, params),
                      "correlate", check))

    def rotation(name, start, end, poly, **kw):
        a, b = _unit(rng), _unit(rng)
        add(name, start, end, _rotation_pair(a, b, poly),
            {"oracle": "rotation", "alpha": a, "beta": b, "poly": list(poly)}, **kw)

    def spike(name, start, end, polys, **kw):
        alpha = _unit(rng)
        k1, k1p, k2, n_star = _spike_params(rng, start, end)
        add(name, start, end, _skew_spike(alpha, k1, k1p, k2, polys),
            {"oracle": "spike", "n_star": n_star}, **kw)

    linear, quadratic = ((0, 1), (0, 2)), ((0, 0, 1), (0, 1, 1))
    rotation("rotation-0", 0, N_EXACT, (0, 1))
    rotation("rotation-neg", -N_EXACT, 0, (0, 1))
    rotation("rotation-far", FAR, FAR + N_EXACT, (0, 1))
    spike("skew-0", 0, N_SKEW, linear)
    spike("skew-far-neg", -FAR - N_SKEW, -FAR, linear)
    for name, start in (("unipotent-0", 0), ("unipotent-neg", -N_UNIPOTENT)):
        add(name, start, start + N_UNIPOTENT, _unipotent_3d(rng), {})
    rotation("quadratic-rotation", -N_EXACT // 2, N_EXACT // 2, (0, 0, 1))
    spike("quadratic-skew-far", FAR, FAR + N_EXACT, quadratic)
    # numeric engine with a grid above the aliasing threshold: frequencies
    # stay at +-1 for rotations and below k2 * |window| <= 2 * 64 for the skew
    rotation("numeric-rotation-far", FAR, FAR + N_EXACT, (0, 1),
             engine="numeric", grid=4)
    spike("numeric-skew", -N_NUMERIC_SKEW // 2, N_NUMERIC_SKEW // 2, linear,
          engine="numeric", grid=2 * N_NUMERIC_SKEW + 1)
    # class C at ell 3 draws rotations only (ell 2 mixes in skew spikes at
    # random), so its corpus costs the same for every seed
    for family, ell, target in (("B", 3, "linear_phase"), ("C", 3, "noise")):
        spec = ({"kind": "linear_phase", "alpha": _unit(rng)}
                if target == "linear_phase" else {"kind": "noise"})
        ops.append(Op(
            f"class-distance-{family}", "class-distance",
            _config("class-distance", 0, CD_WINDOW,
                    {"target": spec, "family": family, "ell": ell,
                     "budget": CD_BUDGET},
                    seed=int(rng.integers(0, 2**31))),
            "class-distance", {"oracle": "class_distance", "budget": CD_BUDGET}))
    return ops


# ---------------------------------------------------------------------------
# structure: dictionaries, seminorms, class A
# ---------------------------------------------------------------------------

def corpus_a_seed(rng, kind: int) -> int:
    """A corpus seed whose first class-A step-2 entry has the given kind
    (0 polynomial, 1 bracket, 2 Heisenberg).

    Class-A entries draw their kind first; fixing it keeps the work of a
    corpus target independent of the benchmark seed.
    """
    while True:
        seed = int(rng.integers(0, 2**31))
        if int(np.random.default_rng(seed).integers(0, 3)) == kind:
            return seed


def _corpus_a(rng, kind: int) -> dict:
    return {"kind": "corpus", "family": "A", "ell": 3, "index": 0, "count": 1,
            "seed": corpus_a_seed(rng, kind)}


def structure_ops(rng) -> list:
    ops = []
    n = N_STRUCT

    def decompose(name, length, target, dictionary, check):
        params = {"target": target, "order": 2, "epsilon": 0.05,
                  "dictionary": dictionary, "H": 16}
        ops.append(Op(name, "decompose", _config("decompose", 0, length, params,
                                                 seed=int(rng.integers(0, 2**31))),
                      "decompose", dict(check, oracle="decompose")))

    def gowers(name, target, order, H, check=None):
        params = {"target": target, "order": order}
        if H is not None:
            params["H"] = H
        ops.append(Op(name, "gowers", _config("gowers", 0, n, params,
                                              seed=int(rng.integers(0, 2**31))),
                      "gowers", check or {}))

    j, theta = int(rng.integers(0, 64)), _unit(rng)
    step1 = {"step": 1, "Q": 64, "ridge": 0.0}
    decompose("decompose-on-grid", n,
              {"kind": "linear_phase", "alpha": j / 64, "theta": theta}, step1,
              {"alpha": j / 64, "theta": theta, "on_grid": True})
    alpha, theta = _unit(rng), _unit(rng)
    decompose("decompose-off-grid", n,
              {"kind": "linear_phase", "alpha": alpha, "theta": theta}, step1,
              {"alpha": alpha, "theta": theta, "on_grid": False})
    decompose("decompose-step2-heisenberg", n, _corpus_a(rng, 2),
              {"step": 2, "Q": 32}, {"unimodular": True})
    bracket = {"kind": "bracket_phase", "quad": _unit(rng), "cross": _unit(rng),
               "alpha": _unit(rng), "linear": _unit(rng)}
    decompose("decompose-bracket", N_BRACKET, bracket,
              {"step": 2, "degrees": [1], "Q": 16, "include_brackets": True},
              {"unimodular": True})
    gowers("gowers-o3-bracket", _corpus_a(rng, 1), 3, 64)
    gowers("gowers-o4-noise", {"kind": "noise"}, 4, 16)
    gamma = _unit(rng)
    gowers("gowers-o2-quadratic", {"kind": "quadratic_phase", "gamma": gamma}, 2,
           None, {"oracle": "quadratic_seminorm", "gamma": gamma, "length": n})
    ops.append(Op("anti-uniformity", "anti-uniformity", _config(
        "anti-uniformity", 0, n,
        {"a": _corpus_a(rng, 0), "b": {"kind": "quadratic_phase", "gamma": _unit(rng)},
         "order": 3, "H": 16}, seed=int(rng.integers(0, 2**31))), "anti-uniformity"))
    ops.append(Op("class-distance-A", "class-distance", _config(
        "class-distance", 0, n,
        {"target": {"kind": "linear_phase", "alpha": _unit(rng)},
         "family": "A", "ell": 2, "budget": 66, "Q": 64},
        seed=int(rng.integers(0, 2**31))),
        "class-distance", {"oracle": "class_distance", "budget": 66}))
    return ops


# ---------------------------------------------------------------------------
# campaign: many small configs of every kind, cache on
# ---------------------------------------------------------------------------

def write_signal_csv(path: Path, start: int, values) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "re", "im"])
        for i, v in enumerate(values):
            writer.writerow([start + i, repr(float(v.real)), repr(float(v.imag))])


def unimodular(rng, count: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(count))


def campaign_ops(rng, inputs: Path) -> list:
    """Eight small configs of each of the eight kinds (window <= 512)."""
    n = CAMPAIGN_WINDOW
    ops = []

    def seed():
        return int(rng.integers(0, 2**31))

    def targets(length=n):
        path = inputs / f"target-{len(ops)}.csv"
        write_signal_csv(path, 0, unimodular(rng, length))
        yield {"kind": "csv", "path": str(path)}
        yield {"kind": "linear_phase", "alpha": _unit(rng), "theta": _unit(rng)}
        yield {"kind": "quadratic_phase", "gamma": _unit(rng)}
        yield {"kind": "polynomial_phase",
               "coefficients": [_unit(rng), _unit(rng), _unit(rng)]}
        yield {"kind": "bracket_phase", "quad": _unit(rng), "cross": _unit(rng),
               "alpha": _unit(rng), "linear": _unit(rng)}
        yield {"kind": "noise"}
        yield {"kind": "alternating"}
        yield {"kind": "spike", "positions": [int(rng.integers(0, n))]}

    def add(i, kind, command, params, end=n, check=None):
        ops.append(Op(f"{command}-{i}", command,
                      _config(kind, 0, end, params, seed=seed()), command, check or {}))

    for i, t in enumerate(targets()):
        add(i, "gowers", "gowers", {"target": t, "order": 2 + i % 2, "H": 8})
    for i in range(CAMPAIGN_COPIES):
        a, b = _unit(rng), _unit(rng)
        if i % 2 == 0:
            params = _rotation_pair(a, b, (0, 1))
            check = {"oracle": "rotation", "alpha": a, "beta": b, "poly": [0, 1]}
        else:
            k1, k1p, k2, n_star = _spike_params(rng, 0, 64)
            params = _skew_spike(a, k1, k1p, k2, ((0, 1), (0, 2)))
            check = {"oracle": "spike", "n_star": n_star}
        params["engine"] = "exact"
        if i % 4 == 2:
            params.update(engine="numeric", grid=4)
        add(i, "correlate", "correlate", params, end=64, check=check)
    for i, t in enumerate(targets()):
        if t["kind"] == "spike":  # keep every decompose target unimodular
            t = {"kind": "noise"}
        add(i, "decompose", "decompose",
            {"target": t, "order": 2, "epsilon": 0.1, "H": 8,
             "dictionary": {"step": 1 + i % 2, "Q": 8 if i % 2 else 16}},
            check={"oracle": "decompose", "unimodular": True})
    for i, t in enumerate(targets()):
        add(i, "vdc-check", "vdc-check", {"target": t, "H": 16})
    for i, t in enumerate(targets()):
        add(i, "anti-uniformity", "anti-uniformity",
            {"a": {"kind": "linear_phase", "alpha": _unit(rng)}, "b": t,
             "order": 2, "H": 8})
    for i in range(CAMPAIGN_COPIES):
        add(i, "interpolate-check", "interpolate-check", {"cases": 16})
    for i in range(CAMPAIGN_COPIES):
        family = "ABC"[i % 3]
        params = {"target": {"kind": "noise"}, "family": family, "ell": 2,
                  "budget": 8 if family == "A" else 2, "Q": 16}
        add(i, "class-distance", "class-distance", params,
            end=n if family == "A" else 64,
            check={"oracle": "class_distance", "budget": params["budget"]})
    subsequences = ({"kind": "identity"}, {"kind": "arithmetic", "q": 2, "r": 1},
                    {"kind": "sqrt-perturbed"},
                    {"kind": "random-density", "density": 0.5})
    for i, t in enumerate(targets(2 * n)):
        add(i, "subsequence-average", "subseq-avg",
            {"target": t, "subsequence": subsequences[i % 4],
             "checkpoints": [16, 64, 100]}, end=2 * n)
    return ops


# ---------------------------------------------------------------------------
# refusal and integrity cases (campaign)
# ---------------------------------------------------------------------------

@dataclass
class Case:
    """A config the CLI must refuse, or a cache replay it must not serve
    stale.  ``expect`` is an exit code or ``"recompute"``: after a miss,
    ``replacement`` is copied over ``csv_path`` and a cached rerun must
    match a fresh ``--no-cache`` run."""

    name: str
    command: str
    config: dict
    expect: object
    config_path: str = ""
    csv_path: str = ""
    replacement: str = ""


def integrity_cases(rng, inputs: Path) -> list:
    short = inputs / "short.csv"
    write_signal_csv(short, 0, unimodular(rng, 4))
    rewritten, replacement = inputs / "rewritten.csv", inputs / "replacement.csv"
    write_signal_csv(rewritten, 0, unimodular(rng, 64))
    write_signal_csv(replacement, 0, unimodular(rng, 64))
    k1, k1p, k2, _ = _spike_params(rng, 0, 256)
    aliasing = dict(_skew_spike(_unit(rng), k1, k1p, k2, ((0, 1), (0, 2))),
                    engine="numeric", grid=8)
    unknown = _config("gowers", 0, 64, {"target": {"kind": "noise"}, "order": 2})
    unknown["surprise"] = 1
    return [
        Case("aliasing-grid", "correlate", _config("correlate", 0, 256, aliasing), 3),
        Case("dictionary-over-budget", "decompose", _config(
            "decompose", 0, 256,
            {"target": {"kind": "noise"}, "order": 2, "epsilon": 0.1,
             "dictionary": {"step": 2, "Q": 64, "budget": 1000}}), 3),
        Case("unknown-field", "gowers", unknown, 2),
        Case("gowers-order-0", "gowers",
             _config("gowers", 0, 64, {"target": {"kind": "noise"}, "order": 0}), 2),
        Case("csv-shorter-than-window", "gowers", _config(
            "gowers", 0, 100, {"target": {"kind": "csv", "path": str(short)},
                               "order": 2, "H": 1}), 2),
        Case("csv-rewritten", "gowers", _config(
            "gowers", 0, 64, {"target": {"kind": "csv", "path": str(rewritten)},
                              "order": 2, "H": 4}), "recompute",
             csv_path=str(rewritten), replacement=str(replacement)),
    ]


# ---------------------------------------------------------------------------

WORKLOADS = ("correlate", "structure", "campaign")


def generate(workload: str, seed: int, inputs: Path):
    """Write every config (and CSV input) of a workload under ``inputs``.

    Returns ``(ops, cases)``; cases are empty except on ``campaign``.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inputs.mkdir(parents=True, exist_ok=True)
    cases = []
    if workload == "correlate":
        ops = correlate_ops(rng)
    elif workload == "structure":
        ops = structure_ops(rng)
    else:
        ops = campaign_ops(rng, inputs)
        cases = integrity_cases(rng, inputs)
    for item in ops + cases:
        path = inputs / f"{item.name}.json"
        path.write_text(json.dumps(item.config, sort_keys=True, indent=1))
        item.config_path = str(path)
    return ops, cases
