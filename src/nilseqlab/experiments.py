"""Config-driven experiment runner with deterministic caching.

Every experiment is described by a JSON-compatible config (kind, window,
per-kind params, seed).  Each kind is one :data:`KINDS` record holding its
param schema, its runner and its CLI entry.  Results are written as CSV
tables and JSON reports plus a manifest; the SHA-256 of the canonicalized
config keys a cache directory, and a rerun with the same config reuses the
cached artifacts byte for byte.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import hashlib
import json
import math
import operator
import os
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .decomposition import DictionarySpec, decompose
from .errors import ConfigError
from .nilmanifolds import BracketPhase, PolynomialPhase, eval_nilsequence, torus_interpolate
from .signals import (Signal, Window, constant_signal, density_seminorm,
                      read_csv, signal_from, write_csv)
from .systems import (CLASS_MAX_ELL, AffineToralSystem, CorrelationQuery,
                      QuadratureSpec, ToralMap, TrigObservable, corpus_generate,
                      correlate_exact, correlate_numeric)
from .uniformity import GowersParams, anti_uniformity_ratio, ghk_seminorm, vdc_defect

CACHE_ENV = "NILSEQLAB_CACHE_DIR"


def cache_root() -> Path:
    return Path(os.environ.get(CACHE_ENV) or Path.home() / ".cache" / "nilseqlab")


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

def _require_keys(obj: Mapping, allowed: Sequence[str], required: Sequence[str],
                  where: str) -> None:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where}: must be an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}: missing required field {key!r}")


def _config_int(value, where: str) -> int:
    """An integer from config input: an int or an integral float.  A
    boolean, a fractional or non-finite number or a string raises
    ``ConfigError`` instead of being truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ConfigError(f"{where}: must be an integer, got {value!r}")


@dataclass(frozen=True)
class ExperimentKind:
    """Schema, runner and CLI entry of one experiment kind.

    ``signals`` names the params that hold signal specs; ``check`` validates
    what the schema cannot; ``run`` maps a config to its artifacts, ``{file
    name: dict (JSON), Signal (CSV) or list of CSV rows}``; ``command`` is
    the CLI spelling when it differs from the kind.
    """

    help: str
    run: Callable[["ExperimentConfig"], dict]
    required: Tuple[str, ...]
    optional: Tuple[str, ...] = ()
    signals: Tuple[str, ...] = ()
    check: Union[Callable[[dict, str], None], None] = None
    command: Union[str, None] = None


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    kind: str
    window: Window
    params: dict
    seed: int = 0
    out_dir: Union[str, None] = None
    use_cache: bool = True

    def canonical(self) -> str:
        """Deterministic JSON of the fields that define the computation."""
        payload = {
            "kind": self.kind,
            "window": {"start": self.window.start, "end": self.window.end},
            "params": self.params,
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


def config_from_dict(raw: Mapping, source: str = "<config>") -> ExperimentConfig:
    _require_keys(
        raw,
        allowed=("kind", "window", "params", "seed", "out_dir", "use_cache"),
        required=("kind", "window", "params"),
        where=source,
    )
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"{source}.kind: unknown experiment kind {kind!r}")
    win = raw["window"]
    _require_keys(win, ("start", "end"), ("start", "end"), f"{source}.window")
    start, end = (_config_int(win[k], f"{source}.window.{k}")
                  for k in ("start", "end"))
    try:
        window = Window(start, end)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}.window: {exc}") from exc
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"{source}.seed: must be a nonnegative integer")
    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"{source}.out_dir: must be a string")
    use_cache = raw.get("use_cache", True)
    if not isinstance(use_cache, bool):
        raise ConfigError(f"{source}.use_cache: must be true or false")
    spec = KINDS[kind]
    where = f"{source}.params"
    _require_keys(raw["params"], spec.required + spec.optional, spec.required,
                  where)
    params = dict(raw["params"])
    for name in spec.signals:
        params[name] = validate_signal_spec(params[name], f"{where}.{name}")
    if spec.check is not None:
        spec.check(params, where)
    return ExperimentConfig(
        kind=kind,
        window=window,
        params=params,
        seed=seed,
        out_dir=out_dir,
        use_cache=use_cache,
    )


def load_config(path, overrides: Union[Mapping, None] = None) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    if overrides:
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    return config_from_dict(raw, source=str(path))


# ---------------------------------------------------------------------------
# signal specs (shared mini-language for experiment targets)
# ---------------------------------------------------------------------------

_SIGNAL_KINDS = {
    "constant": (("re", "im"), ()),
    "linear_phase": (("alpha", "theta"), ("alpha",)),
    "quadratic_phase": (("gamma",), ("gamma",)),
    "polynomial_phase": (("coefficients",), ("coefficients",)),
    "bracket_phase": (("quad", "cross", "alpha", "linear"), ()),
    "alternating": ((), ()),
    "spike": (("positions", "height"), ("positions",)),
    "noise": ((), ()),
    "corpus": (("family", "ell", "index", "count", "variant", "freq_grid",
                "seed"),
               ("family", "ell", "index")),
    "csv": (("path",), ("path",)),
}


def validate_signal_spec(spec: Mapping, where: str) -> dict:
    if not isinstance(spec, Mapping):
        raise ConfigError(f"{where}: signal spec must be an object")
    if "kind" not in spec:
        raise ConfigError(f"{where}: signal spec needs a 'kind'")
    kind = spec["kind"]
    if kind not in _SIGNAL_KINDS:
        raise ConfigError(f"{where}.kind: unknown signal kind {kind!r}")
    allowed, required = _SIGNAL_KINDS[kind]
    _require_keys(
        {k: v for k, v in spec.items() if k != "kind"},
        allowed, required, where,
    )
    return dict(spec)


def build_signal(spec: Mapping, window: Window, rng: np.random.Generator,
                 seed: int = 0) -> Signal:
    """Materialize a signal spec on a window.

    Random kinds consume the generator; corpus kinds reuse the experiment
    seed unless the spec pins its own.
    """
    kind = spec["kind"]
    if kind == "constant":
        c = complex(spec.get("re", 1.0), spec.get("im", 0.0))
        return constant_signal(c, window)
    if kind == "linear_phase":
        atom = PolynomialPhase((float(spec.get("theta", 0.0)),
                                float(spec["alpha"])))
        return eval_nilsequence(atom, window)
    if kind == "quadratic_phase":
        atom = PolynomialPhase((0.0, 0.0, float(spec["gamma"])))
        return eval_nilsequence(atom, window)
    if kind == "polynomial_phase":
        atom = PolynomialPhase(tuple(float(c) for c in spec["coefficients"]))
        return eval_nilsequence(atom, window)
    if kind == "bracket_phase":
        atom = BracketPhase(float(spec.get("quad", 0.0)),
                            float(spec.get("cross", 0.0)),
                            float(spec.get("alpha", 0.0)),
                            float(spec.get("linear", 0.0)))
        return eval_nilsequence(atom, window)
    if kind == "alternating":
        return signal_from(
            lambda ns: np.where(ns % 2 == 0, 1.0 + 0j, -1.0 + 0j), window, 1.0
        )
    if kind == "spike":
        vals = np.zeros(window.length, dtype=np.complex128)
        height = float(spec.get("height", 1.0))
        for pos in spec["positions"]:
            pos = _config_int(pos, "positions")
            if not window.contains(pos):
                raise ConfigError(f"spike position {pos} outside window")
            vals[pos - window.start] = height
        return Signal(window, vals, abs(height))
    if kind == "noise":
        phases = rng.random(window.length)
        return Signal(window, np.exp(2j * np.pi * phases), 1.0)
    if kind == "corpus":
        # entry i depends only on the draws before it, so the entries past
        # the index are never drawn
        idx = _config_int(spec["index"], "index")
        if not 0 <= idx < _config_int(spec.get("count", 8), "count"):
            raise ConfigError(f"corpus index {idx} out of range")
        grid = spec.get("freq_grid")
        entries = corpus_generate(
            spec["family"], _config_int(spec["ell"], "ell"),
            _config_int(spec.get("seed", seed), "seed"), window, count=idx + 1,
            freq_grid=None if grid is None else _config_int(grid, "freq_grid"),
            variant=spec.get("variant", "mixed"),
        )
        return entries[idx].signal
    if kind == "csv":
        return read_csv(spec["path"]).restrict(window)
    raise ConfigError(f"unknown signal kind {kind!r}")


# ---------------------------------------------------------------------------
# per-kind checks beyond the param schema
# ---------------------------------------------------------------------------

def _check_engine(params: dict, where: str) -> None:
    engine = params.get("engine", "exact")
    if engine not in ("exact", "numeric"):
        raise ConfigError(f"{where}.engine: must be 'exact' or 'numeric'")
    if engine != "numeric":
        return
    if "grid" not in params:
        raise ConfigError(f"{where}.grid: required for the numeric engine")
    grid = _config_int(params["grid"], f"{where}.grid")
    try:
        QuadratureSpec(grid)
    except ValueError as exc:
        raise ConfigError(f"{where}.grid: {exc}") from exc


def _dictionary_spec(dic: Mapping) -> DictionarySpec:
    return DictionarySpec(
        step=_config_int(dic["step"], "step"),
        degrees=(tuple(_config_int(k, "degrees") for k in dic["degrees"])
                 if "degrees" in dic else None),
        freq_resolution=_config_int(dic["Q"], "Q"),
        include_brackets=bool(dic.get("include_brackets", False)),
        ridge=dic.get("ridge"),
        budget=_config_int(dic.get("budget", 4096), "budget"),
    )


def _check_dictionary(params: dict, where: str) -> None:
    where = f"{where}.dictionary"
    _require_keys(params["dictionary"],
                  ("step", "degrees", "Q", "include_brackets", "ridge",
                   "budget"),
                  ("step", "Q"), where)
    try:
        _dictionary_spec(params["dictionary"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _check_class_distance(params: dict, where: str) -> None:
    family = params["family"]
    if not isinstance(family, str) or family not in CLASS_MAX_ELL:
        raise ConfigError(f"{where}.family: must be A, B or C")
    for name in ("ell", "budget", "L", "Q"):
        if name in params and _config_int(params[name], f"{where}.{name}") < 1:
            raise ConfigError(f"{where}.{name}: must be >= 1")
    top = CLASS_MAX_ELL[family]
    if params["ell"] > top:
        raise ConfigError(f"{where}.ell: class {family} supports ell in 1..{top}")


def _check_subsequence(params: dict, where: str) -> None:
    try:
        checkpoints = [_config_int(c, f"{where}.checkpoints")
                       for c in params["checkpoints"]]
    except TypeError as exc:
        raise ConfigError(f"{where}.checkpoints: {exc}") from exc
    if not checkpoints or min(checkpoints) < 1:
        raise ConfigError(f"{where}.checkpoints: must be positive integers")
    where = f"{where}.subsequence"
    raw = params["subsequence"]
    _require_keys(raw, ("kind", "q", "r", "density"), ("kind",), where)
    try:
        SubsequenceSpec.from_dict(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# subsequences r_n with at most linear growth
# ---------------------------------------------------------------------------

SUBSEQUENCE_KINDS = ("identity", "arithmetic", "sqrt-perturbed", "random-density")
_DRAW_BATCH = 1 << 16


@dataclass(frozen=True)
class SubsequenceSpec:
    """Strictly increasing index sequences with linear growth.

    Kinds: ``identity`` (r_n = n), ``arithmetic`` (r_n = q n + r, q >= 1),
    ``sqrt-perturbed`` (r_n = n + isqrt(n)), and ``random-density`` (the
    sorted elements of a seeded random subset of the integers containing
    each one independently with probability ``density``).
    """

    kind: str
    q: int = 1
    r: int = 0
    density: Union[float, None] = None

    def __post_init__(self) -> None:
        if self.kind not in SUBSEQUENCE_KINDS:
            raise ValueError(f"unknown subsequence kind {self.kind!r}")
        if self.kind == "arithmetic" and self.q < 1:
            raise ValueError("arithmetic subsequence needs q >= 1")
        if self.kind == "random-density":
            if self.density is None or not 0.0 < self.density <= 1.0:
                raise ValueError("random-density needs density in (0, 1]")

    def generate(self, count: int, seed: int = 0,
                 end: Union[int, None] = None) -> np.ndarray:
        """The first ``count`` terms.  ``random-density`` draws one uniform
        number per candidate 1, 2, ... and stops early, with fewer terms,
        once the candidates reach ``end``."""
        ns = np.arange(1, count + 1, dtype=np.int64)
        if self.kind == "identity":
            terms = ns
        elif self.kind == "arithmetic":
            terms = self.q * ns + self.r
        elif self.kind == "sqrt-perturbed":
            terms = ns + np.array([math.isqrt(int(n)) for n in ns])
        else:
            # batches of draws continue the generator's stream exactly as
            # one draw per candidate would
            rng = np.random.default_rng(seed)
            terms = np.empty(0, dtype=np.int64)
            first = 1
            while len(terms) < count and (end is None or first < end):
                size = _DRAW_BATCH if end is None else min(_DRAW_BATCH, end - first)
                hits = np.flatnonzero(rng.random(size) < self.density)
                terms = np.concatenate((terms, first + hits))
                first += size
            terms = terms[:count]
        if np.any(np.diff(terms) <= 0):
            raise ValueError("subsequence is not strictly increasing")
        return terms

    def growth_constant(self, terms: np.ndarray) -> float:
        """Smallest c with r_n <= c * n over the generated prefix."""
        ns = np.arange(1, len(terms) + 1, dtype=float)
        return float(np.max(terms / ns))

    @staticmethod
    def from_dict(raw: Mapping) -> "SubsequenceSpec":
        return SubsequenceSpec(
            kind=raw["kind"],
            q=_config_int(raw.get("q", 1), "q"),
            r=_config_int(raw.get("r", 0), "r"),
            density=raw.get("density"),
        )


@dataclass(frozen=True, eq=False)
class SubsequenceAverageTable:
    checkpoints: tuple
    averages: tuple
    max_successive_diff: float
    growth_constant: float

    def to_json_dict(self) -> dict:
        return {
            "checkpoints": list(self.checkpoints),
            "averages": [{"N": int(n), "re": v.real, "im": v.imag}
                         for n, v in zip(self.checkpoints, self.averages)],
            "max_successive_diff": self.max_successive_diff,
            "growth_constant": self.growth_constant,
            "note": ("Cauchy diagnostic only: finite checkpoints cannot "
                     "decide whether the limit exists."),
        }


def subsequence_average(a: Signal, spec: SubsequenceSpec,
                        checkpoints: Sequence[int],
                        seed: int = 0) -> SubsequenceAverageTable:
    """Partial averages ``(1/N) sum_{n<=N} a(r_n)`` at each checkpoint.

    Raises if the window cannot supply the largest checkpoint, naming the
    largest one it can.
    """
    checkpoints = sorted(int(c) for c in checkpoints)
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive integers")
    terms = spec.generate(checkpoints[-1], seed=seed, end=a.window.end)
    inside = (terms >= a.window.start) & (terms < a.window.end)
    if len(terms) < checkpoints[-1] or not inside.all():
        usable = int(np.argmin(inside)) if not inside.all() else len(terms)
        raise ValueError(
            f"window exhausted: largest usable checkpoint is {usable}"
        )
    picked = a.values[terms - a.window.start]
    cums = np.cumsum(picked)
    averages = tuple(complex(cums[c - 1] / c) for c in checkpoints)
    diffs = [abs(averages[i + 1] - averages[i]) for i in range(len(averages) - 1)]
    return SubsequenceAverageTable(
        checkpoints=tuple(checkpoints),
        averages=averages,
        max_successive_diff=max(diffs) if diffs else 0.0,
        growth_constant=spec.growth_constant(terms),
    )


# ---------------------------------------------------------------------------
# class distance search
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ClassDistanceResult:
    best_distance: float
    witness: str
    evaluated: int


def _class_a_candidates(ell: int, window: Window, seed: int, freq_grid: int):
    yield constant_signal(0.0, window), "zero"
    if ell >= 2:
        for j in range(freq_grid):
            atom = PolynomialPhase((0.0, j / freq_grid))
            yield eval_nilsequence(atom, window), atom.label
    rng = np.random.default_rng(seed)
    while True:
        if ell == 1:
            c = float(rng.random()) * np.exp(2j * np.pi * rng.random())
            yield constant_signal(c, window), f"constant({c!r})"
        else:
            atom = PolynomialPhase((float(rng.random()), float(rng.random())))
            yield eval_nilsequence(atom, window), atom.label


def class_distance(target: Signal, family: str, ell: int, budget: int,
                   scale, seed: int = 0,
                   freq_grid: int = 64) -> ClassDistanceResult:
    """Minimum density-seminorm distance from target to sampled class members.

    Candidates stream in a deterministic per-seed order (the zero sequence
    first, then grid atoms for class A, then seeded samples), so the result
    is monotone nonincreasing in the budget.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if family == "A":
        stream = _class_a_candidates(ell, target.window, seed, freq_grid)
    elif family in ("B", "C"):
        def _bc_stream():
            yield constant_signal(0.0, target.window), "zero"
            entries = corpus_generate(family, ell, seed, target.window,
                                      count=max(budget - 1, 1),
                                      freq_grid=freq_grid)
            for entry in entries:
                yield entry.signal, entry.label
        stream = _bc_stream()
    else:
        raise ValueError(f"unknown class {family!r}")
    best = math.inf
    witness = ""
    evaluated = 0
    for signal, label in stream:
        if evaluated >= budget:
            break
        dist = density_seminorm(target - signal, scale)
        evaluated += 1
        if dist < best:
            best = dist
            witness = label
    return ClassDistanceResult(best_distance=float(best), witness=witness,
                               evaluated=evaluated)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def _write_artifact(path: Path, payload) -> None:
    """Write a dict as JSON, a Signal as CSV or a list of rows as CSV."""
    if isinstance(payload, Signal):
        write_csv(payload, path)
    elif isinstance(payload, dict):
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(payload)


def _build_signals(cfg: ExperimentConfig) -> list:
    """The kind's signal params, built in order from one seeded generator."""
    rng = np.random.default_rng(cfg.seed)
    signals = []
    for name in KINDS[cfg.kind].signals:
        try:
            signals.append(build_signal(cfg.params[name], cfg.window, rng,
                                        seed=cfg.seed))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"params.{name}: {exc}") from exc
    return signals


def _gowers_params(params: Mapping) -> GowersParams:
    H, L = (None if params.get(k) is None
            else _config_int(params[k], f"params.{k}") for k in ("H", "L"))
    return GowersParams(order=_config_int(params["order"], "params.order"),
                        shift_count=H, scale=L)


def _system_from_config(raw: Mapping, where: str) -> AffineToralSystem:
    _require_keys(raw, ("dimension", "transformations"),
                  ("dimension", "transformations"), where)
    try:
        maps = tuple(
            ToralMap(tuple(tuple(_config_int(v, "matrix") for v in row)
                           for row in t["matrix"]),
                     tuple(float(x) for x in t["alpha"]))
            for t in raw["transformations"]
        )
        return AffineToralSystem(_config_int(raw["dimension"], "dimension"),
                                 maps)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _query_from_params(params: Mapping, where: str) -> CorrelationQuery:
    system = _system_from_config(params["system"], f"{where}.system")
    try:
        observables = tuple(
            TrigObservable(tuple(
                (tuple(_config_int(v, f"{where}.observables.k")
                       for v in term["k"]),
                 complex(term.get("re", 1.0), term.get("im", 0.0)))
                for term in obs
            ))
            for obs in params["observables"]
        )
        iterates = tuple(
            tuple(tuple(_config_int(c, f"{where}.iterates") for c in poly)
                  for poly in row)
            for row in params["iterates"]
        )
        query = CorrelationQuery(system, observables, iterates)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if not all(cmath.isfinite(c) for obs in observables for _, c in obs.terms):
        raise ConfigError(f"{where}.observables: coefficients must be finite")
    try:
        query.require_valid()
    except ValueError as exc:
        raise ConfigError(f"{where}.system: {exc}") from exc
    return query


def _run_gowers(cfg: ExperimentConfig) -> dict:
    target, = _build_signals(cfg)
    report = ghk_seminorm(target, _gowers_params(cfg.params))
    return {"gowers_report.json": report.to_json_dict()}


def _run_correlate(cfg: ExperimentConfig) -> dict:
    query = _query_from_params(cfg.params, "params")
    engine = cfg.params.get("engine", "exact")
    if engine == "exact":
        signal = correlate_exact(query, cfg.window)
    else:
        grid = _config_int(cfg.params["grid"], "params.grid")
        signal = correlate_numeric(query, cfg.window, QuadratureSpec(grid))
    return {"correlation.csv": signal,
            "query.json": {"engine": engine,
                           "window": [cfg.window.start, cfg.window.end]}}


def _run_decompose(cfg: ExperimentConfig) -> dict:
    target, = _build_signals(cfg)
    order = _config_int(cfg.params["order"], "params.order")
    report = decompose(target, order,
                       float(cfg.params["epsilon"]),
                       _dictionary_spec(cfg.params["dictionary"]),
                       _gowers_params(cfg.params))
    return {"decomposition.json": report.to_json_dict(),
            "a_st.csv": report.a_st, "a_er.csv": report.a_er}


def _run_vdc(cfg: ExperimentConfig) -> dict:
    target, = _build_signals(cfg)
    H = _config_int(cfg.params["H"], "params.H")
    report = vdc_defect(target.values, H)
    return {"vdc.json": asdict(report)}


def _run_anti_uniformity(cfg: ExperimentConfig) -> dict:
    a, b = _build_signals(cfg)
    report = anti_uniformity_ratio(a, b, _gowers_params(cfg.params))
    return {"anti_uniformity.json": {
        "correlation": report.correlation,
        "bound": report.bound,
        "ratio": None if math.isinf(report.ratio) else report.ratio,
        "unbounded": report.unbounded,
    }}


def _run_interpolate_check(cfg: ExperimentConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    params = {k: _config_int(v, f"params.{k}") for k, v in cfg.params.items()}
    cases = params["cases"]
    ells = [params["ell"]] if "ell" in params else [2, 3, 4, 5]
    dims = [params["dimension"]] if "dimension" in params else [1, 2, 3]
    worst = 0.0
    rows = []
    for i in range(cases):
        ell = ells[i % len(ells)]
        d = dims[i % len(dims)]
        g = rng.random(d)
        h = rng.random(d)
        points = [np.mod(i2 * h + g, 1.0) for i2 in range(1, ell + 1)]
        recovered = torus_interpolate(points)
        err = float(np.max(np.minimum(np.abs(recovered - g),
                                      1.0 - np.abs(recovered - g))))
        worst = max(worst, err)
        rows.append({"case": i, "ell": ell, "dimension": d, "error": err})
    return {"interpolation.json": {"cases": rows, "max_error": worst}}


def _run_class_distance(cfg: ExperimentConfig) -> dict:
    target, = _build_signals(cfg)
    scale = _config_int(cfg.params.get("L", cfg.window.length), "params.L")
    if scale > cfg.window.length:
        raise ConfigError(f"params.L: {scale} exceeds the window length "
                          f"{cfg.window.length}")
    ell = _config_int(cfg.params["ell"], "params.ell")
    budget = _config_int(cfg.params["budget"], "params.budget")
    result = class_distance(
        target, cfg.params["family"], ell, budget, scale, seed=cfg.seed,
        freq_grid=_config_int(cfg.params.get("Q", 64), "params.Q"),
    )
    return {"class_distance.json": asdict(result)}


def _run_subsequence_average(cfg: ExperimentConfig) -> dict:
    target, = _build_signals(cfg)
    spec = SubsequenceSpec.from_dict(cfg.params["subsequence"])
    try:
        table = subsequence_average(target, spec, cfg.params["checkpoints"],
                                    seed=cfg.seed)
    except ValueError as exc:  # after load checks: the window is exhausted
        raise ConfigError(f"params.subsequence: {exc}") from exc
    rows = [["N", "re", "im"]]
    rows += [[int(n), repr(v.real), repr(v.imag)]
             for n, v in zip(table.checkpoints, table.averages)]
    return {"subsequence_average.json": table.to_json_dict(),
            "partial_averages.csv": rows}


KINDS: dict[str, ExperimentKind] = {
    "gowers": ExperimentKind(
        "uniformity seminorm of a target signal", _run_gowers,
        required=("target", "order"), optional=("H", "L"),
        signals=("target",)),
    "correlate": ExperimentKind(
        "correlation sequence of a torus system query", _run_correlate,
        required=("system", "observables", "iterates"),
        optional=("engine", "grid"), check=_check_engine),
    "decompose": ExperimentKind(
        "structured-plus-error split against a dictionary", _run_decompose,
        required=("target", "order", "epsilon", "dictionary"),
        optional=("H", "L"), signals=("target",), check=_check_dictionary),
    "vdc-check": ExperimentKind(
        "van der Corput difference comparison", _run_vdc,
        required=("target", "H"), signals=("target",)),
    "anti-uniformity": ExperimentKind(
        "correlation versus 4x uniformity seminorm", _run_anti_uniformity,
        required=("a", "b", "order"), optional=("H", "L"),
        signals=("a", "b")),
    "interpolate-check": ExperimentKind(
        "base-point interpolation identity check", _run_interpolate_check,
        required=("cases",), optional=("ell", "dimension")),
    "class-distance": ExperimentKind(
        "distance from a signal to a sequence class", _run_class_distance,
        required=("target", "family", "ell", "budget"), optional=("L", "Q"),
        signals=("target",), check=_check_class_distance),
    "subsequence-average": ExperimentKind(
        "partial averages along a subsequence", _run_subsequence_average,
        required=("target", "subsequence", "checkpoints"),
        signals=("target",), check=_check_subsequence, command="subseq-avg"),
}


@dataclass(frozen=True, eq=False)
class RunResult:
    config_hash: str
    out_dir: Path
    artifacts: tuple
    cache_hit: bool


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Execute one experiment; artifacts land in the output directory.

    A miss writes each artifact and the manifest once, into a private stage
    directory.  With caching enabled the stage is made under the cache root
    and renamed to become the entry for the config hash, which a rerun
    replays byte-identically; the output directory gets copies.
    """
    out_dir = Path(cfg.out_dir) if cfg.out_dir else Path.cwd()
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = cfg.digest()
    cached = cache_root() / digest
    if cfg.use_cache and cached.is_dir():
        names = sorted(p.name for p in cached.iterdir())
        for name in names:
            shutil.copyfile(cached / name, out_dir / name)
        return RunResult(digest, out_dir, tuple(names), cache_hit=True)

    started = time.perf_counter()
    artifacts = KINDS[cfg.kind].run(cfg)
    root = cached.parent if cfg.use_cache else None
    if root is not None:
        root.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix="stage-", dir=root))
    try:
        for name, payload in artifacts.items():
            _write_artifact(stage / name, payload)
        manifest = {
            "config_hash": digest,
            "config": json.loads(cfg.canonical()),
            "artifacts": sorted(artifacts),
            "versions": {
                "nilseqlab": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
            "wall_time_s": round(time.perf_counter() - started, 6),
        }
        _write_artifact(stage / "manifest.json", manifest)
        names = sorted(p.name for p in stage.iterdir())
        if cfg.use_cache:  # on OSError a concurrent run won; serve its bytes
            with contextlib.suppress(OSError):
                os.replace(stage, cached)
        source = cached if cfg.use_cache and cached.is_dir() else stage
        for name in names:
            shutil.copyfile(source / name, out_dir / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return RunResult(digest, out_dir, tuple(names), cache_hit=False)
