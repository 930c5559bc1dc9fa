"""Config-driven experiment runner with deterministic caching.

A JSON-compatible config holds only what is computed (kind, window, per-kind
params, seed); the output directory and the cache are arguments of the run.
Each kind is one :data:`KINDS` record: its param schema, its parser (which
turns the params into the kind's runner) and its CLI entry.  Results are CSV
tables and JSON reports plus a manifest; the SHA-256 of the canonicalized
config keys a cache directory, and a rerun reuses its artifacts byte for byte.
"""

from __future__ import annotations

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
from .errors import BudgetError, ConfigError
from .nilmanifolds import BracketPhase, PolynomialPhase, eval_nilsequence, torus_interpolate
from .signals import (Signal, Window, constant_signal, density_seminorm,
                      read_csv, write_csv)
from .systems import (CLASS_MAX_ELL, DEFAULT_QUAD_BUDGET, AffineToralSystem,
                      CorrelationQuery, QuadratureSpec, ToralMap, TrigObservable,
                      corpus_generate, correlate_exact, correlate_numeric)
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


def _config_int(value, where: str, low: Union[int, None] = None) -> int:
    """An integer from config input: an int or an integral float, at least
    ``low`` when given.  A boolean, a fractional or non-finite number or a
    string raises ``ConfigError`` instead of being truncated."""
    number = int(value) if isinstance(value, float) and value.is_integer() else None
    if number is None and not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            number = operator.index(value)
    if number is None or low is not None and number < low:
        rule = "" if low is None else f" >= {low}"
        raise ConfigError(f"{where}: must be an integer{rule}, got {value!r}")
    return number


def _config_real(value, where: str, positive: bool = False,
                 signed: bool = False) -> float:
    """A finite number from config input: of either sign when ``signed``,
    else ``> 0`` when ``positive`` and ``>= 0`` otherwise.  A boolean, a
    string or a NaN raises ``ConfigError``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond float
            if math.isfinite(value) and (signed or value > 0
                                         or value == 0 and not positive):
                return float(value)
    rule = "" if signed else " > 0" if positive else " >= 0"
    raise ConfigError(f"{where}: must be a finite number{rule}, got {value!r}")


@dataclass(frozen=True)
class ExperimentKind:
    """Schema, parser and CLI entry of one experiment kind.

    ``signals`` names the params that hold signal specs.  ``parse(params,
    window, where)`` reads every other param, checked against the window, and
    returns the kind's runner, a closure over the values read, or raises
    ``ConfigError`` naming ``where.<field>``; loading a config parses it once.
    The runner ``run(seed, **signals)`` maps the seed and the built signals
    (by keyword) to the artifacts, ``{file name: dict (JSON), Signal (CSV) or
    list of CSV rows}``; ``command`` is the CLI spelling when it differs from
    the kind.
    """

    help: str
    parse: Callable[[dict, Window, str], Callable[..., dict]]
    required: Tuple[str, ...]
    optional: Tuple[str, ...] = ()
    signals: Tuple[str, ...] = ()
    command: Union[str, None] = None


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """What is computed: the kind, window, params as written and seed (the
    digest keys these), each signal param's builder and the kind's runner."""

    kind: str
    window: Window
    params: dict
    builders: dict
    run: Callable[..., dict]
    seed: int = 0

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
        allowed=("kind", "window", "params", "seed"),
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
    _check_cells(1, window.length, f"{source}.window")  # a signal spans it
    seed = _config_int(raw.get("seed", 0), f"{source}.seed", low=0)
    spec = KINDS[kind]
    where = f"{source}.params"
    _require_keys(raw["params"], spec.required + spec.optional, spec.required,
                  where)
    params = dict(raw["params"])
    builders = {name: parse_signal_spec(params[name], window, f"{where}.{name}")
                for name in spec.signals}
    return ExperimentConfig(
        kind=kind,
        window=window,
        params=params,
        builders=builders,
        run=spec.parse(params, window, where),
        seed=seed,
    )


def load_config(path, seed: Union[int, None] = None) -> ExperimentConfig:
    """Read a JSON config file; ``seed``, when given, replaces its seed."""
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
    if seed is not None:
        raw = {**raw, "seed": seed}
    return config_from_dict(raw, source=str(path))


# ---------------------------------------------------------------------------
# signal specs (shared mini-language for experiment targets)
# ---------------------------------------------------------------------------

def _config_class(params: Mapping, where: str) -> Tuple[str, int]:
    family = params["family"]
    if not isinstance(family, str) or family not in CLASS_MAX_ELL:
        raise ConfigError(f"{where}.family: must be A, B or C")
    ell, top = _config_int(params["ell"], f"{where}.ell"), CLASS_MAX_ELL[family]
    if not 1 <= ell <= top:
        raise ConfigError(f"{where}.ell: class {family} supports ell in 1..{top}")
    return family, ell


def _check_cells(rows: int, columns: int, where: str, what: str = "signals") -> None:
    """Refuse a run whose ``what`` holds more than ``DEFAULT_QUAD_BUDGET``
    cells; ``corpus_generate`` builds all its entries before any is read."""
    if rows * columns > DEFAULT_QUAD_BUDGET:
        raise BudgetError(f"{where}: {what} of {rows} x {columns} cells, over "
                          f"the budget of {DEFAULT_QUAD_BUDGET} cells")


def parse_signal_spec(spec: Mapping, window: Window,
                      where: str) -> Callable[[np.random.Generator, int], Signal]:
    """Read a signal spec, checked against the window, into its builder
    ``build(rng, seed) -> Signal``; only the builder allocates the window's
    values.  Random kinds consume the generator; corpus kinds reuse the
    experiment seed unless the spec pins its own."""
    if not isinstance(spec, Mapping) or "kind" not in spec:
        raise ConfigError(f"{where}: signal spec must be an object with a 'kind'")
    kind = spec["kind"]
    fields = {k: v for k, v in spec.items() if k != "kind"}

    def real(name: str, default: float = 0.0) -> float:
        return _config_real(spec.get(name, default), f"{where}.{name}", signed=True)

    if kind == "constant":
        _require_keys(fields, ("re", "im"), (), where)
        c = complex(real("re", 1.0), real("im"))
        return lambda rng, seed: constant_signal(c, window)
    if kind == "alternating":
        _require_keys(fields, (), (), where)
        return lambda rng, seed: Signal(window, 1 - 2 * (window.indices() % 2), 1.0)
    if kind == "noise":
        _require_keys(fields, (), (), where)
        return lambda rng, seed: Signal(
            window, np.exp(2j * np.pi * rng.random(window.length)), 1.0)
    if kind == "spike":
        _require_keys(fields, ("positions", "height"), ("positions",), where)
        height, field = real("height", 1.0), f"{where}.positions"
        if not isinstance(spec["positions"], list):
            raise ConfigError(f"{field}: must be a list of integers")
        positions = [_config_int(pos, field) for pos in spec["positions"]]
        if not all(map(window.contains, positions)):
            raise ConfigError(f"{field}: a spike position is outside the window")
        return lambda rng, seed: Signal(window, np.where(
            np.isin(window.indices(), positions), height, 0.0), abs(height))
    if kind == "corpus":
        _require_keys(fields, ("family", "ell", "index", "count", "variant",
                               "freq_grid", "seed"),
                      ("family", "ell", "index"), where)
        family, ell = _config_class(spec, where)
        index = _config_int(spec["index"], f"{where}.index", low=0)
        if index >= _config_int(spec.get("count", 8), f"{where}.count"):
            raise ConfigError(f"{where}.index: must be below count")
        grid = spec.get("freq_grid")
        grid = None if grid is None else _config_int(grid, f"{where}.freq_grid", low=1)
        pinned = (_config_int(spec["seed"], f"{where}.seed", low=0)
                  if "seed" in spec else None)
        variant = spec.get("variant", "mixed")
        if variant not in ("mixed", "rotations"):
            raise ConfigError(f"{where}.variant: must be 'mixed' or 'rotations'")
        _check_cells(index + 1, window.length, f"{where}.index")
        # entry i depends only on the draws before it, so the entries past
        # the index are never drawn
        return lambda rng, seed: corpus_generate(
            family, ell, seed if pinned is None else pinned, window,
            count=index + 1, freq_grid=grid, variant=variant)[index].signal
    if kind == "csv":
        _require_keys(fields, ("path",), ("path",), where)
        path = spec["path"]
        if not isinstance(path, str):  # not a descriptor
            raise ConfigError(f"{where}.path: must be a string, got {path!r}")
        return lambda rng, seed: read_csv(path).restrict(window)
    if kind == "linear_phase":
        _require_keys(fields, ("alpha", "theta"), ("alpha",), where)
        atom = PolynomialPhase((real("theta"), real("alpha")))
    elif kind == "quadratic_phase":
        _require_keys(fields, ("gamma",), ("gamma",), where)
        atom = PolynomialPhase((0.0, 0.0, real("gamma")))
    elif kind == "bracket_phase":
        _require_keys(fields, ("quad", "cross", "alpha", "linear"), (), where)
        atom = BracketPhase(real("quad"), real("cross"), real("alpha"), real("linear"))
    elif kind == "polynomial_phase":
        _require_keys(fields, ("coefficients",), ("coefficients",), where)
        field, coefficients = f"{where}.coefficients", spec["coefficients"]
        if not isinstance(coefficients, list) or not 1 <= len(coefficients) <= 4:
            raise ConfigError(f"{field}: must list 1 to 4 numbers (degree 0..3)")
        atom = PolynomialPhase(tuple(_config_real(c, field, signed=True)
                                     for c in coefficients))
    else:
        raise ConfigError(f"{where}.kind: unknown signal kind {kind!r}")
    return lambda rng, seed: eval_nilsequence(atom, window)


def build_signal(build: Callable[[np.random.Generator, int], Signal],
                 rng: np.random.Generator, seed: int) -> Signal:
    """Materialize a signal through the builder ``parse_signal_spec`` made."""
    return build(rng, seed)


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
    count = min(checkpoints[-1], a.window.length)  # no more terms fit in the window
    terms = spec.generate(count, seed=seed, end=a.window.end)
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
        entries = corpus_generate(family, ell, seed, target.window,
                                  count=max(budget - 1, 1), freq_grid=freq_grid)
        stream = [(constant_signal(0.0, target.window), "zero")]
        stream += [(entry.signal, entry.label) for entry in entries]
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


def _system_from_config(raw: Mapping, where: str) -> AffineToralSystem:
    _require_keys(raw, ("dimension", "transformations"),
                  ("dimension", "transformations"), where)
    try:
        for t in raw["transformations"]:
            _require_keys(t, ("matrix", "alpha"), ("matrix", "alpha"),
                          "transformations")
        maps = tuple(
            ToralMap(tuple(tuple(_config_int(v, "matrix") for v in row)
                           for row in t["matrix"]),
                     tuple(_config_real(x, "alpha", signed=True)
                           for x in t["alpha"]))
            for t in raw["transformations"]
        )
        return AffineToralSystem(_config_int(raw["dimension"], "dimension"),
                                 maps)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _query_from_params(params: Mapping, where: str) -> CorrelationQuery:
    system = _system_from_config(params["system"], f"{where}.system")
    terms = field = f"{where}.observables"
    try:
        for term in (term for obs in params["observables"] for term in obs):
            _require_keys(term, ("k", "re", "im"), ("k",), terms)
        observables = tuple(
            TrigObservable(tuple(
                (tuple(_config_int(v, f"{terms}.k") for v in term["k"]),
                 complex(_config_real(term.get("re", 1.0), f"{terms}.re", signed=True),
                         _config_real(term.get("im", 0.0), f"{terms}.im", signed=True)))
                for term in obs
            ))
            for obs in params["observables"]
        )
        field = f"{where}.iterates"
        iterates = tuple(
            tuple(tuple(_config_int(c, field) for c in poly) for poly in row)
            for row in params["iterates"]
        )
        query = CorrelationQuery(system, observables, iterates)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        if "observable" in str(exc):  # a CorrelationQuery check of observables
            field = terms
        raise ConfigError(f"{field}: {exc}") from exc
    try:
        query.require_valid()
    except ValueError as exc:
        raise ConfigError(f"{where}.system: {exc}") from exc
    return query


def _gowers_params(params: dict, window: Window, where: str) -> GowersParams:
    # H >= 1 here, before GowersParams refuses it with a bare ValueError
    H, L = (None if params.get(k) is None
            else _config_int(params[k], f"{where}.{k}", low=1) for k in ("H", "L"))
    gowers = GowersParams(_config_int(params["order"], f"{where}.order"),
                          shift_count=H, scale=L)
    try:
        shifts = gowers.resolve(window.length)[0]
    except ValueError as exc:  # resolve checks H before L
        field = "L" if L is not None and (H or 1) < window.length else "H"
        raise ConfigError(f"{where}.{field}: {exc}") from exc
    _check_cells(shifts ** (gowers.order - 1), window.length, f"{where}.H",
                 "the recursion's leaf derivatives")
    return gowers


def _parse_gowers(params: dict, window: Window, where: str):
    gowers = _gowers_params(params, window, where)
    return lambda seed, target: {
        "gowers_report.json": ghk_seminorm(target, gowers).to_json_dict()}


def _parse_correlate(params: dict, window: Window, where: str):
    engine = params.get("engine", "exact")
    if engine not in ("exact", "numeric"):
        raise ConfigError(f"{where}.engine: must be 'exact' or 'numeric'")
    quadrature = None
    if engine == "numeric":
        if "grid" not in params:
            raise ConfigError(f"{where}.grid: required for the numeric engine")
        grid = _config_int(params["grid"], f"{where}.grid")
        try:
            quadrature = QuadratureSpec(grid)
        except ValueError as exc:
            raise ConfigError(f"{where}.grid: {exc}") from exc
    query = _query_from_params(params, where)
    # a term combination's build costs about 1,650 cells (56 us at 34 ns a
    # cell), charged as 2,048, and its read one cell per window point
    _check_cells(math.prod(len(obs.terms) for obs in query.observables),
                 window.length + 2048, f"{where}.observables", "term combinations")

    def run(seed: int) -> dict:
        signal = (correlate_exact(query, window) if quadrature is None
                  else correlate_numeric(query, window, quadrature))
        return {"correlation.csv": signal,
                "query.json": {"engine": engine, "window": [window.start, window.end]}}
    return run


def _parse_decompose(params: dict, window: Window, where: str):
    gowers = _gowers_params(params, window, where)
    epsilon = _config_real(params["epsilon"], f"{where}.epsilon", positive=True)
    try:  # decompose reports delta = (epsilon/16)^(2^order)
        (epsilon / 16.0) ** (2 ** gowers.order)
    except OverflowError as exc:
        raise ConfigError(f"{where}.epsilon: {epsilon!r} overflows delta") from exc
    where, dic = f"{where}.dictionary", params["dictionary"]
    _require_keys(dic, ("step", "degrees", "Q", "include_brackets", "ridge",
                        "budget"), ("step", "Q"), where)
    brackets, ridge = dic.get("include_brackets", False), dic.get("ridge")
    try:
        if not isinstance(brackets, bool):
            raise ConfigError(f"include_brackets: must be true or false, "
                              f"got {brackets!r}")
        dictionary = DictionarySpec(
            step=_config_int(dic["step"], "step"),
            degrees=(tuple(_config_int(k, "degrees") for k in dic["degrees"])
                     if "degrees" in dic else None),
            freq_resolution=_config_int(dic["Q"], "Q"),
            include_brackets=brackets,
            ridge=None if ridge is None else _config_real(ridge, "ridge"),
            budget=_config_int(dic.get("budget", 4096), "budget"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    atoms = dictionary.atom_count()  # the larger of the atom matrix and Gram
    _check_cells(atoms, max(atoms, window.length), where, "an atom matrix or Gram")

    def run(seed: int, target: Signal) -> dict:
        try:
            report = decompose(target, epsilon, dictionary, gowers)
        except ValueError as exc:  # known only once the target and atoms are built
            field = "dictionary.ridge" if "Gram" in str(exc) else "target"
            raise ConfigError(f"params.{field}: {exc}") from exc
        return {"decomposition.json": report.to_json_dict(),
                "a_st.csv": report.a_st, "a_er.csv": report.a_er}
    return run


def _parse_vdc(params: dict, window: Window, where: str):
    H = _config_int(params["H"], f"{where}.H")
    if not 1 <= H < window.length:
        raise ConfigError(f"{where}.H: must lie in 1..{window.length - 1}")
    _check_cells(H, window.length, f"{where}.H", "the shifted windows")
    return lambda seed, target: {"vdc.json": asdict(vdc_defect(target.values, H))}


def _parse_anti_uniformity(params: dict, window: Window, where: str):
    gowers = _gowers_params(params, window, where)

    def run(seed: int, a: Signal, b: Signal) -> dict:
        report = anti_uniformity_ratio(a, b, gowers)
        return {"anti_uniformity.json": {
            "correlation": report.correlation,
            "bound": report.bound,
            "ratio": None if math.isinf(report.ratio) else report.ratio,
            "unbounded": report.unbounded,
        }}
    return run


def _parse_interpolate(params: dict, window: Window, where: str):
    parsed = {name: _config_int(value, f"{where}.{name}", low=1)
              for name, value in params.items()}
    if not 2 <= parsed.get("ell", 2) <= 8:  # as torus_interpolate
        raise ConfigError(f"{where}.ell: must lie in 2..8")
    ells = [parsed["ell"]] if "ell" in parsed else [2, 3, 4, 5]
    dims = [parsed["dimension"]] if "dimension" in parsed else [1, 2, 3]
    # a case: ell points of the dimension, and a row as slow as 1024 cells
    per_case = max(ells) * max(dims) + 1024
    _check_cells(1, per_case, f"{where}.dimension", "an interpolation case")
    _check_cells(parsed["cases"], per_case, f"{where}.cases", "interpolation cases")

    def run(seed: int) -> dict:
        rng = np.random.default_rng(seed)
        worst = 0.0
        rows = []
        for i in range(parsed["cases"]):
            ell, d = ells[i % len(ells)], dims[i % len(dims)]
            g, h = rng.random(d), rng.random(d)
            points = [np.mod(i2 * h + g, 1.0) for i2 in range(1, ell + 1)]
            recovered = torus_interpolate(points)
            err = float(np.max(np.minimum(np.abs(recovered - g),
                                          1.0 - np.abs(recovered - g))))
            worst = max(worst, err)
            rows.append({"case": i, "ell": ell, "dimension": d, "error": err})
        return {"interpolation.json": {"cases": rows, "max_error": worst}}
    return run


def _parse_class_distance(params: dict, window: Window, where: str):
    family, ell = _config_class(params, where)
    values = {"L": window.length, "Q": 64, **params}
    budget, L, Q = (_config_int(values[name], f"{where}.{name}", low=1)
                    for name in ("budget", "L", "Q"))
    if L > window.length:
        raise ConfigError(f"{where}.L: {L} exceeds the window length "
                          f"{window.length}")
    # budget candidates: for B and C, the zero sequence and budget - 1 entries
    _check_cells(budget if family == "A" else max(budget - 1, 1), window.length,
                 f"{where}.budget")
    return lambda seed, target: {"class_distance.json": asdict(class_distance(
        target, family, ell, budget, L, seed=seed, freq_grid=Q))}


def _parse_subsequence(params: dict, window: Window, where: str):
    try:
        checkpoints = [_config_int(c, f"{where}.checkpoints")
                       for c in params["checkpoints"]]
    except TypeError as exc:
        raise ConfigError(f"{where}.checkpoints: {exc}") from exc
    if not checkpoints or min(checkpoints) < 1:
        raise ConfigError(f"{where}.checkpoints: must be positive integers")
    where, raw = f"{where}.subsequence", params["subsequence"]
    _require_keys(raw, ("kind", "q", "r", "density"), ("kind",), where)
    density = raw.get("density")
    try:
        spec = SubsequenceSpec(
            kind=raw["kind"], q=_config_int(raw.get("q", 1), "q"),
            r=_config_int(raw.get("r", 0), "r"),
            density=(None if density is None
                     else _config_real(density, "density", positive=True)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    qN = spec.q * max(checkpoints)  # arithmetic terms run up to qN + r
    if spec.kind == "arithmetic" and not (qN < 2**63 and -2**63 <= spec.r < 2**63 - qN):
        raise ConfigError(f"{where}: q*N + r must fit in int64 for N <= "
                          f"{max(checkpoints)}")

    def run(seed: int, target: Signal) -> dict:
        try:
            table = subsequence_average(target, spec, checkpoints, seed=seed)
        except ValueError as exc:  # a csv target may end before the window
            raise ConfigError(f"params.subsequence: {exc}") from exc
        rows = [["N", "re", "im"]]
        rows += [[int(n), repr(v.real), repr(v.imag)]
                 for n, v in zip(table.checkpoints, table.averages)]
        return {"subsequence_average.json": table.to_json_dict(),
                "partial_averages.csv": rows}
    return run


KINDS: dict[str, ExperimentKind] = {
    "gowers": ExperimentKind(
        "uniformity seminorm of a target signal", _parse_gowers,
        required=("target", "order"), optional=("H", "L"),
        signals=("target",)),
    "correlate": ExperimentKind(
        "correlation sequence of a torus system query", _parse_correlate,
        required=("system", "observables", "iterates"),
        optional=("engine", "grid")),
    "decompose": ExperimentKind(
        "structured-plus-error split against a dictionary", _parse_decompose,
        required=("target", "order", "epsilon", "dictionary"),
        optional=("H", "L"), signals=("target",)),
    "vdc-check": ExperimentKind(
        "van der Corput difference comparison", _parse_vdc,
        required=("target", "H"), signals=("target",)),
    "anti-uniformity": ExperimentKind(
        "correlation versus 4x uniformity seminorm", _parse_anti_uniformity,
        required=("a", "b", "order"), optional=("H", "L"), signals=("a", "b")),
    "interpolate-check": ExperimentKind(
        "base-point interpolation identity check", _parse_interpolate,
        required=("cases",), optional=("ell", "dimension")),
    "class-distance": ExperimentKind(
        "distance from a signal to a sequence class", _parse_class_distance,
        required=("target", "family", "ell", "budget"), optional=("L", "Q"),
        signals=("target",)),
    "subsequence-average": ExperimentKind(
        "partial averages along a subsequence", _parse_subsequence,
        required=("target", "subsequence", "checkpoints"),
        signals=("target",), command="subseq-avg"),
}


@dataclass(frozen=True, eq=False)
class RunResult:
    config_hash: str
    out_dir: Path
    artifacts: tuple
    cache_hit: bool


def run_experiment(cfg: ExperimentConfig, out_dir: Union[str, Path, None] = None,
                   use_cache: bool = True) -> RunResult:
    """Execute one experiment; artifacts land in ``out_dir`` (default: cwd).

    A miss builds the signals (a build error is a ``ConfigError`` naming its
    param), calls the runner and writes each artifact and the manifest once:
    straight into the output directory without the cache, else into a private
    stage directory renamed to become the cache entry for the config hash (a
    concurrent run's entry wins).  A cached run copies the entry's files out:
    those it wrote on a miss, those listed on a hit.  The output directory is
    made only after the kind has run, so a refused run leaves none.  Every
    config check runs at load; after it a run is refused only by a csv read,
    the decompose sup-norm and ridge checks, numeric aliasing and budget
    errors, or an exhausted subsequence.
    """
    out_dir = Path(out_dir) if out_dir else Path.cwd()
    digest = cfg.digest()
    cached = cache_root() / digest
    hit = use_cache and cached.is_dir()
    if hit:
        names = sorted(p.name for p in cached.iterdir())
    else:
        started = time.perf_counter()
        rng = np.random.default_rng(cfg.seed)  # one stream, in param order
        signals = {}
        for name, build in cfg.builders.items():
            try:
                signals[name] = build_signal(build, rng, cfg.seed)
            except ValueError as exc:
                raise ConfigError(f"params.{name}: {exc}") from exc
        artifacts = cfg.run(cfg.seed, **signals)
        names = sorted([*artifacts, "manifest.json"])

        def write(directory: Path) -> None:
            for name, payload in artifacts.items():
                _write_artifact(directory / name, payload)
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
            _write_artifact(directory / "manifest.json", manifest)
        if not use_cache:  # each artifact is written once, straight out
            out_dir.mkdir(parents=True, exist_ok=True)
            write(out_dir)
            return RunResult(digest, out_dir, tuple(names), cache_hit=False)
        cached.parent.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix="stage-", dir=cached.parent))
        try:
            write(stage)
            with contextlib.suppress(OSError):  # a concurrent run won
                os.replace(stage, cached)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        shutil.copyfile(cached / name, out_dir / name)
    return RunResult(digest, out_dir, tuple(names), cache_hit=hit)
