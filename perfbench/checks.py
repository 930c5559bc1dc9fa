"""Output oracles, run untimed after each batch.

Each oracle reads the artifacts an experiment wrote and compares them with
a value computed another way: a closed form, the numeric engine on a
sub-window, or an identity the split must satisfy.  A check returns an
error message, or ``None`` when the output is right.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

EXACT_TOL = 1e-12
NUMERIC_TOL = 1e-10
ON_GRID_ERR2 = 1e-6
SEMINORM_RTOL = 1e-9
GOLDEN_RTOL = 1e-12
GOLDEN_ATOL = 1e-15  # for values that are rounding noise around 0
NUMERIC_CHECK_POINTS = (8, 4, 2, 1)
NUMERIC_CHECK_GRID = 1 << 13  # grid points per n: keeps the check's memory small
# the numeric engine rounds k.x in floats, so its error grows with |k|
NUMERIC_CHECK_MAX_FREQ = 1 << 10


def read_signal(path: Path):
    """(indices, complex values) of an ``n,re,im`` CSV artifact."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    ns = np.array([int(r[0]) for r in rows], dtype=np.int64)
    vals = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    return ns, vals


def _phase(t: Fraction) -> complex:
    return complex(np.exp(2j * np.pi * float(t % 1)))


def _poly(coefficients, n: int) -> int:
    return sum(c * n**k for k, c in enumerate(coefficients))


def rotation(out: Path, check: dict, tol: float):
    """Rotation pair along p(n): the sequence is e(p(n) (alpha - beta))."""
    ns, vals = read_signal(out / "correlation.csv")
    delta = Fraction(check["alpha"]) - Fraction(check["beta"])
    want = np.array([_phase(_poly(check["poly"], int(n)) * delta) for n in ns])
    err = float(np.max(np.abs(vals - want)))
    return None if err <= tol else f"rotation closed form off by {err:.3e}"


def spike(out: Path, check: dict, tol: float):
    """Skew spike: one unimodular value at n*, zero elsewhere."""
    ns, vals = read_signal(out / "correlation.csv")
    at = ns == check["n_star"]
    if at.sum() != 1:
        return f"spike position {check['n_star']} missing from the window"
    peak = abs(abs(complex(vals[at][0])) - 1.0)
    rest = float(np.max(np.abs(vals[~at]), initial=0.0))
    if peak > tol or rest > tol:
        return f"spike shape off: |v(n*)| - 1 = {peak:.3e}, max elsewhere {rest:.3e}"
    return None


def query_from_config(nl, params: dict):
    """The correlation query of a config, built through the public API."""
    system = params["system"]
    maps = tuple(nl.ToralMap(tuple(tuple(r) for r in t["matrix"]), tuple(t["alpha"]))
                 for t in system["transformations"])
    observables = tuple(
        nl.TrigObservable(tuple((tuple(term["k"]),
                                 complex(term.get("re", 1.0), term.get("im", 0.0)))
                                for term in obs))
        for obs in params["observables"])
    iterates = tuple(tuple(tuple(p) for p in row) for row in params["iterates"])
    return nl.CorrelationQuery(nl.AffineToralSystem(system["dimension"], maps),
                               observables, iterates)


def numeric_subwindow(nl, out: Path, config: dict):
    """Exact engine against the numeric engine on the window points nearest
    n = 0: as many of them (8, 4, 2 or 1) as a grid that cannot alias
    covers with at most NUMERIC_CHECK_GRID points.  Queries where none fits,
    or whose observables carry frequencies above NUMERIC_CHECK_MAX_FREQ,
    are left to their closed-form oracle."""
    ns, vals = read_signal(out / "correlation.csv")
    query = query_from_config(nl, config["params"])
    if max(abs(k) for obs in query.observables for freq, _ in obs.terms
           for k in freq) > NUMERIC_CHECK_MAX_FREQ:
        return None
    centre = int(np.argmin(np.abs(ns)))
    for points in NUMERIC_CHECK_POINTS:
        lo = max(0, min(centre - points // 2, len(ns) - points))
        sub = nl.Window(int(ns[lo]), int(ns[lo]) + points)
        grid = nl.required_grid_size(query, sub)
        if grid ** query.system.dimension <= NUMERIC_CHECK_GRID:
            numeric = nl.correlate_numeric(query, sub, nl.QuadratureSpec(grid))
            err = float(np.max(np.abs(numeric.values - vals[lo:lo + points])))
            return None if err <= NUMERIC_TOL else f"exact vs numeric off by {err:.3e}"
    return None


def decompose(out: Path, check: dict):
    """a_st + a_er = a, |a_st| <= 1, and err2 ~ 0 for an on-grid target."""
    _, a_st = read_signal(out / "a_st.csv")
    ns, a_er = read_signal(out / "a_er.csv")
    total = a_st + a_er
    if "alpha" in check:
        alpha, theta = Fraction(check["alpha"]), Fraction(check["theta"])
        want = np.array([_phase(theta + alpha * int(n)) for n in ns])
        err = float(np.max(np.abs(total - want)))
        if err > EXACT_TOL:
            return f"a_st + a_er differs from the target by {err:.3e}"
    else:
        err = float(np.max(np.abs(np.abs(total) - 1.0)))
        if err > EXACT_TOL:
            return f"a_st + a_er is not unimodular (off by {err:.3e})"
    over = float(np.max(np.abs(a_st))) - 1.0
    if over > EXACT_TOL:
        return f"|a_st| exceeds 1 by {over:.3e}"
    if check.get("on_grid"):
        err2 = json.loads((out / "decomposition.json").read_text())["err2"]
        if err2 > ON_GRID_ERR2:
            return f"on-grid err2 {err2:.3e} above {ON_GRID_ERR2}"
    return None


def quadratic_seminorm(out: Path, check: dict):
    """Order-2 seminorm of e(gamma n^2) from the geometric-sum closed form.

    The shift-h derivative is a linear phase of frequency frac(2 gamma h),
    whose length-L subwindow means all have modulus
    |sin(pi theta L) / (L sin(pi theta))|.
    """
    length, gamma = check["length"], Fraction(check["gamma"])
    H = math.isqrt(length)
    L = length - H
    mods = []
    for h in range(1, H + 1):
        theta = float((2 * h * gamma) % 1)
        mods.append(1.0 if theta == 0.0 else
                    abs(math.sin(math.pi * theta * L) / (L * math.sin(math.pi * theta))))
    want = float(np.mean(np.square(mods))) ** 0.25
    got = json.loads((out / "gowers_report.json").read_text())["value"]
    err = abs(got - want) / want
    return None if err <= SEMINORM_RTOL else f"order-2 seminorm off by {err:.3e} relative"


def class_distance(out: Path, check: dict):
    """All budgeted candidates are scored, and the zero candidate bounds the
    distance of a unimodular target by 1."""
    res = json.loads((out / "class_distance.json").read_text())
    if res["evaluated"] != check["budget"]:
        return f"evaluated {res['evaluated']} candidates, budget {check['budget']}"
    if not 0.0 <= res["best_distance"] <= 1.0 + EXACT_TOL:
        return f"best distance {res['best_distance']} outside [0, 1]"
    return None


def check_op(nl, op, out: Path):
    """Run the oracle an op names; ``None`` when the output is right."""
    check, config = op.check, op.config
    oracle = check.get("oracle")
    tol = NUMERIC_TOL if config["params"].get("engine") == "numeric" else EXACT_TOL
    if oracle == "rotation":
        error = rotation(out, check, tol)
    elif oracle == "spike":
        error = spike(out, check, tol)
    elif oracle == "decompose":
        error = decompose(out, check)
    elif oracle == "quadratic_seminorm":
        error = quadratic_seminorm(out, check)
    elif oracle == "class_distance":
        error = class_distance(out, check)
    else:
        error = None
    if error is None and op.command == "correlate" \
            and config["params"].get("engine") == "exact":
        error = numeric_subwindow(nl, out, config)
    return error


# ---------------------------------------------------------------------------
# artifact identity and recorded values
# ---------------------------------------------------------------------------

def artifact_digest(out: Path) -> str:
    """SHA-256 over every artifact, with the manifest's wall time dropped."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def same_bytes(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def _leaves(obj, floats: list, other: list) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            other.append(key)
            _leaves(obj[key], floats, other)
    elif isinstance(obj, list):
        for item in obj:
            _leaves(item, floats, other)
    elif isinstance(obj, float):
        floats.append(obj)
    else:
        other.append(obj)


def fingerprint(out: Path) -> dict:
    """Per artifact (the manifest excepted): every float value, in order,
    and a hash of every non-float value."""
    result = {}
    for path in sorted(out.iterdir()):
        if path.name == "manifest.json":
            continue
        floats, other = [], []
        if path.suffix == ".csv":
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            other.extend(rows[0])
            for row in rows[1:]:
                other.append(int(row[0]))
                floats.extend(float(v) for v in row[1:])
        else:
            _leaves(json.loads(path.read_text()), floats, other)
        result[path.name] = {
            "floats": floats,
            "other": hashlib.sha256(json.dumps(other).encode()).hexdigest(),
        }
    return result


def compare_fingerprint(got: dict, want: dict):
    """Every recorded float within GOLDEN_RTOL relative (GOLDEN_ATOL near 0)."""
    if sorted(got) != sorted(want):
        return f"artifacts {sorted(got)} differ from recorded {sorted(want)}"
    for name, rec in want.items():
        mine = got[name]
        if len(mine["floats"]) != len(rec["floats"]) or mine["other"] != rec["other"]:
            return f"{name}: layout or non-float values differ from the recording"
        have, value = np.array(mine["floats"]), np.array(rec["floats"])
        off = np.abs(have - value) > \
            GOLDEN_RTOL * np.maximum(np.abs(have), np.abs(value)) + GOLDEN_ATOL
        off |= np.isnan(have) != np.isnan(value)
        if off.any():
            i = int(np.argmax(off))
            return f"{name}: float #{i} is {float(have[i])!r}, recorded {float(value[i])!r}"
    return None


def read_golden(path: Path) -> dict:
    """``{op: {artifact: fingerprint}}`` from a JSON-lines recording."""
    golden = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            golden.setdefault(rec.pop("op"), {})[rec.pop("artifact")] = rec
    return golden


def write_golden(path: Path, fingerprints: dict) -> None:
    """One line per artifact, so that a re-recording diffs by artifact."""
    with open(path, "w") as fh:
        for op in sorted(fingerprints):
            for artifact, rec in sorted(fingerprints[op].items()):
                fh.write(json.dumps({"op": op, "artifact": artifact, **rec}) + "\n")
