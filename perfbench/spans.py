"""Spans around the public functions of each ``nilseqlab`` module.

:class:`Tracer` wraps each function in :data:`LAYERS` at every module
binding that holds it (``experiments.correlate_exact`` as well as
``systems.correlate_exact``, and so on), records one span per call, and puts
the originals back on exit.  Spans stay in memory until :meth:`write`.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _atom_kind(args, kwargs, result):
    kind = type(_arg(args, kwargs, 0, "atom")).__name__
    return {"PolynomialPhase": "poly", "BracketPhase": "bracket",
            "HeisenbergOrbit": "heis"}.get(kind, kind)


def _seminorm_order(args, kwargs, result):
    return f"o{_arg(args, kwargs, 1, 'params').order}"


def _cache_outcome(args, kwargs, result):
    return "hit" if result is not None and result.cache_hit else "miss"


def _window_length(index: int, name: str):
    return lambda args, kwargs, result: _arg(args, kwargs, index, name).length


def _grid_points(args, kwargs, result):
    q, w = _arg(args, kwargs, 0, "q"), _arg(args, kwargs, 1, "w")
    grid = _arg(args, kwargs, 2, "quad").grid_size
    return grid ** q.system.dimension * w.length


def _dictionary_atoms(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    q = spec.freq_resolution
    return q ** len(spec.degrees) + (q * (q - 1) if spec.include_brackets else 0)


def _matrix_cells(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "dictionary")) * _arg(args, kwargs, 1, "w").length


def _seminorm_leaves(args, kwargs, result):
    a, params = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "params")
    H, _ = params.resolve(a.window.length)
    return H ** (params.order - 1)


# (module, function, (variant of a call, variants reported), work name,
# work count of a call).  Work is counted on calls that return, from their
# arguments; corpus entries and read_csv rows come from the result.
LAYERS = (
    ("cli", "main", None, None, None),
    ("experiments", "load_config", None, None, None),
    ("experiments", "run_experiment", (_cache_outcome, ("miss", "hit")), None, None),
    ("experiments", "build_signal", None, None, None),
    ("experiments", "class_distance", None, "candidates",
     lambda a, k, r: _arg(a, k, 3, "budget")),
    ("systems", "correlate_exact", None, "points", _window_length(1, "w")),
    ("systems", "required_grid_size", None, "points", _window_length(1, "w")),
    ("systems", "correlate_numeric", None, "grid_points", _grid_points),
    ("systems", "corpus_generate", None, "entries",
     lambda a, k, r: len(r)),
    ("nilmanifolds", "eval_nilsequence", (_atom_kind, ("poly", "bracket", "heis")),
     "samples", _window_length(1, "w")),
    ("_exact", "poly_phase_fracs", None, None, None),
    ("decomposition", "build_dictionary", None, "atoms", _dictionary_atoms),
    ("decomposition", "atom_matrix", None, "cells", _matrix_cells),
    ("decomposition", "decompose", None, None, None),
    ("uniformity", "ghk_seminorm", (_seminorm_order, ("o2", "o3", "o4")),
     "leaves", _seminorm_leaves),
    ("uniformity", "anti_uniformity_ratio", None, None, None),
    ("uniformity", "vdc_defect", None, None, None),
    ("signals", "inner_product", None, None, None),
    ("signals", "density_seminorm", None, None, None),
    ("signals", "write_csv", None, "rows", lambda a, k, r: _arg(a, k, 0, "a").window.length),
    ("signals", "read_csv", None, "rows", lambda a, k, r: r.window.length),
    ("signals", "Signal", None, None, None),
)

OVERHEAD = "trace.overhead_frac"
HIT_RATIO = "experiments.cache.hit_ratio"


def _base(module: str, func: str) -> str:
    """Span name of a function; metric names start with a letter, so
    ``_exact`` reports as ``exact``."""
    return f"{module.lstrip('_')}.{func}"


_WORK = {_base(m, f): w for m, f, _, w, _ in LAYERS if w}


def _work_name(span_name: str):
    """The work count a span reports, if its function has one."""
    return _WORK.get(span_name) or _WORK.get(span_name.rsplit(".", 1)[0])


def span_names() -> list:
    names = []
    for module, func, variants, _, _ in LAYERS:
        base = _base(module, func)
        names.extend([f"{base}.{v}" for v in variants[1]] if variants else [base])
    return names


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = []
    for name in span_names():
        out += [f"{name}.{s}" for s in ("ms", "self_ms", "calls", "raised")]
        if _work_name(name):
            out.append(f"{name}.{_work_name(name)}")
    return out + [HIT_RATIO, OVERHEAD]


def unit(name: str) -> str:
    """Unit of a per-layer metric: times end in ``.ms`` or ``.self_ms``,
    the two shares are ratios, everything else is a count."""
    if name.endswith((".ms", ".self_ms")):
        return "ms"
    return "ratio" if name in (HIT_RATIO, OVERHEAD) else "count"


class Tracer:
    """Records spans (name, start, end, parent, experiment id) in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.experiment = None
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, base: str, fn, variant, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [base, 0.0, 0.0, stack[-1] if stack else None,
                    self.experiment, False, 0]
            spans.append(span)
            stack.append(sid)
            result = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if variant is not None:
                    span[0] = f"{base}.{variant(args, kwargs, result)}"
                if work is not None and not span[5]:
                    span[6] = work(args, kwargs, result)
        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "nilseqlab" or name.startswith("nilseqlab.")]
        for module, func, variants, _, work in LAYERS:
            owner = sys.modules[f"nilseqlab.{module}"]
            base = _base(module, func)
            variant = variants[0] if variants else None
            if func == "Signal":
                cls = owner.Signal
                original = cls.__post_init__
                self._restore.append((cls, "__post_init__", original))
                cls.__post_init__ = self._wrap(base, original, None, None)
                continue
            original = getattr(owner, func)
            wrapper = self._wrap(base, original, variant, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def metrics(self, first: int = 0) -> dict:
        """Per-layer totals over the spans recorded since index ``first``."""
        spans = self.spans[first:]
        child = defaultdict(float)
        for name, start, end, parent, *_ in spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(int)
        for offset, (name, start, end, _, _, raised, count) in enumerate(spans):
            dur = end - start
            totals[f"{name}.ms"] += 1e3 * dur
            totals[f"{name}.self_ms"] += 1e3 * (dur - child[first + offset])
            totals[f"{name}.calls"] += 1
            totals[f"{name}.raised"] += int(raised)
            if _work_name(name):
                totals[f"{name}.{_work_name(name)}"] += count
        hits = totals["experiments.run_experiment.hit.calls"]
        runs = hits + totals["experiments.run_experiment.miss.calls"]
        totals[HIT_RATIO] = hits / runs if runs else 0.0
        return dict(totals)

    def write(self, path) -> None:
        """One JSON array per span, in id order, after a header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "experiment",
                                 "raised", "work"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def median_metrics(batches: list, untraced_wall: float, traced_wall: float) -> dict:
    """Median of each per-layer metric over traced batches, plus overhead."""
    out = {}
    for name in metric_names():
        if name == OVERHEAD:
            out[name] = traced_wall / untraced_wall - 1.0
            continue
        out[name] = statistics.median_low(b.get(name, 0) for b in batches)
    return out
