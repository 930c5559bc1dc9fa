"""Finite complex-valued sequences on integer windows, and the averaging
primitives built on them.

A :class:`Signal` is a dense array of complex values on a half-open window
``[start, end)``.  Averages in the regime "window length to infinity,
uniformly in the left endpoint" are proxied at a finite scale ``L`` by a
maximum over all length-``L`` subwindows; ``L`` is always an explicit
integer parameter.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Iterable, Union

import numpy as np

BOUND_TOL = 1e-12
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class Window:
    """Half-open integer interval ``[start, end)``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty window [{self.start}, {self.end})")
        if max(abs(self.start), abs(self.end)) > _INT64_MAX:
            raise ValueError("window ends must satisfy |n| <= 2^63 - 1")

    @property
    def length(self) -> int:
        return self.end - self.start

    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.end, dtype=np.int64)

    def intersect(self, other: "Window") -> Union["Window", None]:
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        return Window(lo, hi) if hi > lo else None

    def contains(self, n: int) -> bool:
        return self.start <= n < self.end


def _scale_length(scale: int, window: Window) -> int:
    length = int(scale)
    if length < 1:
        raise ValueError("subwindow scale must be >= 1")
    if length > window.length:
        raise ValueError(
            f"scale too large: L={length} exceeds window length {window.length}"
        )
    return length


@dataclass(frozen=True, eq=False)
class Signal:
    """Complex sequence on a window, with an optional declared sup-bound.

    Values are stored as an immutable complex128 array of the window's
    length.  If ``bound`` is declared, every value must satisfy
    ``|value| <= bound + 1e-12``.
    """

    window: Window
    values: np.ndarray = field(repr=False)
    bound: Union[float, None] = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 1 or vals.shape[0] != self.window.length:
            raise ValueError(
                f"expected {self.window.length} values, got shape {vals.shape}"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if self.bound is not None:
            if self.bound < 0:
                raise ValueError("declared bound must be nonnegative")
            worst = float(np.max(np.abs(vals)))
            if not worst <= self.bound + BOUND_TOL:  # also rejects NaN
                raise ValueError(
                    f"value of modulus {worst} exceeds declared bound {self.bound}"
                )

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def conj(self) -> "Signal":
        return Signal(self.window, np.conj(self.values), self.bound)

    def restrict(self, window: Window) -> "Signal":
        sub = self.window.intersect(window)
        if sub is None:
            raise ValueError("windows do not intersect")
        lo = sub.start - self.window.start
        return Signal(sub, self.values[lo : lo + sub.length], self.bound)

    def _require_same_window(self, other: "Signal") -> None:
        if self.window != other.window:
            raise ValueError("signals live on different windows")

    def __add__(self, other: "Signal") -> "Signal":
        self._require_same_window(other)
        bound = None
        if self.bound is not None and other.bound is not None:
            bound = self.bound + other.bound
        return Signal(self.window, self.values + other.values, bound)

    def __sub__(self, other: "Signal") -> "Signal":
        self._require_same_window(other)
        bound = None
        if self.bound is not None and other.bound is not None:
            bound = self.bound + other.bound
        return Signal(self.window, self.values - other.values, bound)

    def scale(self, c: complex) -> "Signal":
        bound = None if self.bound is None else abs(c) * self.bound
        return Signal(self.window, c * self.values, bound)


def signal_from(fn: Callable[[np.ndarray], Iterable[complex]], window: Window,
                bound: Union[float, None] = None) -> Signal:
    """Build a signal by evaluating ``fn`` on the window's index array."""
    vals = np.asarray(fn(window.indices()), dtype=np.complex128)
    return Signal(window, vals, bound)


def constant_signal(c: complex, window: Window) -> Signal:
    return Signal(window, np.full(window.length, c, dtype=np.complex128), abs(c))


# ---------------------------------------------------------------------------
# averaging primitives
# ---------------------------------------------------------------------------

def window_mean(a: Signal) -> complex:
    """Plain mean of the values over the full window."""
    return complex(np.mean(a.values))


def sliding_window_sums(values: np.ndarray, length: int) -> np.ndarray:
    """Sums over every contiguous block of ``length`` entries.

    Prefix-sum differences; sequential and deterministic.
    """
    prefix = np.concatenate((np.zeros(1, dtype=values.dtype), np.cumsum(values)))
    return prefix[length:] - prefix[:-length]


def uniform_cesaro_mean(a: Signal, scale: int) -> float:
    """Max over all length-L subwindows of the absolute subwindow mean.

    Finite stand-in for the uniform Cesaro limit; the value lies in
    ``[0, sup |a|]`` and is monotone toward the limit as L grows on signals
    whose averages stabilize.
    """
    L = _scale_length(scale, a.window)
    sums = sliding_window_sums(a.values, L)
    return float(np.max(np.abs(sums))) / L


def density_seminorm(a: Signal, scale: int) -> float:
    """Square root of the worst length-L subwindow mean of ``|a|^2``."""
    L = _scale_length(scale, a.window)
    sums = sliding_window_sums(np.abs(a.values) ** 2, L)
    return float(np.sqrt(np.max(sums) / L))


def inner_product(a: Signal, b: Signal, scale: int) -> complex:
    """Mean of ``a(n) * conj(b(n))`` over the intersection of the windows.

    The intersection must contain at least L points.  Conjugate symmetry
    ``inner_product(a, b) == conj(inner_product(b, a))`` holds exactly.
    """
    shared = a.window.intersect(b.window)
    if shared is None:
        raise ValueError("windows do not intersect")
    L = int(scale)
    if shared.length < L:
        raise ValueError(
            f"window intersection has {shared.length} points, fewer than L={L}"
        )
    av = a.restrict(shared).values
    bv = b.restrict(shared).values
    # split real arithmetic keeps conjugate symmetry exact: the compiler's
    # fused multiply-add on complex products would otherwise break it by 1 ulp
    re = av.real * bv.real + av.imag * bv.imag
    im = av.imag * bv.real - av.real * bv.imag
    return complex(float(np.mean(re)), float(np.mean(im)))


def multiplicative_derivative(a: Signal, h: int) -> Signal:
    """The sequence ``a(n+h) * conj(a(n))`` on the shrunk window ``[M, N-h)``."""
    if h < 1:
        raise ValueError("shift h must be a positive integer")
    if h >= a.window.length:
        raise ValueError(
            f"shift h={h} not below window length {a.window.length}"
        )
    vals = a.values[h:] * np.conj(a.values[:-h])
    bound = None if a.bound is None else a.bound * a.bound
    return Signal(Window(a.window.start, a.window.end - h), vals, bound)


# ---------------------------------------------------------------------------
# serialization: CSV (n, re, im)
# ---------------------------------------------------------------------------

def write_csv(a: Signal, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "re", "im"])
        for n, v in zip(a.window.indices(), a.values):
            writer.writerow([int(n), repr(float(v.real)), repr(float(v.imag))])


def read_csv(path) -> Signal:
    ns: list[int] = []
    vals: list[complex] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["n", "re", "im"]:
            raise ValueError(f"unexpected CSV header {header!r}")
        for row in reader:
            ns.append(int(row[0]))
            vals.append(complex(float(row[1]), float(row[2])))
    if not ns:
        raise ValueError("CSV contains no samples")
    start, end = ns[0], ns[-1] + 1
    if ns != list(range(start, end)):
        raise ValueError("CSV indices are not consecutive")
    return Signal(Window(start, end), np.array(vals))

