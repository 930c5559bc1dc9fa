"""Finite-scale uniformity seminorms and their cross-checks.

The main object is the inductive seminorm built from multiplicative
derivatives: level 1 is the worst absolute subwindow mean at scale L, and
level ``l`` averages the ``2^(l-1)``-th powers of level-``(l-1)`` values of
``a(n+h) conj(a(n))`` over shifts ``h = 1..H``, then takes the ``2^l``-th
root.  Small value at order ``l`` means the sequence looks random to all
order-``l`` correlations at the chosen scales.

An independent brute-force oracle for the cyclic Gowers norm on Z_N (with
the Fourier identity as the order-2 fast path) and a finite van der Corput
difference check keep the recursion honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .signals import Signal, inner_product, sliding_window_sums

MAX_ORDER = 6
_BRUTE_MAX_N = 64
_BRUTE_MAX_TUPLES = 300_000


@dataclass(frozen=True)
class GowersParams:
    """Order, shift count H, and base scale L for the seminorm recursion.

    ``shift_count`` defaults to ``floor(sqrt(window length))`` and ``scale``
    to ``length - (order-1)*shift_count``, which keeps every window reached
    at the bottom of the recursion at least L long.
    """

    order: int
    shift_count: Union[int, None] = None
    scale: Union[int, None] = None

    def __post_init__(self) -> None:
        if not 1 <= self.order <= MAX_ORDER:
            raise ValueError(f"order must be in 1..{MAX_ORDER}")
        if self.shift_count is not None and self.shift_count < 1:
            raise ValueError("shift count H must be >= 1")

    def resolve(self, window_length: int) -> Tuple[int, int]:
        """Concrete (H, L) for a window, validating depth feasibility."""
        H = self.shift_count
        if H is None:
            H = max(1, math.isqrt(window_length))
        if H >= window_length:
            raise ValueError(f"H={H} must be below window length {window_length}")
        L = self.scale
        if L is None:
            L = window_length - (self.order - 1) * H
        if L < 1:
            raise ValueError("resolved base scale L < 1")
        if L + (self.order - 1) * H > window_length:
            raise ValueError(
                "insufficient window: need L + (order-1)*H <= length, got "
                f"L={L}, H={H}, order={self.order}, length={window_length}"
            )
        return H, L


@dataclass(frozen=True)
class GowersReport:
    """Seminorm value plus the distribution of sub-values per level.

    ``per_level[k]`` holds the level-(k+1) seminorm values of the derivative
    sequences encountered while unwinding the recursion, in depth-first
    ascending-h order; it is empty at index order-1 and above.
    """

    value: float
    order: int
    shift_count: int
    scale: int
    per_level: Tuple[Tuple[float, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "order": self.order,
            "H": self.shift_count,
            "L": self.scale,
            "per_level": [list(level) for level in self.per_level],
        }


def _seminorm_recursive(values: np.ndarray, level: int, H: int, L: int,
                        collected: list) -> float:
    if level == 1:
        sums = sliding_window_sums(values, L)
        return float(np.max(np.abs(sums))) / L
    powers = np.empty(H, dtype=float)
    inner_exp = 2 ** (level - 1)
    for h in range(1, H + 1):
        derived = values[h:] * np.conj(values[:-h])
        child = _seminorm_recursive(derived, level - 1, H, L, collected)
        collected[level - 2].append(child)
        powers[h - 1] = child ** inner_exp
    return float(np.mean(powers)) ** (1.0 / 2 ** level)


def ghk_seminorm(a: Signal, params: GowersParams) -> GowersReport:
    """Inductive uniformity seminorm of a signal at finite scales.

    Deterministic: the h-loop runs ascending and each level averages with
    numpy's pairwise summation.  The value is bounded by ``sup |a|`` and
    equals the base subwindow mean when order is 1.
    """
    H, L = params.resolve(a.window.length)
    collected: list = [[] for _ in range(max(params.order - 1, 0))]
    value = _seminorm_recursive(a.values, params.order, H, L, collected)
    return GowersReport(
        value=value,
        order=params.order,
        shift_count=H,
        scale=L,
        per_level=tuple(tuple(level) for level in collected),
    )


def cyclic_gowers_oracle(f, order: int, method: str = "auto") -> float:
    """Standard cyclic Gowers norm on Z_N with normalized counting measure.

    ``f`` is an array (or Signal) read as a function on Z_N.  Order 1 is the
    absolute mean; order 2 uses the Fourier identity
    ``norm^4 = sum_k |fhat(k)|^4`` at any N; higher orders sum the full
    shift-tuple expansion, which is only affordable for small N.
    """
    values = f.values if isinstance(f, Signal) else np.asarray(f, dtype=np.complex128)
    N = len(values)
    if N == 0:
        raise ValueError("empty input")
    if order < 1:
        raise ValueError("order must be >= 1")
    if method not in ("auto", "brute", "fourier"):
        raise ValueError(f"unknown method {method!r}")
    if method == "fourier" or (method == "auto" and order == 2):
        if order != 2:
            raise ValueError("the Fourier identity applies at order 2 only")
        fhat = np.fft.fft(values) / N
        return float(np.sum(np.abs(fhat) ** 4) ** 0.25)
    if method == "auto" and order == 1:
        return float(abs(np.mean(values)))
    if order >= 3 and N > _BRUTE_MAX_N:
        raise ValueError(
            f"N={N} too large for brute force at order {order} (max {_BRUTE_MAX_N})"
        )
    if N ** (order - 1) > _BRUTE_MAX_TUPLES:
        raise ValueError(
            f"brute force needs N^(order-1) = {N ** (order - 1)} tuples; "
            f"budget is {_BRUTE_MAX_TUPLES}"
        )

    total = 0.0

    def descend(g: np.ndarray, depth: int) -> None:
        nonlocal total
        if depth == 0:
            s = complex(np.sum(g))
            total += s.real * s.real + s.imag * s.imag
            return
        for h in range(N):
            descend(np.roll(g, -h) * np.conj(g), depth - 1)

    descend(values, order - 1)
    return float((total / N ** (order + 1)) ** (1.0 / 2 ** order))


@dataclass(frozen=True)
class VdcReport:
    lhs: float
    rhs: float
    defect: float


def vdc_defect(vectors, H: int) -> VdcReport:
    """Finite van der Corput comparison for a family of vectors.

    ``lhs`` is the squared norm of the vector average; ``rhs`` is 4 times
    the mean over h = 1..H of the absolute averaged pair correlations
    ``<v_{n+h}, v_n>``.  The asymptotic inequality says lhs <= rhs; at
    finite N the operation just reports both sides and their difference.
    """
    try:
        arr = np.asarray(vectors, dtype=np.complex128)
    except (ValueError, TypeError) as exc:
        raise ValueError("dimension mismatch among vectors") from exc
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("expected a sequence of equal-dimension vectors")
    N = arr.shape[0]
    if not 1 <= H < N:
        raise ValueError(f"need 1 <= H < N, got H={H}, N={N}")
    mean_vec = arr.mean(axis=0)
    lhs = float(np.sum(np.abs(mean_vec) ** 2))
    corr = np.empty(H, dtype=float)
    for h in range(1, H + 1):
        pair = np.sum(arr[h:] * np.conj(arr[:-h])) / (N - h)
        corr[h - 1] = abs(pair)
    rhs = 4.0 * float(np.mean(corr))
    return VdcReport(lhs=lhs, rhs=rhs, defect=rhs - lhs)


@dataclass(frozen=True)
class AntiUniformityReport:
    correlation: float
    bound: float
    ratio: float

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.ratio)


def anti_uniformity_ratio(a: Signal, b: Signal,
                          params: GowersParams) -> AntiUniformityReport:
    """Correlation of a against b versus four times b's uniformity seminorm.

    The correlation is the unconjugated pairing ``|mean(a(n) b(n))|`` over
    the shared window, so testing against ``conj(a)`` measures the mean
    square modulus of a.  A zero bound is reported as an infinite ratio.
    """
    H, L = params.resolve(b.window.length)
    correlation = abs(inner_product(a, b.conj(), L))
    bound = 4.0 * ghk_seminorm(b, params).value
    ratio = correlation / bound if bound > 0 else math.inf
    return AntiUniformityReport(correlation=correlation, bound=bound, ratio=ratio)


def modulate(a: Signal, theta: float) -> Signal:
    """Pointwise multiplication by the linear phase ``e^{2 pi i theta n}``."""
    phases = np.exp(2j * np.pi * np.mod(theta * a.window.indices(), 1.0))
    return Signal(a.window, a.values * phases, a.bound)
