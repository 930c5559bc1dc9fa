"""Exact mod-1 arithmetic on dyadic floats.

A float is an exact rational; reducing ``c * q`` mod 1 for an integer ``q``
can therefore be done without rounding even when the product is far beyond
2^53.  Every phase evaluation in the package goes through these helpers so
that ``exp(2*pi*i * phase)`` only sees the rounding of the final fractional
part, never the loss of the high bits of ``c * n^k``.

:class:`ExactPoly` carries a polynomial with rational coefficients as one
integer polynomial over a common denominator, so that its values and its
fractional parts over a whole window are computed exactly, in int64 where a
bound proves that nothing overflows and in Python integers otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

_FAST_DENOMINATOR = 1 << 20
_INT64_SAFE = 1 << 62
_FLOAT_EXACT = 1 << 53


def frac_part(value: Fraction) -> float:
    """Fractional part of an exact rational, rounded once to float."""
    return float(value % 1)


def _frac_multiples_big(num: int, den: int, multipliers: Iterable[int]) -> np.ndarray:
    return np.array([((num * int(q)) % den) / den for q in multipliers], dtype=float)


def frac_multiples(c: float, multipliers) -> np.ndarray:
    """``frac(c * q)`` for each integer ``q`` in ``multipliers``, exactly.

    Fast vectorized path when the denominator of ``c`` is small (grid
    frequencies such as j/64); exact big-integer path otherwise.
    """
    fr = Fraction(c)
    num, den = fr.numerator, fr.denominator
    if den == 1:
        n = len(multipliers)
        return np.zeros(n, dtype=float)
    if (
        den <= _FAST_DENOMINATOR
        and isinstance(multipliers, np.ndarray)
        and multipliers.dtype == np.int64
    ):
        rem = ((num % den) * (multipliers % den)) % den
        return rem.astype(float) / den
    return _frac_multiples_big(num, den, multipliers)


def mod1(values: np.ndarray) -> np.ndarray:
    """``np.mod(values, 1.0)`` bit for bit, at a fraction of its cost.

    Both round the exact value ``x - floor(x)`` once: ``np.mod`` adds 1 to
    the exact ``fmod(x, 1)`` when that is negative, and a zero result is +0
    either way.
    """
    return values - np.floor(values)


def _power_multipliers(ns: np.ndarray, k: int):
    """``n^k`` as an int64 array when safe, else a list of Python ints."""
    if k == 0:
        return np.ones(len(ns), dtype=np.int64)
    if k == 1:
        return ns
    max_abs = int(np.max(np.abs(ns))) if len(ns) else 0
    if max_abs ** k < 2**62:
        out = ns.copy()
        for _ in range(k - 1):
            out = out * ns
        return out
    return [int(n) ** k for n in ns]


def poly_phase_fracs(coefficients: Sequence[float], ns: np.ndarray,
                     rows: Optional[dict] = None) -> np.ndarray:
    """Fractional parts of ``p(n) = sum_k c_k n^k``, each term reduced exactly.

    ``coefficients[k]`` multiplies ``n^k``.  Terms are reduced mod 1
    individually and summed in float; the sum of at most a handful of values
    in [0, 1) loses nothing that matters at 1e-12 tolerances.  ``rows``
    caches each term row ``frac(c n^k)`` under ``(k, c)``, so that phases
    sharing a coefficient on the same ``ns`` compute it once; the sums are
    the same either way.
    """
    ns = np.asarray(ns, dtype=np.int64)
    rows = {} if rows is None else rows
    total = np.zeros(len(ns), dtype=float)
    for k, c in enumerate(coefficients):
        if c == 0.0:
            continue
        if (k, c) not in rows:
            rows[k, c] = frac_multiples(c, _power_multipliers(ns, k))
        total += rows[k, c]
    return mod1(total)


def unit_phases(fracs: np.ndarray) -> np.ndarray:
    """``exp(2*pi*i*t)`` for fractional parts ``t``."""
    return np.exp(2j * np.pi * fracs)


def _max_abs(values: np.ndarray) -> int:
    return int(np.max(np.abs(values), initial=0))


def bracket_multipliers(alpha: float, ns: np.ndarray):
    """``n * floor(alpha * n)`` for each integer n, exact: an int64 array
    when every intermediate stays below 2^62, else a list of Python ints."""
    fr = Fraction(alpha)
    num, den = fr.numerator, fr.denominator
    top = max(1, _max_abs(ns))
    if abs(num) * top < _INT64_SAFE and den < _INT64_SAFE:
        floors = (num * ns) // den
        if top * _max_abs(floors) < _INT64_SAFE:
            return ns * floors
    return [int(n) * ((num * int(n)) // den) for n in ns]


def phase_denominator(coefficients: Iterable[float]) -> int:
    """Common denominator of the coefficients (each a dyadic rational)."""
    return max((float(c).as_integer_ratio()[1] for c in coefficients), default=1)


@dataclass(frozen=True)
class ExactPoly:
    """The polynomial ``P(n) / denominator`` for an integer polynomial P.

    ``numerators`` are the coefficients of P, constant term first, with no
    trailing zeros; the zero polynomial has none and is falsy.
    """

    numerators: Tuple[int, ...]
    denominator: int

    @staticmethod
    def through(samples: Sequence) -> "ExactPoly":
        """The polynomial of degree < len(samples) taking the rational value
        ``samples[k]`` at ``n = k``, from Newton's forward differences
        ``P(n) = sum_k (Delta^k P)(0) n(n-1)...(n-k+1) / k!``, in integers."""
        den = math.lcm(*(v.denominator for v in samples))
        diffs = [v.numerator * (den // v.denominator) for v in samples]
        top = math.factorial(len(samples) - 1)
        nums = [0] * len(samples)
        falling = [1]  # monomial coefficients of n(n-1)...(n-k+1)
        for k in range(len(samples)):
            if not any(diffs):
                break
            scale = diffs[0] * (top // math.factorial(k))
            for i, f in enumerate(falling):
                nums[i] += scale * f
            diffs = [y - x for x, y in zip(diffs, diffs[1:])]
            falling = [lo - k * hi for lo, hi in zip([0] + falling, falling + [0])]
        while nums and not nums[-1]:
            nums.pop()
        den *= top
        g = math.gcd(den, *nums)
        return ExactPoly(tuple(c // g for c in nums), den // g)

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def _bound(self, ns: np.ndarray) -> int:
        """``sum_k |c_k| m^k`` with ``m = max(1, max|n|)``: a bound on
        ``|P(n)|`` and on every Horner intermediate."""
        top = int(np.max(np.abs(ns), initial=1))
        return sum(abs(c) * top**k for k, c in enumerate(self.numerators))

    def _numerator_values(self, ns: np.ndarray) -> np.ndarray:
        """Exact ``P(n)`` by Horner: in int64 when the bound rules out
        overflow and the denominator is exact in float64 (so reducing by it
        and dividing by it stay exact), in Python integers otherwise."""
        if self._bound(ns) < _INT64_SAFE and self.denominator <= _FLOAT_EXACT:
            xs, acc = ns, np.zeros(len(ns), dtype=np.int64)
        else:
            xs, acc = ns.astype(object), np.zeros(len(ns), dtype=object)
        for c in reversed(self.numerators):
            acc = acc * xs + c
        return acc

    def values(self, ns: np.ndarray) -> np.ndarray:
        """Exact values of an integer-valued polynomial at the integers ns."""
        return self._numerator_values(ns) // self.denominator

    def fracs(self, ns: np.ndarray) -> np.ndarray:
        """``frac(P(n) / den)``: ``P(n) mod den`` exactly, then one division.

        The division rounds correctly, in float64 when both operands are
        exact below 2^53 and as a Python integer quotient otherwise, so each
        value equals ``frac_part(Fraction(P(n), den))``.
        """
        den = self.denominator
        rem = self._numerator_values(ns) % den
        if rem.dtype == np.int64:
            return rem / den
        return np.array([r / den for r in rem], dtype=float)

    def exceeds(self, limit: int, ns: np.ndarray) -> bool:
        """Whether ``|P(n) / den| > limit`` at some n; evaluates the window
        only when the coefficient bound does not already rule it out."""
        if self._bound(ns) <= limit * self.denominator:
            return False
        return bool(np.any(np.abs(self.values(ns)) > limit))
