"""Exact mod-1 arithmetic on dyadic floats.

A float is an exact rational; reducing ``c * q`` mod 1 for an integer ``q``
can therefore be done without rounding even when the product is far beyond
2^53.  Every phase evaluation in the package goes through these helpers so
that ``exp(2*pi*i * phase)`` only sees the rounding of the final fractional
part, never the loss of the high bits of ``c * n^k``.

:class:`ExactPoly` is the one exact evaluator: it carries a polynomial with
rational coefficients as one integer polynomial over a common denominator,
so that its values and its fractional parts over a whole window are
computed exactly, in int64 where a bound proves that nothing overflows and
in Python integers otherwise.  Correlation phases, atom term rows
``frac(c n^k)`` and bracket floors ``floor(alpha n)`` all go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

import numpy as np

_INT64_SAFE = 1 << 62
_FLOAT_EXACT = 1 << 53


def frac_part(value: Fraction) -> float:
    """Fractional part of an exact rational, rounded once to float."""
    return float(value % 1)


def mod1(values: np.ndarray) -> np.ndarray:
    """``np.mod(values, 1.0)`` bit for bit, at a fraction of its cost.

    Both round the exact value ``x - floor(x)`` once: ``np.mod`` adds 1 to
    the exact ``fmod(x, 1)`` when that is negative, and a zero result is +0
    either way.
    """
    return values - np.floor(values)


def poly_phase_fracs(coefficients: Sequence[float], ns: np.ndarray,
                     rows: dict) -> np.ndarray:
    """Fractional parts of ``p(n) = sum_k c_k n^k``, each term reduced exactly.

    ``coefficients[k]`` multiplies ``n^k``.  Terms are reduced mod 1
    individually and summed in float; the sum of at most a handful of values
    in [0, 1) loses nothing that matters at 1e-12 tolerances.  ``rows``
    caches each term row ``frac(c n^k)`` under ``(k, c)``, so that phases
    sharing a coefficient on the same ``ns`` compute it once; the sums are
    the same either way.
    """
    ns = np.asarray(ns, dtype=np.int64)
    total = np.zeros(len(ns), dtype=float)
    for k, c in enumerate(coefficients):
        if c == 0.0:
            continue
        if (k, c) not in rows:
            rows[k, c] = ExactPoly.term(c, k).fracs(ns)
        total += rows[k, c]
    return mod1(total)


def unit_phases(fracs: np.ndarray) -> np.ndarray:
    """``exp(2*pi*i*t)`` for fractional parts ``t``."""
    return np.exp(2j * np.pi * fracs)


def _max_abs(values: np.ndarray) -> int:
    return int(np.max(np.abs(values), initial=0))


def bracket_multipliers(alpha: float, ns: np.ndarray) -> np.ndarray:
    """``n * floor(alpha * n)`` for each integer n, exact: an int64 array
    when ``max|n| * max|floor|`` stays below 2^62, else an object array of
    Python ints."""
    floors = ExactPoly.term(alpha, 1).values(ns)
    if max(1, _max_abs(ns)) * _max_abs(floors) < _INT64_SAFE:
        return ns * floors.astype(np.int64)
    return ns.astype(object) * floors


def _divide(nums: np.ndarray, den: int) -> np.ndarray:
    """``nums / den``, as correctly rounded Python quotients past int64."""
    if nums.dtype == np.int64:
        return nums / den
    return np.array([v / den for v in nums], dtype=float)


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

    @staticmethod
    def term(c: float, k: int) -> "ExactPoly":
        """The monomial ``c * n^k`` of a float coefficient, exactly; the zero
        polynomial when ``c == 0``."""
        if c == 0:
            return ExactPoly((), 1)
        num, den = float(c).as_integer_ratio()
        return ExactPoly((0,) * k + (num,), den)

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def _bound(self, ns: np.ndarray) -> int:
        """``sum_k |c_k| m^k`` with ``m = max(1, max|n|)``: a bound on
        ``|P(n)|`` and on every Horner intermediate."""
        top = max(1, _max_abs(ns))
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
        """``floor(P(n) / den)`` at the integers ns, exactly: the values of
        an integer-valued polynomial, and the bracket floors
        ``floor(alpha * n)`` of a monomial."""
        return self._numerator_values(ns) // self.denominator

    def fracs(self, ns: np.ndarray) -> np.ndarray:
        """``frac(P(n) / den)``: ``P(n) mod den`` exactly, then one division.

        The division rounds correctly, in float64 when both operands are
        exact below 2^53 and as a Python integer quotient otherwise, so each
        value equals ``frac_part(Fraction(P(n), den))``.  ``P(n) mod den``
        depends only on ``n mod den``, so a window reaching past ``den`` is
        reduced first, which keeps far windows of small-denominator phases
        in int64.
        """
        den = self.denominator
        if den <= _max_abs(ns):
            ns = ns % den
        return _divide(self._numerator_values(ns) % den, den)

    def quotients(self, ns: np.ndarray) -> np.ndarray:
        """``P(n) / den`` rounded once, for a power-of-two ``den`` as in a
        :meth:`term`, by which an int64 numerator divides exactly."""
        return _divide(self._numerator_values(ns), self.denominator)

    def exceeds(self, limit: int, ns: np.ndarray) -> bool:
        """Whether ``|P(n) / den| > limit`` at some n; evaluates the window
        only when the coefficient bound does not already rule it out."""
        if self._bound(ns) <= limit * self.denominator:
            return False
        return bool(np.any(np.abs(self.values(ns)) > limit))
