"""Explicit nilsequences and the 3-dimensional Heisenberg nilmanifold.

Three concrete atom families are supported: polynomial phases
``e^{2 pi i p(n)}``, bracket phases ``e^{2 pi i (g n^2 + b n floor(a n) + t n)}``,
and orbits ``F(g^n Gamma)`` on the Heisenberg quotient.  The module also
provides the abelian base-point interpolation map (recovering ``g`` from the
points ``i*h + g``) and the circle-case reconstruction of a 1-step
nilsequence through averaged two-term correlation expressions with
exponents (2, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

import numpy as np

from ._exact import (ExactPoly, bracket_multipliers, mod1, phase_denominator,
                     poly_phase_fracs, unit_phases)
from .signals import Signal, Window

_POW_GUARD = 1 << 62
_BELOW_ONE = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class HeisenbergElement:
    """Group element in coordinates (x, y, z).

    Corresponds to the upper unitriangular matrix with x in position (1,2),
    y in (2,3) and z in (1,3); the product rule is
    ``(x, y, z) * (x', y', z') = (x+x', y+y', z+z'+x*y')``.
    """

    x: float
    y: float
    z: float

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        return HeisenbergElement(
            self.x + other.x,
            self.y + other.y,
            self.z + other.z + self.x * other.y,
        )

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(-self.x, -self.y, -self.z + self.x * self.y)


def heis_pow(g: HeisenbergElement, n: int) -> HeisenbergElement:
    """n-th group power in closed form: ``(n x, n y, n z + C(n,2) x y)``.

    Computed in exact dyadic arithmetic and rounded once per coordinate, so
    the result agrees with exact matrix powers of the unitriangular
    representation to the last bit.
    """
    n = int(n)
    if abs(n) > _POW_GUARD:
        raise ValueError("power exponent exceeds 2^62 guard")
    fx, fy, fz = Fraction(g.x), Fraction(g.y), Fraction(g.z)
    pairs = n * (n - 1) // 2
    return HeisenbergElement(
        float(n * fx), float(n * fy), float(n * fz + pairs * fx * fy)
    )


def _unit_interval_shift(t: float) -> Tuple[float, int]:
    """Integer m with t + m in [0, 1); returns (t + m, m).

    When t sits within half an ulp below an integer, the true remainder
    1 - eps has no rounded image in [0, 1); the closest representable point
    below 1 is returned instead.
    """
    m = -math.floor(t)
    r = t + m
    if r < 0.0:
        m += 1
        r = t + m
    if r >= 1.0:
        candidate = t + (m - 1)
        if candidate >= 0.0:
            return candidate, m - 1
        return _BELOW_ONE, m
    return r, m


def heis_reduce(p: HeisenbergElement) -> Tuple[HeisenbergElement, HeisenbergElement]:
    """Canonical representative of ``p Gamma`` in [0,1)^3.

    Right-multiplies by an integer-coordinate lattice element, fixing the
    coordinates in the order y, x, z: ``p * (a, b, c) =
    (x+a, y+b, z+c+x*b)``.  Returns (representative, lattice element used);
    ``representative * gamma.inverse()`` recovers the input.
    """
    y_r, b = _unit_interval_shift(p.y)
    x_r, a = _unit_interval_shift(p.x)
    z_r, c = _unit_interval_shift(p.z + p.x * b)
    gamma = HeisenbergElement(float(a), float(b), float(c))
    return HeisenbergElement(x_r, y_r, z_r), gamma


@dataclass(frozen=True)
class HeisenbergObservable:
    """Horizontal character ``e^{2 pi i (k1 x + k2 y)}`` on the Heisenberg
    quotient; continuous there because it ignores z and is invariant under
    the lattice action."""

    horizontal: Tuple[int, int]


@dataclass(frozen=True)
class PolynomialPhase:
    """Atom ``e^{2 pi i p(n)}``; ``coefficients[k]`` multiplies ``n^k``."""

    coefficients: Tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) == 0 or len(coeffs) > 4:
            raise ValueError("polynomial phase supports degrees 0..3")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        deg = 0
        for k, c in enumerate(self.coefficients):
            if c != 0.0:
                deg = k
        return deg

    @property
    def label(self) -> str:
        inner = ", ".join(repr(c) for c in self.coefficients)
        return f"poly({inner})"


@dataclass(frozen=True)
class BracketPhase:
    """Atom ``e^{2 pi i (quad n^2 + cross n floor(alpha n) + linear n)}``.

    The floor makes this a generalized polynomial; it serves as a 2-step
    dictionary member without a nilmanifold realization.
    """

    quad: float
    cross: float
    alpha: float
    linear: float

    def __post_init__(self) -> None:
        for c in (self.quad, self.cross, self.alpha, self.linear):
            if not math.isfinite(c):
                raise ValueError("bracket parameters must be finite")

    @property
    def label(self) -> str:
        return (f"bracket(quad={self.quad!r}, cross={self.cross!r}, "
                f"alpha={self.alpha!r}, linear={self.linear!r})")


@dataclass(frozen=True)
class HeisenbergOrbit:
    """Atom ``F(g^n Gamma)`` on the Heisenberg quotient."""

    element: HeisenbergElement
    observable: HeisenbergObservable

    @property
    def label(self) -> str:
        g = self.element
        f = f"char{self.observable.horizontal}"
        return f"heis(g=({g.x!r},{g.y!r},{g.z!r}), F={f})"


NilAtom = Union[PolynomialPhase, BracketPhase, HeisenbergOrbit]


@dataclass(frozen=True)
class Dictionary:
    """Ordered collection of distinct nilsequence atoms."""

    atoms: Tuple[NilAtom, ...]

    def __post_init__(self) -> None:
        if len(self.atoms) == 0:
            raise ValueError("dictionary must contain at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("dictionary atoms must be distinct")

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(atom.label for atom in self.atoms)


def atom_rows(atoms: Sequence[NilAtom], ns: np.ndarray) -> np.ndarray:
    """The atoms, of any family, at the int64 integers ``ns``, one row each.

    Phase atoms reduce each term mod 1 exactly (see :mod:`._exact`) and
    share their term rows ``frac(c n^k)`` and bracket multipliers
    ``n floor(alpha n)``, so a row does not depend on the other atoms.
    When every phase coefficient of an atom has a denominator ``D`` no
    larger than ``len(ns)``, every phase is an exact multiple of ``1/D``
    and its exponential is read from the ``D`` roots ``exp(2 pi i r/D)``,
    the same ``exp`` of the same floats ``r/D``.
    """
    psi = np.empty((len(atoms), len(ns)), dtype=np.complex128)
    rows: dict = {}
    roots: dict = {}
    for i, atom in enumerate(atoms):
        if isinstance(atom, HeisenbergOrbit):
            # heis_reduce(heis_pow(g, n)) has x = frac(n g.x), y = frac(n g.y), each
            # product rounded once and kept below 1 by _unit_interval_shift
            if int(np.max(np.abs(ns), initial=0)) > _POW_GUARD:
                raise ValueError("power exponent exceeds 2^62 guard")
            k1, k2 = atom.observable.horizontal
            x, y = (np.minimum(mod1(ExactPoly.term(c, 1).quotients(ns)), _BELOW_ONE)
                    for c in (atom.element.x, atom.element.y))
            psi[i] = unit_phases(k1 * x + k2 * y)
            continue
        if isinstance(atom, PolynomialPhase):
            coefficients = atom.coefficients
            fracs = poly_phase_fracs(coefficients, ns, rows)
        elif isinstance(atom, BracketPhase):
            coefficients = (atom.quad, atom.cross, atom.linear)
            total = poly_phase_fracs((0.0, atom.linear, atom.quad), ns, rows)
            if ("bracket", atom.alpha) not in rows:
                rows["bracket", atom.alpha] = bracket_multipliers(atom.alpha, ns)
            cross = ExactPoly.term(atom.cross, 1).fracs(rows["bracket", atom.alpha])
            fracs = mod1(total + cross)
        else:
            raise TypeError(f"not a nilsequence atom: {atom!r}")
        den = phase_denominator(coefficients)
        if den > len(ns):
            psi[i] = unit_phases(fracs)
            continue
        if den not in roots:
            roots[den] = unit_phases(np.arange(den) / den)
        psi[i] = roots[den][(fracs * den).astype(np.int64)]
    return psi


def eval_nilsequence(atom: NilAtom, w: Window) -> Signal:
    """Evaluate an atom on a window; every atom is unimodular (bound 1)."""
    return Signal(w, atom_rows((atom,), w.indices())[0], 1.0)


def torus_interpolate(points: Sequence) -> np.ndarray:
    """Recover the base point from ``v_i = i*h + g`` (mod 1), i = 1..ell.

    Applies the alternating binomial combination
    ``sum_i (-1)^(i-1) C(ell, i) v_i``; the coefficients are integers that
    sum to 1 and kill the h-term, so the map is well defined mod 1 and
    returns g whenever the inputs lie on an arithmetic orbit.
    """
    ell = len(points)
    if not 2 <= ell <= 8:
        raise ValueError("interpolation supports 2 <= ell <= 8 points")
    vs = np.atleast_2d(np.asarray(points, dtype=float))
    coeffs = np.array(
        [(-1) ** (i - 1) * math.comb(ell, i) for i in range(1, ell + 1)],
        dtype=float,
    )
    return np.mod(coeffs @ vs, 1.0)


def nilkey_reconstruct(psi: PolynomialPhase, average_length: int, w: Window) -> Signal:
    """Rebuild a circle nilsequence from averaged correlation expressions.

    For ``psi(n) = e^{2 pi i (c0 + c1 n)}`` write ``psi(n) = F(2n * g0)``
    with ``g0 = c1/2`` and ``F(t) = e^{2 pi i (t + c0)}``.  The output is

        ``b(n) = (1/M) sum_{m=1..M} F(2*frac((m+2n) g0) - frac((2m+2n) g0))``

    with every inner point reduced mod 1 before the combination is taken.
    The exponents (2, 1) in ``m + 2n`` and ``2m + 2n`` make the integrand
    m-independent, so b equals psi for every M.
    """
    if average_length < 1:
        raise ValueError("average length M must be >= 1")
    if psi.degree > 1:
        raise ValueError("circle reconstruction requires a degree <= 1 phase")
    c0 = psi.coefficients[0]
    c1 = psi.coefficients[1] if len(psi.coefficients) > 1 else 0.0
    g0 = c1 / 2.0
    ns = w.indices()
    vals = np.zeros(w.length, dtype=np.complex128)
    for m in range(1, average_length + 1):
        v1 = np.mod((m + 2 * ns) * g0, 1.0)
        v2 = np.mod((2 * m + 2 * ns) * g0, 1.0)
        combined = np.mod(2.0 * v1 - v2, 1.0)
        vals += np.exp(2j * np.pi * (combined + c0))
    vals /= average_length
    return Signal(w, vals, 1.0)
