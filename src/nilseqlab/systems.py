"""Commuting unipotent affine maps on tori and their correlation sequences.

A transformation ``x -> A x + alpha`` on the d-torus, with A an integer
unipotent matrix, is kept as its exact affine matrix
``M = [[A, alpha], [0, 1]]`` of size d+1, so that a composition is one
matrix product and a power is the terminating binomial sum of
:func:`map_power`.  The generalized binomials are integers for every
integer p, which makes arbitrary (also negative and polynomially large)
iterates exact.

Two engines evaluate ``a(n) = integral of prod_j f_j(U_j(n) x) dx`` for
trigonometric observables f_j:

* the exact engine pushes each character through the affine map:
  ``e_k o T = e^{2 pi i k.alpha} e_{A^T k}`` is read off the row
  ``(k, 0) M``.  Along polynomial iterates every pushed frequency and every
  phase is a polynomial in n, so each term combination falls on one side
  of the nilsequence + null split once and for all
  (:func:`correlation_structure`): its total frequency is either
  identically zero, giving a polynomial-phase atom ``c e(phase(n))`` at
  every n, or vanishes only at finitely many integers, giving spikes.  A
  window is then evaluated in closed form, each phase ``P(n) / D`` reduced
  mod D exactly in integers and divided once;
* the numeric engine transforms an equispaced product grid through the same
  affine maps and averages the raw integrand, which is exact below the
  aliasing threshold and is used as an independent cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Sequence, Tuple, Union

import numpy as np

from ._exact import ExactPoly, mod1
from ._threads import run_blocks
from .errors import AliasingError, BudgetError
from .nilmanifolds import (BracketPhase, HeisenbergElement,
                           HeisenbergObservable, HeisenbergOrbit,
                           PolynomialPhase, eval_nilsequence)
from .signals import Signal, Window

MAX_ITERATE_DEGREE = 4
FREQUENCY_GUARD = 1 << 127
DEFAULT_QUAD_BUDGET = 1 << 24
# grid cells per block of the numeric engine (see correlate_numeric)
BLOCK_CELLS = 2**14 - 1

Matrix = Tuple[Tuple[int, ...], ...]
IntPoly = Tuple[int, ...]


class FrequencyOverflowError(BudgetError):
    """Frequency bookkeeping exceeded the 2^127 sanity guard."""


def _as_int_matrix(m) -> Matrix:
    rows = tuple(tuple(int(v) for v in row) for row in m)
    d = len(rows)
    if any(len(row) != d for row in rows):
        raise ValueError("matrix must be square")
    arr = np.asarray(m, dtype=float)
    if not np.array_equal(arr, np.asarray(rows, dtype=float)):
        raise ValueError("matrix entries must be integers")
    return rows


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product.  Zero factors are skipped, so the ``0 / 1``
    bottom rows of affine matrices cost no ``Fraction`` arithmetic."""
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col) if x and y) for col in cols)
        for row in a
    )


def generalized_binomial(p: int, k: int) -> int:
    """``C(p, k)`` for any integer p; always an integer."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if p >= 0:
        return math.comb(p, k)
    return (-1) ** k * math.comb(k - p - 1, k)


def poly_eval(coefficients: IntPoly, n: int) -> int:
    """Integer polynomial evaluation, constant term first."""
    acc = 0
    for c in reversed(coefficients):
        acc = acc * n + c
    return acc


@dataclass(frozen=True)
class ToralMap:
    """One affine torus map ``x -> matrix x + shift`` with shift in [0,1)^d."""

    matrix: Matrix
    shift: Tuple[float, ...]

    def __post_init__(self) -> None:
        matrix = _as_int_matrix(self.matrix)
        shift = tuple(float(s) for s in self.shift)
        if len(shift) != len(matrix):
            raise ValueError("shift dimension does not match matrix")
        if any(not 0.0 <= s < 1.0 for s in shift):
            raise ValueError("shift components must lie in [0, 1)")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "shift", shift)

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    def shift_fractions(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(s) for s in self.shift)


def _affine(tm: ToralMap) -> Matrix:
    """The affine matrix ``[[A, alpha], [0, 1]]`` of ``x -> A x + alpha``."""
    rows = tuple(row + (a,) for row, a in zip(tm.matrix, tm.shift_fractions()))
    return rows + ((0,) * tm.dimension + (1,),)


@lru_cache(maxsize=256)
def _nilpotent_powers(tm: ToralMap) -> Tuple[Matrix, ...]:
    """``K^0, ..., K^(d+1)`` for ``K = M - I`` of the affine matrix M."""
    m = _affine(tm)
    nil = tuple(tuple(v - (i == j) for j, v in enumerate(row))
                for i, row in enumerate(m))
    powers = [tuple(tuple(int(i == j) for j in range(len(m)))
                    for i in range(len(m)))]
    for _ in range(len(m)):
        powers.append(_mat_mul(powers[-1], nil))
    return tuple(powers)


def is_unipotent(tm: ToralMap) -> bool:
    """``K^(d+1) = 0``: A is unipotent exactly when N is nilpotent, and then
    ``N^d alpha`` vanishes too."""
    return not any(any(row) for row in _nilpotent_powers(tm)[-1])


def map_power(tm: ToralMap, p: int) -> Matrix:
    """Exact affine matrix of ``tm^p`` for any integer p.

    ``M^p = (I + K)^p = sum_{k <= d} C(p, k) K^k`` with ``K = M - I``.  The
    series terminates because ``K^k = [[N^k, N^(k-1) alpha], [0, 0]]`` with
    ``N = A - I`` nilpotent, so ``K^(d+1) = 0``; it holds for negative p
    through the generalized binomials.  The shift column is the
    hockey-stick sum ``sum_{k<d} C(p, k+1) N^k alpha`` by itself.
    """
    powers = _nilpotent_powers(tm)[:-1]
    coeffs = [generalized_binomial(p, k) for k in range(len(powers))]
    size = range(len(powers[0]))
    return tuple(
        tuple(sum(c * pw[r][s] for c, pw in zip(coeffs, powers) if c)
              for s in size)
        for r in size
    )


@dataclass(frozen=True)
class AffineToralSystem:
    """Finitely many affine torus maps intended to commute pairwise."""

    dimension: int
    transformations: Tuple[ToralMap, ...]

    def __post_init__(self) -> None:
        maps = tuple(self.transformations)
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not maps:
            raise ValueError("at least one transformation required")
        for tm in maps:
            if tm.dimension != self.dimension:
                raise ValueError("transformation dimension mismatch")
        object.__setattr__(self, "transformations", maps)

    @staticmethod
    def from_pairs(dimension: int, pairs: Sequence) -> "AffineToralSystem":
        maps = tuple(ToralMap(_as_int_matrix(m), tuple(a)) for m, a in pairs)
        return AffineToralSystem(dimension, maps)


@dataclass(frozen=True)
class SystemValidation:
    valid: bool
    violations: Tuple[str, ...]


@lru_cache(maxsize=256)
def validate_system(s: AffineToralSystem) -> SystemValidation:
    """Check unipotency and pairwise commutation; never raises.

    Commutation of ``x -> A_i x + a_i`` and ``x -> A_j x + a_j`` on the
    torus means ``A_i A_j = A_j A_i`` exactly and
    ``A_i a_j + a_i = A_j a_i + a_j (mod 1)``: the two compositions agree.
    Haar measure is preserved automatically: a unipotent integer matrix has
    determinant 1.
    """
    violations: list[str] = []
    for idx, tm in enumerate(s.transformations):
        if not is_unipotent(tm):
            violations.append(f"transformation {idx}: matrix is not unipotent")
    d = s.dimension
    affines = [_affine(tm) for tm in s.transformations]
    for i, j in itertools.combinations(range(len(affines)), 2):
        ij = _mat_mul(affines[i], affines[j])
        ji = _mat_mul(affines[j], affines[i])
        if any(x[:d] != y[:d] for x, y in zip(ij, ji)):
            violations.append(f"pair ({i}, {j}): matrices do not commute")
            continue
        if any((x[d] - y[d]) % 1 for x, y in zip(ij, ji)):
            violations.append(f"pair ({i}, {j}): affine parts differ mod 1")
    return SystemValidation(valid=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class TrigObservable:
    """Finite character sum ``sum_t c_t e^{2 pi i k_t . x}`` on the d-torus."""

    terms: Tuple[Tuple[Tuple[int, ...], complex], ...]

    def __post_init__(self) -> None:
        terms = tuple(
            (tuple(int(v) for v in freq), complex(coeff))
            for freq, coeff in self.terms
        )
        if not terms:
            raise ValueError("observable needs at least one term")
        dims = {len(freq) for freq, _ in terms}
        if len(dims) != 1:
            raise ValueError("all frequency vectors must share one dimension")
        object.__setattr__(self, "terms", terms)

    @property
    def dimension(self) -> int:
        return len(self.terms[0][0])

    @property
    def bound(self) -> float:
        return float(sum(abs(c) for _, c in self.terms))


def character(freq: Sequence[int], coeff: complex = 1.0) -> TrigObservable:
    return TrigObservable(((tuple(int(v) for v in freq), complex(coeff)),))


@dataclass(frozen=True)
class QuadratureSpec:
    """Equispaced product grid with ``grid_size`` points per dimension."""

    grid_size: int

    def __post_init__(self) -> None:
        if self.grid_size < 2:
            raise ValueError("grid size must be >= 2")


@dataclass(frozen=True)
class CorrelationQuery:
    """System, observables, and the iterate polynomials p[i][j].

    ``iterates[i][j]`` is the integer-coefficient polynomial (constant term
    first) giving the exponent of transformation i in observable slot j, so
    slot j sees the point ``prod_i T_i^{p[i][j](n)} x``.
    """

    system: AffineToralSystem
    observables: Tuple[TrigObservable, ...]
    iterates: Tuple[Tuple[IntPoly, ...], ...]

    def __post_init__(self) -> None:
        obs = tuple(self.observables)
        if not obs:
            raise ValueError("need at least one observable")
        for o in obs:
            if o.dimension != self.system.dimension:
                raise ValueError("observable frequency dimension mismatch")
        ell = len(self.system.transformations)
        iters = tuple(
            tuple(tuple(int(c) for c in poly) for poly in row)
            for row in self.iterates
        )
        if len(iters) != ell:
            raise ValueError(f"iterates must have one row per transformation ({ell})")
        for row in iters:
            if len(row) != len(obs):
                raise ValueError("iterates must have one polynomial per slot")
            for poly in row:
                if len(poly) > MAX_ITERATE_DEGREE + 1:
                    raise ValueError(
                        f"iterate degree exceeds {MAX_ITERATE_DEGREE}"
                    )
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "iterates", iters)

    def require_valid(self) -> None:
        report = validate_system(self.system)
        if not report.valid:
            raise ValueError(
                "invalid system: " + "; ".join(report.violations)
            )


def diagonal_query(system: AffineToralSystem,
                   observables: Sequence[TrigObservable]) -> CorrelationQuery:
    """The plain multi-correlation: slot j sees ``T_j^n``; requires one
    observable per transformation."""
    ell = len(system.transformations)
    if len(observables) != ell:
        raise ValueError("diagonal query needs one observable per map")
    iterates = tuple(
        tuple((0, 1) if i == j else (0,) for j in range(ell)) for i in range(ell)
    )
    return CorrelationQuery(system, tuple(observables), iterates)


def single_map_query(system: AffineToralSystem,
                     observables: Sequence[TrigObservable],
                     exponents: Sequence[int]) -> CorrelationQuery:
    """Slot j sees ``T^{k_j n}`` for a single-transformation system."""
    if len(system.transformations) != 1:
        raise ValueError("single_map_query needs exactly one transformation")
    if len(exponents) != len(observables):
        raise ValueError("one exponent per observable required")
    iterates = (tuple((0, int(k)) for k in exponents),)
    return CorrelationQuery(system, tuple(observables), iterates)


def _slot_affines(q: CorrelationQuery, n: int) -> Tuple[Matrix, ...]:
    """Exact affine matrix of ``prod_i T_i^{p[i][j](n)}`` for each slot j."""
    maps = q.system.transformations
    out = []
    for j in range(len(q.observables)):
        acc = map_power(maps[0], poly_eval(q.iterates[0][j], n))
        for tm, row in zip(maps[1:], q.iterates[1:]):
            acc = _mat_mul(map_power(tm, poly_eval(row[j], n)), acc)
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class TermCombination:
    """One choice of a term from every observable.

    ``coefficient`` is the product of the chosen coefficients; ``phase`` is
    the total phase ``sum_j k_j . b_j(n)`` and ``frequency`` the components
    of the total pushed frequency ``sum_j A_j(n)^T k_j``, as exact
    polynomials in n.  The combination integrates to
    ``coefficient * e(phase(n))`` where the frequency vanishes and to 0
    elsewhere.
    """

    coefficient: complex
    phase: ExactPoly
    frequency: Tuple[ExactPoly, ...]

    @property
    def is_atom(self) -> bool:
        """Frequency identically zero: a polynomial-phase (nilsequence) atom."""
        return not any(self.frequency)

    def vanishes(self, ns: np.ndarray) -> np.ndarray:
        """Mask of the integers in ``ns`` at which the frequency is zero."""
        mask = np.ones(len(ns), dtype=bool)
        for component in self.frequency:
            if component:
                mask &= component.values(ns) == 0
        return mask


@dataclass(frozen=True)
class CorrelationStructure:
    """The nilsequence + null split of a correlation query.

    ``combinations`` lists every term combination in ``itertools.product``
    order: atoms contribute at every n, the others only at the finitely many
    integers where their total frequency vanishes (spikes).  ``pushed``
    holds every component of every pushed term frequency, for the 2^127
    guard; ``samples`` are the exact slot maps it was interpolated from
    (:func:`_slot_samples`).
    """

    combinations: Tuple[TermCombination, ...]
    pushed: Tuple[ExactPoly, ...]
    samples: tuple

    @property
    def atoms(self) -> Tuple[TermCombination, ...]:
        return tuple(c for c in self.combinations if c.is_atom)

    def spikes(self, w: Window) -> Tuple[int, ...]:
        """The n in the window at which some non-atom combination counts."""
        ns = w.indices()
        hit = np.zeros(w.length, dtype=bool)
        for comb in self.combinations:
            if not comb.is_atom:
                hit |= comb.vanishes(ns)
        return tuple(int(n) for n in ns[hit])

    def check_frequencies(self, ns: np.ndarray) -> None:
        if any(poly.exceeds(FREQUENCY_GUARD, ns) for poly in self.pushed):
            raise FrequencyOverflowError(
                "frequency overflow: component exceeds 2^127"
            )


def _slot_samples(q: CorrelationQuery) -> tuple:
    """The exact slot maps (:func:`_slot_affines`) at ``n = 0..D``.

    Every slot map ``prod_i T_i^{p[i][j](n)}`` has matrix entries of degree
    at most ``(d-1) s_j`` and shift components of degree at most ``d s_j``
    in n, where ``s_j = sum_i deg p[i][j]`` (``M^p = sum_{k<=d} C(p,k) K^k``
    and the matrix block ``N^d`` of ``K^d`` is zero).  The samples at
    ``n = 0..D`` with ``D = d max_j s_j`` therefore determine every entry,
    and every linear combination of entries, as a polynomial in n by
    interpolation.
    """
    d = q.system.dimension
    degree = d * max(sum(max(len(row[j]) - 1, 0) for row in q.iterates)
                     for j in range(len(q.observables)))
    return tuple(_slot_affines(q, n) for n in range(degree + 1))


@lru_cache(maxsize=1)
def correlation_structure(q: CorrelationQuery) -> CorrelationStructure:
    """Atoms and spike candidates of the query, computed once for all n.

    Every pushed frequency and phase is interpolated from
    :func:`_slot_samples`.  A combination whose total frequency vanishes at
    all the samples vanishes identically.  The last query's structure is
    kept, so a numeric correlation and its grid-size check build one.
    """
    q.require_valid()
    samples = _slot_samples(q)
    d = q.system.dimension
    slots = []
    pushed: list[ExactPoly] = []
    for j, obs in enumerate(q.observables):
        terms = []
        for freq, coeff in obs.terms:
            # the row (k, 0) M: pushed frequency A^T k, then the phase k.alpha
            rows = [_mat_mul((freq + (0,),), s[j])[0] for s in samples]
            columns = list(zip(*rows))
            pushed.extend(ExactPoly.through(col) for col in columns[:d])
            terms.append((coeff, rows))
        slots.append(terms)
    combinations = []
    for combo in itertools.product(*slots):
        const = 1.0 + 0.0j
        for coeff, _ in combo:
            const *= coeff
        totals = [[sum(col) for col in zip(*at)]
                  for at in zip(*(rows for _, rows in combo))]
        polys = [ExactPoly.through(col) for col in zip(*totals)]
        combinations.append(
            TermCombination(const, polys[d], tuple(polys[:d])))
    return CorrelationStructure(tuple(combinations), tuple(pushed), samples)


def correlate_exact(q: CorrelationQuery, w: Window) -> Signal:
    """Correlation sequence by exact character calculus.

    The query's :func:`correlation_structure` is computed once.  Each atom
    then contributes ``c e(phase(n))`` on the whole window and every other
    combination only at the window integers where its total frequency
    vanishes.  A phase ``P(n) / D`` is reduced mod D exactly and divided
    once, so the exponential sees one rounding, and the contributions are
    summed in ``itertools.product`` order: every value is the same float the
    per-n expansion gives.
    """
    structure = correlation_structure(q)
    ns = w.indices()
    structure.check_frequencies(ns)
    re = np.zeros(w.length)
    im = np.zeros(w.length)
    for comb in structure.combinations:
        at = slice(None) if comb.is_atom else np.flatnonzero(comb.vanishes(ns))
        e = np.exp(2j * np.pi * comb.phase.fracs(ns[at]))
        c = comb.coefficient
        # written out: numpy's vectorized complex product may fuse a
        # multiply-add and differ in the last bit from the scalar product
        re[at] += c.real * e.real - c.imag * e.imag
        im[at] += c.real * e.imag + c.imag * e.real
    bound = 1.0
    for obs in q.observables:
        bound *= obs.bound
    return Signal(w, re + 1j * im, bound)


def required_grid_size(q: CorrelationQuery, w: Window) -> int:
    """Smallest grid size that cannot alias this query over the window.

    Aliasing happens when a nonzero combined frequency vector is
    divisible by G in every component; it is ruled out by taking G
    strictly larger than the largest ``|component|`` of the non-atom
    total frequencies over the window.
    """
    structure = correlation_structure(q)
    ns = w.indices()
    structure.check_frequencies(ns)
    worst = 1
    for comb in structure.combinations:
        for component in comb.frequency:
            if component:
                worst = max(worst, int(np.max(np.abs(component.values(ns)))))
    return worst + 1


def correlate_numeric(q: CorrelationQuery, w: Window, quad: QuadratureSpec,
                      budget: int = DEFAULT_QUAD_BUDGET,
                      allow_aliased: bool = False) -> Signal:
    """Correlation sequence by grid quadrature of the raw integrand.

    Grid points are pushed through the affine maps (integer arithmetic for
    the matrix part) and the observables are evaluated at the transformed
    points.  Refuses grids below the aliasing threshold unless
    ``allow_aliased=True`` is passed explicitly.  Every value equals the
    per-n quadrature (one ``np.exp`` row per n) bit for bit.

    The window runs in blocks of ``max(1, BLOCK_CELLS // G^d)`` rows of
    ``G^d`` cells; larger blocks cost memory without saving time (blocks of
    2**20 cells raised the peak RSS of a ``correlate`` benchmark run from 46
    to 172 MB and slowed it by 17%).  The blocks run on a thread per CPU the
    process may use, at most one per block (one runs inline), and each
    thread owns one set of row buffers, allocated here for one block: the
    index (whose memory the exponential reuses), the point, the phase, the
    cosine or sine, ``fval`` and ``prod``.  Every step writes into them.

    Coordinate r of a pushed cell is ``sum_c M[r, c] x_c mod G``.  Each
    ``M[r, c] x_c mod G`` is a residue vector of length G, and the vectors
    are added over the product grid without a reduction: the sum, below
    ``d G``, indexes a table of the point ``mod1(t / G + shift)`` that holds
    its G values d times over.

    ``exp(2 pi i t)`` is computed as ``cos(y) + i sin(y)`` with
    ``y = 2 pi t``, the imaginary part of ``2j * np.pi * t``: numpy's
    complex ``exp`` calls glibc's ``cexp``, and ``cexp(+0 + iy)`` is
    ``(cos y, sin y)``.  Cosine and sine into contiguous rows run faster
    than complex ``exp`` and overlap on threads, where ``exp`` does not.
    On a platform whose ``cos``/``sin`` differ from its ``cexp``, the
    per-n oracle test fails.

    The fused complex product is not bitwise commutative, so every product
    keeps the operand order of the per-n quadrature.  There numpy elides the
    temporary of ``coeff * np.exp(...)`` from 2**14 values (256 KiB) on,
    computing ``exp * coeff`` in place; below, it computes
    ``coeff * exp``.  ``fval`` starts at 0 and ``prod`` at 1, which fixes
    the signs of zeros.
    """
    structure = correlation_structure(q)
    d = q.system.dimension
    G = quad.grid_size
    cost = G**d * w.length
    if cost > budget:
        raise BudgetError(
            f"quadrature cost G^d * |window| = {cost} exceeds budget {budget}"
        )
    needed = required_grid_size(q, w)
    if G < needed and not allow_aliased:
        raise AliasingError(
            f"grid size {G} would alias this query; need at least {needed}"
        )
    # each slot's matrix mod G, (n, d, d), and shift mod 1, (n, d), over the
    # whole window, from the exact slot maps interpolated as polynomials in n
    ns = w.indices()
    samples = structure.samples
    mats, shifts = [], []
    for j in range(len(q.observables)):
        mats.append(np.moveaxis(np.array([
            [np.asarray(ExactPoly.through([s[j][r][c] for s in samples])
                        .values(ns) % G, dtype=np.int64) for c in range(d)]
            for r in range(d)]), 2, 0))
        shifts.append(np.array([
            ExactPoly.through([s[j][r][d] for s in samples]).fracs(ns)
            for r in range(d)]).T)
    cells, span = G**d, d * G
    rows = min(max(1, BLOCK_CELLS // cells), w.length)
    elided = cells >= 2**14  # numpy elides a per-n row product this long
    levels = np.arange(span) % G / G  # t / G for t in [0, G), d times over
    residues = np.arange(G)
    values = np.empty(w.length, dtype=np.complex128)

    def block(lo: int, buffers: Tuple[np.ndarray, ...]) -> None:  # on a worker
        count = min(rows, w.length - lo)
        point, phase, trig, fval, prod = (b[:count] for b in buffers[1:])
        # the index is dead before the exponential is written: one memory
        index = buffers[0][:count * d * cells].reshape(count, d, cells)
        exp = buffers[0][:2 * count * cells].view(complex).reshape(count, cells)
        grid = index.reshape((count, d) + (G,) * d)
        # where each (row, coordinate) table starts once the tables are flat
        starts = span * np.arange(count * d).reshape(count, d, 1)
        prod.fill(1)
        for mat, shift, obs in zip(mats, shifts, q.observables):
            tables = mod1(levels + shift[lo:lo + count, :, None])  # (rows, d, dG)
            push = mat[lo:lo + count, :, :, None] * residues % G  # (rows, d, d, G)
            push[:, :, 0] += starts  # each sum indexes its own table
            axes = [push[:, :, c].reshape((count, d) + (1,) * c + (G,)
                                          + (1,) * (d - 1 - c)) for c in range(d)]
            np.add(reduce(np.add, axes[:-1], 0), axes[-1], out=grid)
            np.take(tables.ravel(), index, out=point, mode="clip")
            fval.fill(0)
            for freq, coeff in obs.terms:
                # stacked, so each row is the same (d,) @ (d, G^d) product
                np.matmul(np.asarray(freq, dtype=float), point, out=phase)
                np.subtract(phase, np.floor(phase, out=trig), out=phase)  # mod1
                np.multiply(phase, 2 * np.pi, out=phase)
                np.copyto(exp.real, np.cos(phase, out=trig))
                np.copyto(exp.imag, np.sin(phase, out=trig))
                if elided:
                    np.multiply(exp, coeff, out=exp)
                else:
                    np.multiply(coeff, exp, out=exp)
                fval += exp
            prod *= fval
        values[lo:lo + count] = prod.mean(axis=1)

    blocks = range(0, w.length, rows)
    shapes = [(rows * max(d, 2) * cells, np.intp), ((rows, d, cells), float),
              ((rows, cells), float), ((rows, cells), float),
              ((rows, cells), complex), ((rows, cells), complex)]
    run_blocks(block, blocks, lambda: tuple(np.empty(shape, dtype=dtype)
                                            for shape, dtype in shapes))
    return Signal(w, values)


# ---------------------------------------------------------------------------
# corpus generation for the three sequence classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CorpusEntry:
    """One generated sequence with its provenance."""

    signal: Signal
    label: str
    params: dict


def _rotation_pair_query(alpha: float, beta: float) -> CorrelationQuery:
    system = AffineToralSystem.from_pairs(1, [(((1,),), (alpha,)),
                                              (((1,),), (beta,))])
    return diagonal_query(system, [character((1,)), character((-1,))])


def skew_spike_query(alpha: float, k1: int, k1p: int, k2: int) -> CorrelationQuery:
    """Skew-product pair whose correlation vanishes except at isolated n.

    Slot 1 sees S^n, slot 2 sees S^{2n} for the skew
    ``S(x, y) = (x + alpha, y + x)``; with frequencies (k1, k2) and
    (k1p, -k2) the combined x-frequency is ``k1 + k1p - n k2``, so the
    sequence is a single unimodular spike at ``n = (k1 + k1p) / k2`` when
    that is an integer.
    """
    system = AffineToralSystem.from_pairs(
        2, [(((1, 0), (1, 1)), (alpha, 0.0))]
    )
    observables = (character((k1, k2)), character((k1p, -k2)))
    iterates = (((0, 1), (0, 2)),)
    return CorrelationQuery(system, observables, iterates)


def _class_a_entry(ell: int, rng: np.random.Generator, w: Window,
                   freq_grid: Union[int, None]) -> CorpusEntry:
    def draw_freq() -> float:
        if freq_grid is not None:
            return int(rng.integers(0, freq_grid)) / freq_grid
        return float(rng.random())

    if ell == 1:
        c = float(rng.random()) * np.exp(2j * np.pi * rng.random())
        atom = PolynomialPhase((0.0,))
        sig = eval_nilsequence(atom, w).scale(c)
        return CorpusEntry(sig, f"A1:constant({c!r})", {"constant": str(c)})
    if ell == 2:
        alpha, theta = draw_freq(), float(rng.random())
        atom = PolynomialPhase((theta, alpha))
        return CorpusEntry(eval_nilsequence(atom, w), f"A2:{atom.label}",
                           {"alpha": alpha, "theta": theta})
    which = int(rng.integers(0, 3))
    if which == 0:
        atom = PolynomialPhase((float(rng.random()), float(rng.random()),
                                float(rng.random())))
    elif which == 1:
        atom = BracketPhase(float(rng.random()), float(rng.random()),
                            float(rng.random()), float(rng.random()))
    else:
        g = HeisenbergElement(float(rng.random()), float(rng.random()),
                              float(rng.random()))
        k = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
        atom = HeisenbergOrbit(g, HeisenbergObservable(horizontal=k))
    return CorpusEntry(eval_nilsequence(atom, w), f"A3:{atom.label}",
                       {"atom": atom.label})


def _zero_sum_frequencies(ell: int, rng: np.random.Generator) -> list[int]:
    ms = [int(rng.integers(-2, 3)) for _ in range(ell - 1)]
    ms.append(-sum(ms))
    return ms


def _class_b_entry(ell: int, rng: np.random.Generator, w: Window,
                   freq_grid: Union[int, None]) -> CorpusEntry:
    k = [math.factorial(ell) // i for i in range(1, ell + 1)]
    if freq_grid is not None:
        alpha = int(rng.integers(0, freq_grid)) / freq_grid
    else:
        alpha = float(rng.random())
    system = AffineToralSystem.from_pairs(1, [(((1,),), (alpha,))])
    ms = _zero_sum_frequencies(ell, rng)
    observables = [character((m,)) for m in ms]
    query = single_map_query(system, observables, k)
    sig = correlate_exact(query, w)
    return CorpusEntry(
        sig,
        f"B{ell}:rotation(alpha={alpha!r}, freqs={ms}, exponents={k})",
        {"alpha": alpha, "freqs": ms, "exponents": k},
    )


def _class_c_entry(ell: int, rng: np.random.Generator, w: Window,
                   freq_grid: Union[int, None], variant: str) -> CorpusEntry:
    # the spike is drawn off both ends of the window, so it needs 3 points
    if variant == "mixed" and ell == 2 and rng.random() < 0.25 and w.length >= 3:
        alpha = float(rng.random())
        k2 = int(rng.integers(1, 3))
        n_star = int(rng.integers(w.start + 1, w.end - 1))
        k1 = int(rng.integers(-3, 4))
        k1p = n_star * k2 - k1
        query = skew_spike_query(alpha, k1, k1p, k2)
        sig = correlate_exact(query, w)
        return CorpusEntry(
            sig,
            f"C2:skew-spike(alpha={alpha!r}, n*={n_star})",
            {"alpha": alpha, "spike_at": n_star, "spike_count": 1},
        )
    if ell == 2:
        alpha = float(rng.random())
        if freq_grid is not None:
            j = int(rng.integers(0, freq_grid))
            beta = (alpha - j / freq_grid) % 1.0
            delta = f"{j}/{freq_grid}"
        else:
            beta = float(rng.random())
            delta = repr((alpha - beta) % 1.0)
        query = _rotation_pair_query(alpha, beta)
        sig = correlate_exact(query, w)
        return CorpusEntry(
            sig,
            f"C2:rotations(alpha={alpha!r}, beta={beta!r}, delta={delta})",
            {"alpha": alpha, "beta": beta, "difference": delta},
        )
    alphas = [float(rng.random()) for _ in range(ell)]
    system = AffineToralSystem.from_pairs(
        1, [(((1,),), (a,)) for a in alphas]
    )
    ms = _zero_sum_frequencies(ell, rng)
    query = diagonal_query(system, [character((m,)) for m in ms])
    sig = correlate_exact(query, w)
    return CorpusEntry(
        sig,
        f"C{ell}:rotations(alphas={alphas}, freqs={ms})",
        {"alphas": alphas, "freqs": ms},
    )


# largest ell of each sequence class
CLASS_MAX_ELL = {"A": 3, "B": 4, "C": 4}


def corpus_generate(family: str, ell: int, seed: int, w: Window,
                    count: int = 8, freq_grid: Union[int, None] = None,
                    variant: str = "mixed") -> list[CorpusEntry]:
    """Deterministic per-seed sample from one of the three sequence classes.

    Family "A" samples nilsequence atoms of step ell-1 (ell <= 3);
    family "B" samples single-transformation correlations with exponents
    ``k_i = ell!/i`` (ell <= 4); family "C" samples commuting-family
    correlations (ell <= 4).  ``freq_grid=Q`` aligns the generated base
    frequencies with the grid j/Q; ``variant="rotations"`` restricts family
    C to pure rotation pairs.
    """
    if family not in CLASS_MAX_ELL:
        raise ValueError(f"unknown class {family!r}")
    if variant not in ("mixed", "rotations"):
        raise ValueError(f"unknown variant {variant!r}")
    top = CLASS_MAX_ELL[family]
    if not 1 <= ell <= top:
        raise ValueError(f"class {family} supports ell in 1..{top}")
    rng = np.random.default_rng(seed)
    entries = []
    for _ in range(count):
        if family == "A":
            entries.append(_class_a_entry(ell, rng, w, freq_grid))
        elif family == "B":
            entries.append(_class_b_entry(ell, rng, w, freq_grid))
        else:
            entries.append(_class_c_entry(ell, rng, w, freq_grid, variant))
    return entries
