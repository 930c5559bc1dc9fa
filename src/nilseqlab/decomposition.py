"""Structured-plus-error splitting against a finite nilsequence dictionary.

A bounded signal is projected onto the span of the dictionary in the
empirical mean inner product (regularized least squares), the projection is
clipped to the closed unit disk pointwise, and the remainder is reported
with its density seminorm, its uniformity seminorm, and its worst residual
correlation against the dictionary.  The finite dictionary upper-bounds the
distance to the full structured class, so the epsilon check in the report
is advisory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from ._threads import run_blocks
from .errors import BudgetError
# eval_nilsequence stays bound for perfbench's tracer self-test, which reads it
from .nilmanifolds import (BracketPhase, Dictionary, PolynomialPhase, atom_rows,
                           eval_nilsequence)
from .signals import Signal, Window, density_seminorm
from .uniformity import GowersParams, GowersReport, ghk_seminorm

BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class DictionarySpec:
    """Enumeration recipe for a polynomial-phase dictionary.

    One atom per tuple of coefficients on the grid ``j/Q`` (j = 0..Q-1),
    one grid per included degree; degree 0 is never gridded so the constant
    atom appears exactly once.  Optional bracket atoms add the pairs
    (alpha, cross) on the same grid.
    """

    step: int
    degrees: Union[Tuple[int, ...], None] = None
    freq_resolution: int = 64
    include_brackets: bool = False
    ridge: Union[float, None] = None
    budget: int = 4096

    def __post_init__(self) -> None:
        if not 1 <= self.step <= 3:
            raise ValueError("dictionary step must be 1..3")
        if self.freq_resolution < 1:
            raise ValueError("frequency resolution Q must be >= 1")
        degrees = self.degrees
        if degrees is None:
            degrees = tuple(range(1, self.step + 1))
        degrees = tuple(sorted(set(int(d) for d in degrees)))
        if not degrees:
            raise ValueError("degrees must not be empty")
        if any(d < 1 or d > self.step for d in degrees):
            raise ValueError("degrees must lie in 1..step")
        object.__setattr__(self, "degrees", degrees)
        if self.ridge is not None and self.ridge < 0:
            raise ValueError("ridge must be >= 0")

    def atom_count(self) -> int:
        """Q atoms per gridded degree, and Q(Q-1) brackets when included."""
        Q = self.freq_resolution
        return Q ** len(self.degrees) + (Q * (Q - 1) if self.include_brackets else 0)

    def resolved_ridge(self, atom_count: int) -> float:
        if self.ridge is not None:
            return self.ridge
        return 1e-8 * atom_count


def build_dictionary(spec: DictionarySpec) -> Dictionary:
    """Deterministic atom enumeration; the atoms do not depend on a window.

    Atom order: polynomial phases in lexicographic coefficient order
    (highest degree fastest), then bracket atoms if enabled.
    """
    Q = spec.freq_resolution
    grid = [j / Q for j in range(Q)]
    count = spec.atom_count()
    if count > spec.budget:
        raise BudgetError(
            f"dictionary would hold {count} atoms, budget is {spec.budget}"
        )
    atoms: list = []
    for combo in itertools.product(*(grid for _ in spec.degrees)):
        coeffs = [0.0] * (max(spec.degrees) + 1)
        for d, c in zip(spec.degrees, combo):
            coeffs[d] = c
        atoms.append(PolynomialPhase(tuple(coeffs)))
    if spec.include_brackets:
        for alpha in grid:
            for cross in grid[1:]:
                atoms.append(BracketPhase(0.0, cross, alpha, 0.0))
    return Dictionary(tuple(atoms))


def atom_matrix(dictionary: Dictionary, w: Window) -> np.ndarray:
    """The dictionary's atoms on the window, one row each (:func:`atom_rows`)."""
    return atom_rows(dictionary.atoms, w.indices())


def clip_to_unit_disk(values: np.ndarray) -> np.ndarray:
    """Radial projection onto the closed unit disk, pointwise.

    Never increases the distance to any point of the disk, so the residual
    against a bounded signal can only shrink.
    """
    mod = np.abs(values)
    divisor = np.where(mod > 1.0, mod, 1.0)
    return values / divisor


_SINGULAR_RTOL = 1e-12
GRAM_ROWS = 128  # atoms per row block of the Gram product


def _solve_projection(a: Signal, psi: np.ndarray, ridge: float):
    """Coefficients, their combination and the exactly Hermitian Gram, whose
    row blocks run on :func:`run_blocks`: the same floats for any count.
    Beside the Gram it holds a conjugate row block per worker, and adds
    the ridge to the Gram's diagonal in place: only LAPACK copies the Gram.
    A singular Gram raises ``np.linalg.LinAlgError``, a ``ValueError``."""
    n, m = a.window.length, len(psi)
    gram, rhs = np.empty((m, m), dtype=complex), np.empty(m, dtype=complex)
    starts = range(0, m, GRAM_ROWS)
    def block(i: int, buffer: np.ndarray) -> None:  # on a worker, maybe
        rows = gram[i:i + GRAM_ROWS, i:]
        conj = np.conj(psi[i:i + GRAM_ROWS], out=buffer[:len(rows)])
        np.matmul(conj, psi[i:].T, out=rows)  # releases the GIL
        rows /= n
        rhs[i:i + GRAM_ROWS] = conj @ a.values / n
    run_blocks(block, starts,
               lambda: np.empty((min(m, GRAM_ROWS), n), dtype=complex), blas=True)
    # mirror the upper triangle: a product alone is not bitwise Hermitian
    np.copyto(gram, np.conj(gram).T, where=np.tri(m, k=-1, dtype=bool))
    np.fill_diagonal(gram, gram.diagonal().real)
    diagonal = gram.diagonal().copy()
    gram += 0.0  # as in gram + ridge * I, whose sum turns -0.0 into +0.0
    gram.flat[::m + 1] += ridge  # the solve's system, formed in place
    try:
        if ridge == 0.0:
            # rounding hides exact rank deficiency from the LU solver; the
            # Cholesky pivots of the positive semidefinite Gram expose it
            pivots = np.diagonal(np.linalg.cholesky(gram)).real ** 2
            if float(np.min(pivots)) < _SINGULAR_RTOL * float(np.max(pivots)):
                raise np.linalg.LinAlgError("a Cholesky pivot is below tolerance")
        coeffs = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "Gram matrix is singular; pass a ridge parameter > 0") from exc
    finally:
        gram.flat[::m + 1] = diagonal
    return coeffs, coeffs @ psi, gram


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    """Structured part, error part, and every diagnostic norm of the split."""

    atom_labels: Tuple[str, ...]
    coefficients: np.ndarray
    a_st: Signal
    a_er: Signal
    err2: float
    err_uniformity: GowersReport
    max_atom_correlation: float
    err2_preclip: float
    err2_postclip: float
    delta: float
    epsilon: float
    err2_within_epsilon: bool
    orthogonality_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "coefficients": [
                {"atom": lab, "re": float(c.real), "im": float(c.imag)}
                for lab, c in zip(self.atom_labels, self.coefficients)
            ],
            "err2": self.err2,
            "errU": self.err_uniformity.value,
            "errU_report": self.err_uniformity.to_json_dict(),
            "max_atom_correlation": self.max_atom_correlation,
            "err2_preclip": self.err2_preclip,
            "err2_postclip": self.err2_postclip,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "err2_within_epsilon": self.err2_within_epsilon,
            "orthogonality_ok": self.orthogonality_ok,
        }


def decompose(a: Signal, epsilon: float, spec: DictionarySpec,
              gowers: GowersParams) -> DecompositionReport:
    """Split a bounded signal into clipped dictionary projection plus error.

    The projection minimizes ``mean |a - sum_j c_j psi_j|^2 + ridge |c|^2``;
    its clipping needs ``sup |a| <= 1``.  The reported ``delta`` is
    ``(epsilon / 16)^(2^gowers.order)``, the orthogonality threshold
    matching an anti-uniformity constant of 4.  The epsilon flag is
    advisory: a finite dictionary only upper-bounds the distance to the
    structured class.

    The atom matrix, the Gram (exactly Hermitian by construction, its row
    blocks on a thread per CPU beside a single-threaded BLAS) and the solve
    are the same floats whatever the order of the atoms (see
    :func:`atom_rows`) and the number of Gram threads; the ridge solve of a
    rank-deficient dictionary moves its coefficients by about 1e-6 when the
    Gram changes in the last bit.  Beside the atom matrix and the Gram, the
    solve allocates one row block per Gram thread, and LAPACK a Gram copy.
    The worst atom correlation is one matrix-vector product, which sums in
    a different order than a per-atom mean and so agrees with it to about
    1e-16 relative.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if a.sup_norm > 1.0 + BOUND_SLACK:
        raise ValueError(f"signal sup-norm {a.sup_norm} exceeds 1")
    dictionary = build_dictionary(spec)
    psi = atom_matrix(dictionary, a.window)
    ridge = spec.resolved_ridge(len(dictionary))
    coeffs, combo, gram = _solve_projection(a, psi, ridge)
    clipped = clip_to_unit_disk(combo)
    a_st = Signal(a.window, clipped, 1.0)
    a_er = a - a_st
    full = a.window.length
    err2_preclip = density_seminorm(Signal(a.window, a.values - combo), full) ** 2
    err2_postclip = density_seminorm(a_er, full) ** 2
    err_uniformity = ghk_seminorm(a_er, gowers)
    # |<a_er, psi_j>| over max(1, density of psi_j) at the full scale; that
    # density squared is the Gram diagonal entry mean |psi_j|^2
    corr = np.abs(psi @ np.conj(a_er.values)) / full
    denom = np.maximum(1.0, np.sqrt(gram.diagonal().real))
    worst = float(np.max(corr / denom))
    delta = (epsilon / 16.0) ** (2 ** gowers.order)
    return DecompositionReport(
        atom_labels=dictionary.labels,
        coefficients=coeffs,
        a_st=a_st,
        a_er=a_er,
        err2=err2_postclip,
        err_uniformity=err_uniformity,
        max_atom_correlation=worst,
        err2_preclip=err2_preclip,
        err2_postclip=err2_postclip,
        delta=delta,
        epsilon=epsilon,
        err2_within_epsilon=err2_postclip <= epsilon,
        orthogonality_ok=worst <= 2.0 * delta,
    )
