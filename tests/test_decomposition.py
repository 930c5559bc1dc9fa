"""Tests for dictionary enumeration, projection, clipping, and the split."""

from __future__ import annotations

import cmath
import math
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilseqlab import (
    BudgetError,
    DictionarySpec,
    GowersParams,
    PolynomialPhase,
    Signal,
    Window,
    build_dictionary,
    clip_to_unit_disk,
    decompose,
    density_seminorm,
    eval_nilsequence,
    inner_product,
)
from nilseqlab import _threads
from nilseqlab._threads import run_blocks
from nilseqlab.decomposition import GRAM_ROWS, _solve_projection, atom_matrix
from nilseqlab.nilmanifolds import (BracketPhase, Dictionary, HeisenbergElement,
                                    HeisenbergObservable, HeisenbergOrbit,
                                    heis_pow, heis_reduce)

W = Window(0, 512)


def grid_atom(j: int, q: int) -> Signal:
    return eval_nilsequence(PolynomialPhase((0.0, j / q)), W)


def test_build_dictionary_counts():
    d = build_dictionary(DictionarySpec(step=1, freq_resolution=4))
    assert len(d) == 4
    assert [a.coefficients[1] for a in d.atoms] == [0.0, 0.25, 0.5, 0.75]

    single = build_dictionary(DictionarySpec(step=1, freq_resolution=1))
    assert len(single) == 1
    assert single.atoms[0].coefficients == (0.0, 0.0)

    two_step = build_dictionary(DictionarySpec(step=2, freq_resolution=8))
    assert len(two_step) == 64


def test_build_dictionary_budget():
    with pytest.raises(BudgetError, match="budget"):
        build_dictionary(DictionarySpec(step=2, freq_resolution=64, budget=100))


def test_build_dictionary_brackets():
    spec = DictionarySpec(step=2, freq_resolution=4, include_brackets=True,
                          budget=64)
    d = build_dictionary(spec)
    assert len(d) == 16 + 4 * 3


def test_project_recovers_exact_member():
    target = grid_atom(3, 16)
    d = build_dictionary(DictionarySpec(step=1, freq_resolution=16))
    coeffs, combo, _ = _solve_projection(target, atom_matrix(d, W), 1e-12)
    y0 = Signal(W, clip_to_unit_disk(combo), 1.0)
    assert abs(coeffs[3] - 1.0) < 1e-9
    others = np.delete(np.abs(coeffs), 3)
    assert np.max(others) < 1e-9
    assert density_seminorm(target - y0, W.length) < 1e-8


def test_clipping_of_overscaled_member():
    target = grid_atom(5, 16).scale(1.5)
    spec = DictionarySpec(step=1, freq_resolution=16, ridge=0.0)
    with pytest.raises(ValueError, match="sup-norm"):
        decompose(target, 0.5, spec, GowersParams(order=2, shift_count=16))
    coeffs, combo, _ = _solve_projection(
        target, atom_matrix(build_dictionary(spec), W), 0.0)
    assert abs(coeffs[5] - 1.5) < 1e-9
    assert np.max(np.abs(np.abs(clip_to_unit_disk(combo)) - 1.0)) < 1e-12


def test_projection_with_noise_recovers_coefficient():
    rng = np.random.default_rng(12)
    atom = grid_atom(7, 16)
    noisy = Signal(
        W, atom.values + 0.1 * np.exp(2j * np.pi * rng.random(W.length))
    )
    d = build_dictionary(DictionarySpec(step=1, freq_resolution=16))
    coeffs, _, _ = _solve_projection(noisy, atom_matrix(d, W), 1e-10)
    assert abs(coeffs[7] - 1.0) < 0.01


def test_singular_gram_requires_ridge():
    # four distinct frequencies restricted to two points: rank-deficient
    w2 = Window(0, 2)
    atoms = tuple(PolynomialPhase((0.0, j / 4)) for j in range(4))
    psi = atom_matrix(Dictionary(atoms), w2)
    target = Signal(w2, np.ones(2, dtype=complex), 1.0)
    with pytest.raises(ValueError, match="ridge"):
        _solve_projection(target, psi, 0.0)
    _solve_projection(target, psi, 1e-6)  # regularized solve succeeds


def _unimodular(w: Window, seed: int) -> Signal:
    rng = np.random.default_rng(seed)
    return Signal(w, np.exp(2j * np.pi * rng.random(w.length)), 1.0)


@pytest.mark.parametrize("spec", [
    DictionarySpec(step=1, freq_resolution=64),  # 64 atoms
    # Q + Q(Q - 1) = Q^2 atoms; an even Q makes Q^2 a multiple of 4, for
    # which the full product is bitwise Hermitian on OpenBLAS
    DictionarySpec(step=2, freq_resolution=math.isqrt(GRAM_ROWS) // 2 * 2,
                   degrees=(1,), include_brackets=True),
])
def test_gram_of_one_block_is_the_full_product(spec):
    psi = atom_matrix(build_dictionary(spec), W)
    assert len(psi) <= GRAM_ROWS
    _, _, gram = _solve_projection(_unimodular(W, 3), psi, 1e-8)
    assert np.array_equal(gram, np.conj(psi) @ psi.T / W.length)


def test_blocked_gram_is_exactly_hermitian():
    # (isqrt(R) + 2)^2 atoms, between R = GRAM_ROWS and 2R: two row blocks,
    # the last one partial (169 atoms at R = 128)
    spec = DictionarySpec(step=2, freq_resolution=math.isqrt(GRAM_ROWS) + 2)
    psi = atom_matrix(build_dictionary(spec), W)
    assert GRAM_ROWS < len(psi) < 2 * GRAM_ROWS
    target = _unimodular(W, 4)
    _, _, gram = _solve_projection(target, psi, 1e-8)
    assert np.array_equal(gram, gram.conj().T)
    assert np.max(np.abs(gram - np.conj(psi) @ psi.T / W.length)) <= 1e-13
    # the grid has period Q, so its rank is Q: the Cholesky check reads the
    # mirrored lower triangle and still refuses it without a ridge
    with pytest.raises(ValueError, match="ridge"):
        _solve_projection(target, psi, 0.0)


def _gram_oracle(a: Signal, psi: np.ndarray, ridge: float, rows: int = 256):
    """The sequential Gram, 256 rows a block in order, and the ridge solve."""
    n, m = a.window.length, len(psi)
    gram, rhs = np.empty((m, m), dtype=complex), np.empty(m, dtype=complex)
    for i in range(0, m, rows):
        conj = np.conj(psi[i:i + rows])
        gram[i:i + rows, i:] = conj @ psi[i:].T / n
        rhs[i:i + rows] = conj @ a.values / n
    np.copyto(gram, np.conj(gram).T, where=np.tri(m, k=-1, dtype=bool))
    np.fill_diagonal(gram, gram.diagonal().real)
    coeffs = np.linalg.solve(gram + ridge * np.eye(m), rhs)
    return coeffs, coeffs @ psi, gram


@pytest.mark.parametrize("cpus", [1, 8])  # inline, and more threads than CPUs
@pytest.mark.parametrize("spec,length", [
    (DictionarySpec(step=2, freq_resolution=32), 1024),  # 8 blocks of 128
    (DictionarySpec(step=2, freq_resolution=16, degrees=(1,),
                    include_brackets=True), 512),  # 256 atoms
    (DictionarySpec(step=2, freq_resolution=17), 512),  # 289: last block partial
])
def test_threaded_gram_matches_sequential_oracle(spec, length, cpus,
                                                 monkeypatch):
    w = Window(0, length)
    psi = atom_matrix(build_dictionary(spec), w)
    target, ridge = _unimodular(w, 5), spec.resolved_ridge(len(psi))
    monkeypatch.setattr(_threads, "_blas_threads", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _solve_projection(target, psi, ridge)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads  # no worker outlives the call
    expected = _gram_oracle(target, psi, ridge)
    for value, oracle in zip(got[:2], expected):  # signed zeros count
        assert np.array_equal(value.view(np.uint64), oracle.view(np.uint64))
    assert np.array_equal(got[2], expected[2])
    # the diagonal formed, not the one the solve added the ridge to
    assert np.array_equal(got[2].diagonal().copy().view(np.uint64),
                          expected[2].diagonal().copy().view(np.uint64))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS (VmHWM) from /proc")
@pytest.mark.parametrize("blas", [1, 0], ids=["workers", "inline"])
def test_step2_decompose_peak_memory(blas):
    """One step-2 Q=32 decompose on [0, 4096) holds the 1,024-atom matrix
    (64 MB), the Gram and LAPACK's copy of it (16 MB each) and the mirror's
    conjugate (16 MB): its peak RSS rises by at most 110 MB, whether the
    Gram's row blocks run on workers or inline.  The peak is the child's
    VmHWM: its ru_maxrss would start from the RSS of this process, which
    Linux carries over the exec."""
    code = (
        "import re, numpy as np\n"
        "from nilseqlab import (DictionarySpec, GowersParams, Signal, Window,\n"
        "                       _threads, decompose)\n"
        f"_threads._blas_threads = lambda: {blas}\n"
        "w = Window(0, 4096)\n"
        "rng = np.random.default_rng(1)\n"
        "a = Signal(w, np.exp(2j * np.pi * rng.random(w.length)), 1.0)\n"
        "def peak():  # kB\n"
        "    status = open('/proc/self/status').read()\n"
        "    return int(re.search(r'VmHWM:\\s*(\\d+)', status).group(1))\n"
        "before = peak()\n"
        "decompose(a, 0.5, DictionarySpec(step=2, freq_resolution=32),\n"
        "          GowersParams(order=2, shift_count=8))\n"
        "print((peak() - before) / 1024)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                         capture_output=True, timeout=120, check=True)
    assert float(run.stdout) <= 110


def _buffers_made(blocks: int, blas: bool) -> int:
    """The buffers run_blocks makes for ``blocks`` starts.  It must make them
    all before any block runs, never hand one to two running blocks, and run
    every block on the calling thread when it makes one."""
    made, ran, held = [], [], set()
    lock = threading.Lock()

    def new_buffer() -> int:
        made.append(len(made))
        return made[-1]

    def block(start: int, buffer: int) -> None:
        with lock:
            assert buffer not in held
            held.add(buffer)
            ran.append((start, len(made), threading.get_ident()))
        time.sleep(0.001)  # let the other workers take their blocks
        with lock:
            held.remove(buffer)

    run_blocks(block, range(blocks), new_buffer, blas)
    assert sorted(start for start, _, _ in ran) == list(range(blocks))
    assert {count for _, count, _ in ran} == {len(made)}
    if len(made) == 1:
        assert {ident for _, _, ident in ran} == {threading.get_ident()}
    return len(made)


@pytest.mark.parametrize("blas,blocks,cpus,workers", [
    (1, 8, 2, 2), (1, 8, 16, 8), (1, 1, 2, 1),  # one block runs inline
    (2, 8, 2, 1), (0, 8, 2, 1),  # a BLAS with threads, or one that won't say
])
def test_gram_workers_only_beside_a_single_threaded_blas(blas, blocks, cpus,
                                                         workers, monkeypatch):
    monkeypatch.setattr(_threads, "_blas_threads", lambda: blas)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    assert _buffers_made(blocks, blas=True) == workers
    # blocks that call no BLAS (the numeric engine's) take a thread per CPU
    assert _buffers_made(blocks, blas=False) == min(blocks, cpus)
    # without an affinity mask (not Linux) every CPU counts
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert _buffers_made(blocks, blas=True) == workers


def test_blas_threads_reads_the_blas_numpy_links():
    code = ("from nilseqlab._threads import _blas_threads; "
            "print(_blas_threads())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    counts = []
    for threads in ("1", "2"):
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                             capture_output=True, timeout=60, check=True)
        counts.append(int(run.stdout))
    if counts == [0, 0]:
        pytest.skip("numpy's BLAS does not report its thread count")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    assert counts == [1, min(2, cpus)]  # OpenBLAS runs no more than the CPUs


def test_clip_contraction_targets_disk():
    vals = np.array([0.2 + 0.1j, 3.0, -2.0j, 1.0 + 1.0j])
    clipped = clip_to_unit_disk(vals)
    assert np.max(np.abs(clipped)) <= 1.0 + 1e-15
    assert clipped[0] == vals[0]


@settings(max_examples=80, deadline=None)
@given(st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                          allow_infinity=False),
       st.complex_numbers(max_magnitude=8.0, allow_nan=False,
                          allow_infinity=False))
def test_clip_contraction_pointwise(a, v):
    clipped = clip_to_unit_disk(np.array([v]))[0]
    assert abs(a - clipped) <= abs(a - v) + 1e-12


def test_decompose_exact_additivity_and_flags():
    target = grid_atom(9, 16)
    spec = DictionarySpec(step=1, freq_resolution=16, ridge=0.0)
    rep = decompose(target, 1e-3, spec, GowersParams(order=2, shift_count=16))
    assert np.max(np.abs((rep.a_st.values + rep.a_er.values) - target.values)) < 1e-9
    assert rep.err2 <= 1e-9
    assert rep.err2_within_epsilon
    assert rep.err2 == rep.err2_postclip
    assert rep.delta == pytest.approx((1e-3 / 16.0) ** 4)
    d = rep.to_json_dict()
    assert len(d["coefficients"]) == 16
    assert d["errU"] == rep.err_uniformity.value


def test_decompose_spike_density():
    w = Window(0, 10**4)
    vals = np.zeros(w.length, dtype=complex)
    vals[5000] = 1.0
    spike = Signal(w, vals, 1.0)
    spec = DictionarySpec(step=1, freq_resolution=4, ridge=0.0)
    rep = decompose(spike, 0.5, spec, GowersParams(order=2, shift_count=32))
    assert density_seminorm(rep.a_st, w.length) < 1e-3
    assert rep.err2 == pytest.approx(1e-4, rel=0.05)


def test_decompose_noise_err2_near_one():
    rng = np.random.default_rng(3)
    w = Window(0, 4096)
    noise = Signal(w, np.exp(2j * np.pi * rng.random(4096)), 1.0)
    spec = DictionarySpec(step=1, freq_resolution=16, ridge=0.0)
    rep = decompose(noise, 0.5, spec, GowersParams(order=2, shift_count=64))
    assert abs(rep.err2 - 1.0) < 0.05
    assert not rep.err2_within_epsilon


def test_residual_orthogonality_normal_equations():
    rng = np.random.default_rng(14)
    target = Signal(W, 0.9 * np.exp(2j * np.pi * rng.random(W.length)), 0.9)
    psi = atom_matrix(build_dictionary(DictionarySpec(step=1, freq_resolution=8)), W)
    coeffs, _, _ = _solve_projection(target, psi, 0.0)
    residual = Signal(W, target.values - coeffs @ psi)
    for row in psi:
        assert abs(inner_product(residual, Signal(W, row), W.length)) < 1e-8


def test_enlarging_dictionary_never_hurts():
    rng = np.random.default_rng(15)
    target = Signal(W, 0.8 * np.exp(2j * np.pi * rng.random(W.length)), 0.8)
    small = build_dictionary(DictionarySpec(step=1, freq_resolution=4))
    large = build_dictionary(DictionarySpec(step=1, freq_resolution=8))
    # freq grids nest: {j/4} is a subset of {j/8}
    def unclipped_residual(dictionary):
        psi = atom_matrix(dictionary, W)
        coeffs, _, _ = _solve_projection(target, psi, 0.0)
        return density_seminorm(Signal(W, target.values - coeffs @ psi), W.length)

    assert unclipped_residual(large) <= unclipped_residual(small) + 1e-12


def test_decompose_off_grid_bounded_by_single_atom_projection():
    delta = 0.3172                      # off the 16-point grid
    target = eval_nilsequence(PolynomialPhase((0.0, delta)), W)
    spec = DictionarySpec(step=1, freq_resolution=16, ridge=0.0)
    rep = decompose(target, 0.9, spec, GowersParams(order=2, shift_count=16))
    # independent oracle: projecting on the best single atom leaves
    # 1 - |geometric mean|^2
    best = 1.0
    for j in range(16):
        r = cmath.exp(2j * cmath.pi * (delta - j / 16))
        geo = (1 - r**W.length) / (1 - r) / W.length
        best = min(best, 1.0 - abs(geo) ** 2)
    assert rep.err2 <= best + 1e-9


# ---------------------------------------------------------------------------
# per-atom and per-row loops, kept as the slow oracles of the atom matrix and
# of the worst atom correlation
# ---------------------------------------------------------------------------

def _frac_row(c, multipliers) -> np.ndarray:
    """``frac(c q)`` for each integer q, in exact rationals."""
    fr = Fraction(c)
    return np.array([float(fr * int(q) % 1) for q in multipliers])


def _poly_fracs_per_atom(coefficients, ns):
    total = np.zeros(len(ns))
    for k, c in enumerate(coefficients):
        if c != 0.0:
            total += _frac_row(c, [int(n) ** k for n in ns])
    return np.mod(total, 1.0)


def _atom_row(atom, w: Window) -> np.ndarray:
    """One atom on its own, every term in exact rationals and Python
    integers."""
    ns = w.indices()
    if isinstance(atom, PolynomialPhase):
        return np.exp(2j * np.pi * _poly_fracs_per_atom(atom.coefficients, ns))
    if isinstance(atom, BracketPhase):
        alpha = Fraction(atom.alpha)
        cross_mult = [int(n) * math.floor(alpha * int(n)) for n in ns]
        total = _poly_fracs_per_atom((0.0, atom.linear, atom.quad), ns)
        total = np.mod(total + _frac_row(atom.cross, cross_mult), 1.0)
        return np.exp(2j * np.pi * total)
    # the orbit point of each n in the quotient, read by the character
    k1, k2 = atom.observable.horizontal
    points = [heis_reduce(heis_pow(atom.element, int(n)))[0] for n in ns]
    return np.array([complex(np.exp(2j * np.pi * (k1 * p.x + k2 * p.y)))
                     for p in points])


def _worst_atom_per_row(a_er: Signal, psi: np.ndarray) -> float:
    full = a_er.window.length
    worst = 0.0
    for row in psi:
        atom_signal = Signal(a_er.window, row)
        corr = abs(inner_product(a_er, atom_signal, full))
        denom = max(1.0, density_seminorm(atom_signal, full))
        worst = max(worst, corr / denom)
    return worst


@st.composite
def oracle_windows(draw):
    """Odd and even lengths at 0, at negative n, near |n| = 10^6 (where n^3
    still fits int64) and near 2^21 (where it does not)."""
    centre = draw(st.sampled_from((0, -500, 10**6, -10**6, 2**21)))
    start = centre + draw(st.integers(-40, 40))
    return Window(start, start + draw(st.integers(1, 97)))


# grid points j/Q for non-power-of-two and power-of-two Q, dyadic rationals
# with large denominators, and arbitrary floats
_COEFF = st.one_of(
    st.builds(lambda j, q: (j % q) / q, st.integers(0, 63),
              st.sampled_from((3, 5, 12, 16, 32))),
    st.builds(lambda j, e: j / 2.0**e, st.integers(0, 2**20), st.integers(20, 60)),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)
# alphas whose floor(alpha n), or n floor(alpha n), leaves int64 near 2^21
_BIG_ALPHAS = (2.0**40 + 0.5, 2.0**30 + 0.25, -3e5)
_HEISENBERG = st.builds(lambda x, y, z, k: HeisenbergOrbit(
    HeisenbergElement(x, y, z), HeisenbergObservable(horizontal=k)),
    _COEFF, _COEFF, _COEFF, st.sampled_from(((1, 0), (0, 1), (2, -1))))
_ATOM = st.one_of(
    st.lists(_COEFF, min_size=1, max_size=4).map(lambda c: PolynomialPhase(tuple(c))),
    st.builds(BracketPhase, _COEFF, _COEFF,
              st.one_of(_COEFF, st.sampled_from(_BIG_ALPHAS)), _COEFF),
    _HEISENBERG,
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_ATOM, min_size=1, max_size=8, unique=True), oracle_windows())
def test_atom_matrix_matches_per_atom_oracle(atoms, w):
    psi = atom_matrix(Dictionary(tuple(atoms)), w)
    expected = np.array([_atom_row(atom, w) for atom in atoms])
    assert np.array_equal(psi, expected)  # bit for bit
    for atom, row in zip(atoms, expected):
        assert np.array_equal(eval_nilsequence(atom, w).values, row)


@settings(max_examples=60, deadline=None)
@given(_HEISENBERG, st.sampled_from((0, -300, 2**53, -2**53, 2**60, -2**61)),
       st.integers(-60, 60), st.integers(1, 64))
def test_heisenberg_row_matches_per_n_oracle(atom, centre, offset, length):
    """Far windows too: past 2^53, n * g.x is no longer exact in float64,
    and near 2^60 its exact numerator leaves int64."""
    w = Window(centre + offset, centre + offset + length)
    assert np.array_equal(eval_nilsequence(atom, w).values, _atom_row(atom, w))


_CUBE = PolynomialPhase((0.0, 0.0, 0.0, 1 - 2.0**-20))
_BRACKET = BracketPhase(0.0, 0.375, 2.0**30 + 0.25, 0.0)


# Windows on either side of 2^62, where exact evaluation leaves int64 for
# Python integers: (2^20 - 1) n^3 < 2^62 exactly for |n| <= 16384 (inside
# the denominator 2^20, so the window is not reduced mod 2^20 first), and
# n floor((2^30 + 1/4) n) < 2^62 exactly for 0 <= n <= 65535.  An int64
# wrap is a change mod 2^64, which leaves frac(c q) alone for every c with
# a denominator dividing 2^64; the last case reads floor(alpha n) through
# a cross coefficient with a larger denominator, so a wrapped floor shows.
@pytest.mark.parametrize("atom,start,end,below", [
    (_CUBE, 16360, 16385, True),
    (_CUBE, 16360, 16386, False),
    (_CUBE, -16384, -16360, True),
    (_CUBE, -16385, -16360, False),
    (_BRACKET, 65500, 65536, True),
    (_BRACKET, 65500, 65537, False),
    (BracketPhase(0.0, 1e-20, 2.0**40 + 0.5, 0.0), 2**22, 2**22 + 17, False),
])
def test_atom_rows_at_the_int64_switch(atom, start, end, below):
    top = max(abs(start), abs(end - 1))
    if atom is _CUBE:
        size = (2**20 - 1) * top**3
    else:
        size = top * math.floor(Fraction(atom.alpha) * top)
    assert (size < 2**62) == below
    w = Window(start, end)
    psi = atom_matrix(Dictionary((atom,)), w)
    assert np.array_equal(psi, np.array([_atom_row(atom, w)]))  # bit for bit
    assert np.array_equal(eval_nilsequence(atom, w).values, psi[0])


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(((1, None, 5), (2, None, 3), (2, (1,), 12), (3, (1, 3), 5))),
       st.booleans(), oracle_windows(), st.integers(0, 2**32))
def test_grid_dictionary_matches_per_atom_oracle(spec_args, brackets, w, seed):
    step, degrees, q = spec_args
    spec = DictionarySpec(step=step, degrees=degrees, freq_resolution=q,
                          include_brackets=brackets and step >= 2)
    dictionary = build_dictionary(spec)
    psi = atom_matrix(dictionary, w)
    expected = np.array([_atom_row(atom, w) for atom in dictionary.atoms])
    assert np.array_equal(psi, expected)  # bit for bit
    # the worst atom correlation is one matrix-vector product; it sums in
    # another order than the per-row means, so it agrees to rounding, judged
    # against the size of the residual for residuals near zero
    if w.length < 8:
        return
    rng = np.random.default_rng(seed)
    target = Signal(w, np.exp(2j * np.pi * rng.random(w.length)), 1.0)
    rep = decompose(target, 0.5, spec, GowersParams(order=2, shift_count=3))
    slow = _worst_atom_per_row(rep.a_er, psi)
    scale = max(slow, float(np.mean(np.abs(rep.a_er.values))))
    assert abs(rep.max_atom_correlation - slow) <= 1e-12 * scale


def test_worst_atom_correlation_of_an_exact_member():
    # the residual of an on-grid target is rounding noise; both forms of the
    # worst correlation must still agree at the scale of that noise
    target = grid_atom(3, 8)
    spec = DictionarySpec(step=1, freq_resolution=8, ridge=0.0)
    rep = decompose(target, 0.5, spec, GowersParams(order=2, shift_count=8))
    slow = _worst_atom_per_row(rep.a_er, atom_matrix(build_dictionary(spec), W))
    assert rep.max_atom_correlation < 1e-12
    assert abs(rep.max_atom_correlation - slow) <= 1e-12 * max(
        slow, float(np.mean(np.abs(rep.a_er.values))))
