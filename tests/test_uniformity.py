"""Tests for the seminorm recursion, the cyclic oracle, and the difference
checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilseqlab import (
    GowersParams,
    PolynomialPhase,
    Signal,
    Window,
    anti_uniformity_ratio,
    constant_signal,
    cyclic_gowers_oracle,
    eval_nilsequence,
    ghk_seminorm,
    vdc_defect,
)
from nilseqlab.signals import sliding_window_sums

# regression target computed from the closed-form geometric-sum oracle
# (derivatives of the quadratic phase are linear phases; the level-1 value is
# |sin(pi theta L) / (L sin(pi theta))| with theta = frac(2 gamma h))
QUADRATIC_PHASE_VALUE_N4096_H64 = 0.043333672636


def test_constant_fixed_point():
    for order in (1, 2, 3, 4):
        sig = constant_signal(0.6 - 0.3j, Window(0, 256))
        rep = ghk_seminorm(sig, GowersParams(order=order, shift_count=12))
        assert rep.value == pytest.approx(abs(0.6 - 0.3j), abs=1e-12)


def test_linear_phase_order2_is_one():
    sig = eval_nilsequence(PolynomialPhase((0.327, 0.61803)), Window(0, 2048))
    rep = ghk_seminorm(sig, GowersParams(order=2, shift_count=45))
    assert rep.value == pytest.approx(1.0, abs=1e-9)


def test_quadratic_phase_regression_value():
    gamma = float(np.sqrt(2.0))
    sig = eval_nilsequence(PolynomialPhase((0.0, 0.0, gamma)), Window(0, 4096))
    rep = ghk_seminorm(sig, GowersParams(order=2, shift_count=64, scale=4096 - 64))
    assert rep.value < 0.25
    assert rep.value == pytest.approx(QUADRATIC_PHASE_VALUE_N4096_H64, rel=1e-6)


def test_order1_equals_uniform_cesaro():
    rng = np.random.default_rng(1)
    sig = Signal(Window(0, 500), rng.normal(size=500) + 1j * rng.normal(size=500))
    rep = ghk_seminorm(sig, GowersParams(order=1, scale=100))
    # oracle: one direct mean per start, which rounds unlike prefix sums
    brute = max(abs(np.mean(sig.values[k:k + 100])) for k in range(401))
    assert rep.value == pytest.approx(brute, rel=1e-12)
    assert rep.per_level == ()


def test_report_structure():
    sig = constant_signal(1.0, Window(0, 128))
    rep = ghk_seminorm(sig, GowersParams(order=3, shift_count=5, scale=64))
    assert rep.shift_count == 5 and rep.scale == 64
    assert len(rep.per_level) == 2
    assert len(rep.per_level[1]) == 5          # level-2 children
    assert len(rep.per_level[0]) == 25         # level-1 grandchildren
    d = rep.to_json_dict()
    assert set(d) == {"value", "order", "H", "L", "per_level"}


def test_default_parameters():
    sig = constant_signal(1.0, Window(0, 4096))
    rep = ghk_seminorm(sig, GowersParams(order=2))
    assert rep.shift_count == 64
    assert rep.scale == 4096 - 64


def test_modulation_invariance_order2():
    rng = np.random.default_rng(7)
    base = Signal(Window(0, 512), np.exp(2j * np.pi * rng.random(512)), 1.0)
    p = GowersParams(order=2, shift_count=20)
    plain = ghk_seminorm(base, p).value
    for theta in (0.1234, 0.777, 1 / 3):
        phase = eval_nilsequence(PolynomialPhase((0.0, theta)), base.window).values
        modulated = Signal(base.window, base.values * phase, base.bound)
        assert ghk_seminorm(modulated, p).value == pytest.approx(plain, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.complex_numbers(max_magnitude=3.0, min_magnitude=0.01,
                          allow_nan=False, allow_infinity=False),
       st.integers(min_value=0, max_value=10**6))
def test_scaling_homogeneity(c, seed):
    rng = np.random.default_rng(seed)
    vals = np.exp(2j * np.pi * rng.random(128))
    sig = Signal(Window(0, 128), vals)
    p = GowersParams(order=2, shift_count=8)
    scaled = ghk_seminorm(sig.scale(c), p).value
    assert scaled == pytest.approx(abs(c) * ghk_seminorm(sig, p).value, rel=1e-12)


def test_unimodular_bounded_by_one():
    rng = np.random.default_rng(13)
    sig = Signal(Window(0, 300), np.exp(2j * np.pi * rng.random(300)), 1.0)
    for order in (1, 2, 3):
        rep = ghk_seminorm(sig, GowersParams(order=order, shift_count=8))
        assert rep.value <= 1.0 + 1e-12


def test_insufficient_window_error():
    sig = constant_signal(1.0, Window(0, 64))
    with pytest.raises(ValueError, match="insufficient window"):
        ghk_seminorm(sig, GowersParams(order=3, shift_count=30, scale=32))
    with pytest.raises(ValueError, match="below window length"):
        ghk_seminorm(sig, GowersParams(order=2, shift_count=64))


# ---------------------------------------------------------------------------
# cyclic oracle
# ---------------------------------------------------------------------------

def test_cyclic_single_character():
    N = 32
    for k in (0, 1, 7):
        f = np.exp(2j * np.pi * k * np.arange(N) / N)
        assert cyclic_gowers_oracle(f, 2) == pytest.approx(1.0, abs=1e-12)


def test_cyclic_two_frequency_value():
    N = 64
    n = np.arange(N)
    f = (np.exp(2j * np.pi * 3 * n / N) + np.exp(2j * np.pi * 11 * n / N)) / np.sqrt(2)
    assert cyclic_gowers_oracle(f, 2) == pytest.approx(2.0 ** -0.25, abs=1e-9)


def test_cyclic_constant_all_orders():
    f = np.ones(16, dtype=complex)
    for order in (1, 2, 3, 4):
        assert cyclic_gowers_oracle(f, order) == pytest.approx(1.0, abs=1e-9)


def test_cyclic_brute_matches_fourier():
    rng = np.random.default_rng(3)
    f = np.exp(2j * np.pi * rng.random(24))
    assert cyclic_gowers_oracle(f, 2, method="brute") == pytest.approx(
        cyclic_gowers_oracle(f, 2, method="fourier"), abs=1e-12
    )


def test_cyclic_monotone_in_order():
    rng = np.random.default_rng(4)
    for _ in range(3):
        f = np.exp(2j * np.pi * rng.random(16))
        u1 = cyclic_gowers_oracle(f, 1)
        u2 = cyclic_gowers_oracle(f, 2)
        u3 = cyclic_gowers_oracle(f, 3)
        assert u1 <= u2 + 1e-12
        assert u2 <= u3 + 1e-12


def test_cyclic_budget_errors():
    f = np.ones(128, dtype=complex)
    with pytest.raises(ValueError, match="too large"):
        cyclic_gowers_oracle(f, 3)
    with pytest.raises(ValueError, match="Fourier identity"):
        cyclic_gowers_oracle(np.ones(8, dtype=complex), 3, method="fourier")


# ---------------------------------------------------------------------------
# van der Corput defect
# ---------------------------------------------------------------------------

def test_vdc_constant_vector_family():
    v = np.array([0.6, -0.8j, 0.0])
    vectors = np.tile(v, (50, 1))
    rep = vdc_defect(vectors, 10)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == pytest.approx(4.0, abs=1e-12)
    assert rep.defect == pytest.approx(3.0 * rep.lhs, abs=1e-12)


def test_vdc_alternating_scalars():
    N = 256
    v = np.where(np.arange(N) % 2 == 0, 1.0 + 0j, -1.0 + 0j)
    rep = vdc_defect(v, 16)
    assert rep.lhs == 0.0
    assert rep.rhs == pytest.approx(4.0, abs=1e-12)
    assert rep.defect == pytest.approx(4.0, abs=1e-12)


def test_vdc_seeded_noise_regression():
    rng = np.random.default_rng(42)
    v = np.exp(2j * np.pi * rng.random(4096))
    rep = vdc_defect(v, 64)
    assert rep.defect >= -0.05
    # frozen values from the recorded seed-42 run
    assert rep.lhs == pytest.approx(1.590352477232e-04, rel=1e-9)
    assert rep.rhs == pytest.approx(0.061183826977, rel=1e-9)


def test_vdc_errors():
    with pytest.raises(ValueError, match="dimension mismatch"):
        vdc_defect([[1.0, 2.0], [1.0]], 1)
    with pytest.raises(ValueError):
        vdc_defect(np.ones(10), 10)


# ---------------------------------------------------------------------------
# anti-uniformity ratio
# ---------------------------------------------------------------------------

def test_anti_uniformity_constant_b():
    rng = np.random.default_rng(8)
    w = Window(0, 1024)
    a = Signal(w, np.exp(2j * np.pi * rng.random(1024)), 1.0)
    b = constant_signal(1.0, w)
    rep = anti_uniformity_ratio(a, b, GowersParams(order=1, shift_count=16))
    assert rep.bound == pytest.approx(4.0, abs=1e-12)
    assert rep.correlation <= 1.0 + 1e-12
    assert rep.ratio <= 0.25 + 1e-12


def test_anti_uniformity_conjugate_of_linear_phase():
    w = Window(0, 2048)
    a = eval_nilsequence(PolynomialPhase((0.0, 0.2137)), w)
    rep = anti_uniformity_ratio(a, a.conj(), GowersParams(order=2, shift_count=32))
    assert rep.correlation == pytest.approx(1.0, abs=1e-9)
    assert rep.bound == pytest.approx(4.0, abs=1e-9)
    assert rep.ratio == pytest.approx(0.25, abs=1e-9)


def test_anti_uniformity_noise_b_below_one():
    rng = np.random.default_rng(99)
    w = Window(0, 4096)
    a = eval_nilsequence(PolynomialPhase((0.0, 0.377)), w)
    b = Signal(w, np.exp(2j * np.pi * rng.random(4096)), 1.0)
    rep = anti_uniformity_ratio(a, b, GowersParams(order=2, shift_count=64))
    assert rep.ratio < 1.0


def test_anti_uniformity_zero_bound_flag():
    w = Window(0, 512)
    a = constant_signal(1.0, w)
    b = constant_signal(0.0, w)
    rep = anti_uniformity_ratio(a, b, GowersParams(order=2, shift_count=8))
    assert rep.bound == 0.0
    assert math.isinf(rep.ratio) and rep.unbounded


# ---------------------------------------------------------------------------
# the per-leaf recursion, kept as the slow oracle of the batched leaf level
# ---------------------------------------------------------------------------

def _seminorm_per_leaf(values, level, H, L, collected):
    if level == 1:
        sums = sliding_window_sums(values, L)
        return float(np.max(np.abs(sums))) / L
    powers = np.empty(H, dtype=float)
    for h in range(1, H + 1):
        derived = values[h:] * np.conj(values[:-h])
        child = _seminorm_per_leaf(derived, level - 1, H, L, collected)
        collected[level - 2].append(child)
        powers[h - 1] = child ** 2 ** (level - 1)
    return float(np.mean(powers)) ** (1.0 / 2 ** level)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(1, 9), st.integers(0, 2**32),
       st.sampled_from(("unimodular", "gaussian", "sparse")), st.data())
def test_seminorm_matches_per_leaf_oracle(order, H, seed, kind, data):
    """Odd and even H and L, short and long base scales, and signals whose
    derivatives vanish on stretches (sparse), at windows off the origin."""
    H = min(H, {2: 9, 3: 9, 4: 5, 5: 3}[order])
    length = data.draw(st.integers((order - 1) * H + 1, 160))
    L = data.draw(st.integers(1, length - (order - 1) * H))
    rng = np.random.default_rng(seed)
    if kind == "unimodular":
        values = np.exp(2j * np.pi * rng.random(length))
    elif kind == "gaussian":
        values = rng.normal(size=length) + 1j * rng.normal(size=length)
    else:
        values = np.where(rng.random(length) < 0.2, 1.0 + 0.5j, 0.0)
    start = data.draw(st.sampled_from((0, -length, 10**6)))
    report = ghk_seminorm(Signal(Window(start, start + length), values),
                          GowersParams(order, shift_count=H, scale=L))
    collected = [[] for _ in range(order - 1)]
    value = _seminorm_per_leaf(values, order, H, L, collected)
    assert report.value == value  # bit for bit
    assert report.per_level == tuple(tuple(level) for level in collected)
