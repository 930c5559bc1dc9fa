"""Tests for windows, signals, averaging primitives, and serialization."""

from __future__ import annotations

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilseqlab import (
    Signal,
    Window,
    constant_signal,
    density_seminorm,
    inner_product,
    multiplicative_derivative,
    read_csv,
    signal_from,
    uniform_cesaro_mean,
    window_mean,
    write_csv,
)

TOL = 1e-9


def linear_phase(alpha: float, window: Window, theta: float = 0.0) -> Signal:
    return signal_from(
        lambda ns: np.exp(2j * np.pi * np.mod(alpha * ns + theta, 1.0)),
        window,
        1.0,
    )


def test_window_basics():
    w = Window(-5, 10)
    assert w.length == 15
    assert w.indices()[0] == -5
    assert w.contains(-5) and w.contains(9) and not w.contains(10)
    with pytest.raises(ValueError):
        Window(3, 3)
    assert Window(0, 10).intersect(Window(5, 20)) == Window(5, 10)
    assert Window(0, 4).intersect(Window(8, 9)) is None


def test_signal_bound_validation():
    w = Window(0, 4)
    Signal(w, np.ones(4), 1.0)
    with pytest.raises(ValueError):
        Signal(w, 2.0 * np.ones(4), 1.0)
    for bad in (np.nan, np.inf):  # non-finite values never meet a bound
        with pytest.raises(ValueError):
            Signal(Window(0, 3), [1.0, bad, 0.5], 1.0)
    with pytest.raises(ValueError):
        Signal(w, np.ones(3))


def test_signal_values_immutable():
    sig = constant_signal(1.0, Window(0, 8))
    with pytest.raises(ValueError):
        sig.values[0] = 0.0


def test_window_mean_examples():
    assert window_mean(constant_signal(1.0, Window(0, 100))) == 1.0
    alt = signal_from(lambda ns: np.where(ns % 2 == 0, 1.0, -1.0), Window(0, 100))
    assert window_mean(alt) == 0.0
    full_periods = linear_phase(0.25, Window(0, 8))
    assert abs(window_mean(full_periods)) < 1e-15


def test_uniform_cesaro_examples():
    assert uniform_cesaro_mean(constant_signal(0.5j, Window(0, 1000)), 64) == pytest.approx(0.5)
    alt = signal_from(lambda ns: np.where(ns % 2 == 0, 1.0, -1.0), Window(0, 10**4))
    assert uniform_cesaro_mean(alt, 100) == 0.0
    spike = np.zeros(10**4, dtype=complex)
    spike[50] = 1.0
    assert uniform_cesaro_mean(Signal(Window(0, 10**4), spike), 100) == pytest.approx(0.01)
    with pytest.raises(ValueError, match="scale too large"):
        uniform_cesaro_mean(constant_signal(1.0, Window(0, 8)), 9)


def test_density_seminorm_examples():
    w = Window(0, 10**4)
    unimodular = linear_phase(0.123, w)
    assert density_seminorm(unimodular, 500) == pytest.approx(1.0)
    tens = signal_from(lambda ns: np.where(ns % 10 == 0, 1.0, 0.0), w)
    assert density_seminorm(tens, 10**4) == pytest.approx(np.sqrt(0.1))
    spike = np.zeros(10**4, dtype=complex)
    spike[123] = 1.0
    assert density_seminorm(Signal(w, spike), 100) == pytest.approx(0.1)


def test_inner_product_examples():
    w = Window(0, 10**4)
    a = linear_phase(0.37, w)
    assert inner_product(a, a, 100) == pytest.approx(1.0)
    one = constant_signal(1.0, Window(0, 100))
    alt = signal_from(lambda ns: np.where(ns % 2 == 0, 1.0, -1.0), Window(0, 100))
    assert inner_product(one, alt, 100) == 0.0


def test_inner_product_geometric_bound():
    # oracle: direct geometric summation of e^{2 pi i 0.2 n} / N
    N = 10**4
    r = cmath.exp(2j * cmath.pi * 0.2)
    geo = (1 - r**N) / (1 - r) / N
    w = Window(0, N)
    got = inner_product(linear_phase(0.3, w), linear_phase(0.1, w), N)
    assert abs(got - geo) < 1e-12
    bound = 2.0 / (N * abs(1 - r))
    assert abs(got) <= bound


def test_inner_product_window_errors():
    a = constant_signal(1.0, Window(0, 10))
    b = constant_signal(1.0, Window(20, 30))
    with pytest.raises(ValueError, match="do not intersect"):
        inner_product(a, b, 1)
    c = constant_signal(1.0, Window(5, 30))
    with pytest.raises(ValueError, match="fewer than"):
        inner_product(a, c, 10)


def test_multiplicative_derivative_linear_phase():
    # derivative of a linear phase is the constant e^{2 pi i alpha h}
    alpha, h = 0.3721, 7
    a = linear_phase(alpha, Window(0, 256))
    d = multiplicative_derivative(a, h)
    assert d.window == Window(0, 256 - h)
    expected = cmath.exp(2j * cmath.pi * alpha * h)
    assert np.max(np.abs(d.values - expected)) < 1e-12
    assert d.bound == pytest.approx(1.0)


def test_multiplicative_derivative_quadratic_phase():
    # (n+h)^2 - n^2 = 2hn + h^2, so the derivative is a linear phase
    gamma, h = 0.1328125, 5  # dyadic, exact in float
    w = Window(0, 300)
    ns = w.indices()
    a = signal_from(lambda m: np.exp(2j * np.pi * np.mod(gamma * m * m, 1.0)), w)
    d = multiplicative_derivative(a, h)
    expected = np.exp(
        2j * np.pi * np.mod(gamma * (2 * h * ns[:-h] + h * h) % 1.0, 1.0)
    )
    assert np.max(np.abs(d.values - expected)) < 1e-10


def test_multiplicative_derivative_errors_and_identity():
    a = constant_signal(1.0, Window(0, 5))
    d = multiplicative_derivative(a, 2)
    assert np.all(d.values == 1.0)
    with pytest.raises(ValueError):
        multiplicative_derivative(a, 5)
    with pytest.raises(ValueError):
        multiplicative_derivative(a, 0)


complex_list = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(complex_list, complex_list)
def test_window_mean_additive(xs, ys):
    n = min(len(xs), len(ys))
    w = Window(0, n)
    a = Signal(w, np.array(xs[:n]))
    b = Signal(w, np.array(ys[:n]))
    assert window_mean(a + b) == pytest.approx(
        window_mean(a) + window_mean(b), abs=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(complex_list, complex_list)
def test_density_triangle_inequality_full_window(xs, ys):
    n = min(len(xs), len(ys))
    w = Window(0, n)
    a = Signal(w, np.array(xs[:n]))
    b = Signal(w, np.array(ys[:n]))
    lhs = density_seminorm(a + b, n)
    rhs = density_seminorm(a, n) + density_seminorm(b, n)
    assert lhs <= rhs + 1e-12


@settings(max_examples=60, deadline=None)
@given(complex_list, complex_list)
def test_inner_product_conjugate_symmetry_exact(xs, ys):
    n = min(len(xs), len(ys))
    w = Window(0, n)
    a = Signal(w, np.array(xs[:n]))
    b = Signal(w, np.array(ys[:n]))
    assert inner_product(a, b, n) == inner_product(b, a, n).conjugate()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=64), st.integers(min_value=1, max_value=20))
def test_derivative_unimodular_on_unimodular(n, h):
    if h >= n:
        h = n - 1
    rng = np.random.default_rng(n * 1000 + h)
    a = Signal(Window(0, n), np.exp(2j * np.pi * rng.random(n)), 1.0)
    d = multiplicative_derivative(a, h)
    assert np.max(np.abs(np.abs(d.values) - 1.0)) < 1e-12


def test_uniform_cesaro_bounded_by_sup():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=200) + 1j * rng.normal(size=200)
    a = Signal(Window(0, 200), vals)
    for L in (1, 7, 50, 200):
        assert uniform_cesaro_mean(a, L) <= a.sup_norm + 1e-12


def test_density_zero_iff_zero_at_full_window():
    w = Window(0, 50)
    zero = constant_signal(0.0, w)
    assert density_seminorm(zero, 50) == 0.0
    nearly = np.zeros(50, dtype=complex)
    nearly[17] = 1e-8
    assert density_seminorm(Signal(w, nearly), 50) > 0.0


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    w = Window(-3, 40)
    sig = Signal(w, rng.normal(size=43) + 1j * rng.normal(size=43))
    path = tmp_path / "sig.csv"
    write_csv(sig, path)
    back = read_csv(path)
    assert back.window == w
    assert np.array_equal(back.values, sig.values)

