"""Tests for windows, signals, averaging primitives, and serialization."""

from __future__ import annotations

import cmath
import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nilseqlab import (
    GowersParams,
    Signal,
    Window,
    constant_signal,
    density_seminorm,
    ghk_seminorm,
    inner_product,
    multiplicative_derivative,
    read_csv,
    write_csv,
)
from nilseqlab.signals import CSV_ROWS

TOL = 1e-9


def linear_phase(alpha: float, window: Window, theta: float = 0.0) -> Signal:
    ns = window.indices()
    return Signal(window, np.exp(2j * np.pi * np.mod(alpha * ns + theta, 1.0)), 1.0)


def alternating(window: Window) -> Signal:
    return Signal(window, np.where(window.indices() % 2 == 0, 1.0, -1.0))


def cesaro(a: Signal, scale: int) -> float:
    """The worst absolute subwindow mean: the order-1 seminorm."""
    return ghk_seminorm(a, GowersParams(order=1, scale=scale)).value


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


def test_uniform_cesaro_examples():
    assert cesaro(constant_signal(0.5j, Window(0, 1000)), 64) == pytest.approx(0.5)
    assert cesaro(alternating(Window(0, 10**4)), 100) == 0.0
    spike = np.zeros(10**4, dtype=complex)
    spike[50] = 1.0
    assert cesaro(Signal(Window(0, 10**4), spike), 100) == pytest.approx(0.01)
    with pytest.raises(ValueError, match="insufficient window"):
        cesaro(constant_signal(1.0, Window(0, 8)), 9)


def test_density_seminorm_examples():
    w = Window(0, 10**4)
    unimodular = linear_phase(0.123, w)
    assert density_seminorm(unimodular, 500) == pytest.approx(1.0)
    tens = Signal(w, np.where(w.indices() % 10 == 0, 1.0, 0.0))
    assert density_seminorm(tens, 10**4) == pytest.approx(np.sqrt(0.1))
    spike = np.zeros(10**4, dtype=complex)
    spike[123] = 1.0
    assert density_seminorm(Signal(w, spike), 100) == pytest.approx(0.1)


def test_inner_product_examples():
    w = Window(0, 10**4)
    a = linear_phase(0.37, w)
    assert inner_product(a, a, 100) == pytest.approx(1.0)
    one = constant_signal(1.0, Window(0, 100))
    assert inner_product(one, alternating(Window(0, 100)), 100) == 0.0


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
    a = Signal(w, np.exp(2j * np.pi * np.mod(gamma * ns * ns, 1.0)))
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
        assert cesaro(a, L) <= a.sup_norm + 1e-12


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


def _csv_writer_oracle(a: Signal, path) -> None:
    """The slow form of ``write_csv``: one ``csv.writer`` row per sample."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "re", "im"])
        for n, v in zip(a.window.indices(), a.values):
            writer.writerow([int(n), repr(float(v.real)), repr(float(v.imag))])


def _assert_csv_matches_oracle(sig: Signal, tmp_path) -> None:
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_csv(sig, fast)
    _csv_writer_oracle(sig, slow)
    assert fast.read_bytes() == slow.read_bytes()


_CSV_PARTS = (0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e16, 1e22, -1e22, 0.1, 0.2,
              1 / 3, 2.0**53 + 2, -1.5)


@pytest.mark.parametrize("start", [0, -10**6, 2**62 - CSV_ROWS - 3])
def test_write_csv_matches_csv_writer_oracle(start, tmp_path):
    # every pair of special parts as (re, im), over more than two slices
    pairs = [(x, y) for x in _CSV_PARTS for y in _CSV_PARTS]
    pairs += [(0.1, 0.2)] * (2 * CSV_ROWS + 5 - len(pairs))
    values = np.empty(len(pairs), dtype=complex)
    values.real, values.imag = np.array(pairs).T
    assert values[-1] == 0.1 + 0.2j and str(values[1].imag) == "-0.0"
    _assert_csv_matches_oracle(Signal(Window(start, start + len(values)), values),
                               tmp_path)


@settings(max_examples=40, deadline=None)
@given(values=arrays(np.complex128, st.integers(1, 2 * CSV_ROWS + 3),
                     elements=st.complex_numbers(allow_nan=False,
                                                 allow_infinity=False)),
       start=st.integers(-2**62, 2**62))
def test_write_csv_matches_oracle_on_random_arrays(values, start, tmp_path_factory):
    _assert_csv_matches_oracle(Signal(Window(start, start + len(values)), values),
                               tmp_path_factory.mktemp("csv"))

