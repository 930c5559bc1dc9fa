"""Tests for Heisenberg arithmetic, nilsequence atoms, and interpolation."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilseqlab import (
    BracketPhase,
    Dictionary,
    HeisenbergElement,
    HeisenbergObservable,
    HeisenbergOrbit,
    PolynomialPhase,
    Window,
    eval_nilsequence,
    heis_pow,
    heis_reduce,
    nilkey_reconstruct,
    torus_interpolate,
)


def exact_matrix_power(g: HeisenbergElement, n: int):
    """Independent oracle: binary-exponentiate the unitriangular 3x3 matrix
    in exact rational arithmetic and read off the coordinates."""
    def mat_mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )

    base = (
        (Fraction(1), Fraction(g.x), Fraction(g.z)),
        (Fraction(0), Fraction(1), Fraction(g.y)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )
    if n < 0:
        # inverse of the unitriangular matrix, exactly
        x, y, z = Fraction(g.x), Fraction(g.y), Fraction(g.z)
        base = (
            (Fraction(1), -x, -z + x * y),
            (Fraction(0), Fraction(1), -y),
            (Fraction(0), Fraction(0), Fraction(1)),
        )
        n = -n
    acc = (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )
    while n:
        if n & 1:
            acc = mat_mul(acc, base)
        base = mat_mul(base, base)
        n >>= 1
    return float(acc[0][1]), float(acc[1][2]), float(acc[0][2])


def test_heis_pow_fixed_cases():
    assert heis_pow(HeisenbergElement(1, 1, 0), 3) == HeisenbergElement(3, 3, 3)
    g = HeisenbergElement(0.3, -1.2, 0.77)
    assert heis_pow(g, 0) == HeisenbergElement(0, 0, 0)
    sq = heis_pow(g, 2)
    assert sq.x == pytest.approx(0.6)
    assert sq.y == pytest.approx(-2.4)
    assert sq.z == pytest.approx(2 * 0.77 + 0.3 * -1.2)


def test_heis_pow_matches_matrix_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        g = HeisenbergElement(*(rng.normal(size=3) * 2.0))
        n = int(rng.integers(-1000, 1001))
        closed = heis_pow(g, n)
        mx, my, mz = exact_matrix_power(g, n)
        assert abs(closed.x - mx) <= 1e-12
        assert abs(closed.y - my) <= 1e-12
        assert abs(closed.z - mz) <= 1e-12


def test_heis_group_law():
    g = HeisenbergElement(0.4, 0.9, -0.2)
    h = HeisenbergElement(-1.1, 0.3, 0.6)
    prod = g * h
    assert prod.z == pytest.approx(-0.2 + 0.6 + 0.4 * 0.3)
    ident = g * g.inverse()
    assert (ident.x, ident.y, ident.z) == pytest.approx((0, 0, 0), abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-200, max_value=200),
       st.tuples(*(st.floats(-5, 5) for _ in range(3))))
def test_heis_pow_consistent_with_multiplication(n, coords):
    g = HeisenbergElement(*coords)
    a = heis_pow(g, n + 1)
    b = heis_pow(g, n) * g
    assert abs(a.x - b.x) < 1e-9
    assert abs(a.y - b.y) < 1e-9
    assert abs(a.z - b.z) < 1e-9


def test_heis_reduce_examples():
    rep, gamma = heis_reduce(HeisenbergElement(1.5, 0.7, 2.3))
    assert (rep.x, rep.y) == pytest.approx((0.5, 0.7))
    assert rep.z == pytest.approx(0.3)
    assert (gamma.x, gamma.y, gamma.z) == (-1.0, 0.0, -2.0)

    inside = HeisenbergElement(0.2, 0.4, 0.9)
    rep, gamma = heis_reduce(inside)
    assert rep == inside
    assert gamma == HeisenbergElement(0, 0, 0)

    rep, gamma = heis_reduce(HeisenbergElement(0.0, -0.25, 0.0))
    assert (rep.x, rep.y, rep.z) == pytest.approx((0.0, 0.75, 0.0))
    assert (gamma.x, gamma.y, gamma.z) == (0.0, 1.0, 0.0)


@settings(max_examples=80, deadline=None)
@given(st.tuples(*(st.floats(-20, 20) for _ in range(3))))
def test_heis_reduce_range_and_roundtrip(coords):
    p = HeisenbergElement(*coords)
    rep, gamma = heis_reduce(p)
    for c in (rep.x, rep.y, rep.z):
        assert 0.0 <= c < 1.0
    assert gamma.x == int(gamma.x) and gamma.y == int(gamma.y)
    back = rep * gamma.inverse()
    assert abs(back.x - p.x) < 1e-12
    assert abs(back.y - p.y) < 1e-12
    assert abs(back.z - p.z) < 1e-10


def test_eval_polynomial_phase_quarter_rotation():
    sig = eval_nilsequence(PolynomialPhase((0.0, 0.25)), Window(0, 4))
    assert np.allclose(sig.values, [1, 1j, -1, -1j], atol=1e-15)


def test_eval_polynomial_phase_large_n_exact():
    # float evaluation of 0.3*n^3 would lose the fractional part up here
    w = Window(10**6, 10**6 + 4)
    sig = eval_nilsequence(PolynomialPhase((0.0, 0.0, 0.0, 0.3)), w)
    for n, v in zip(w.indices(), sig.values):
        frac = (Fraction(0.3) * int(n) ** 3) % 1
        assert abs(v - np.exp(2j * np.pi * float(frac))) < 1e-12


def test_eval_bracket_degenerates_to_linear():
    alpha = 0.37
    a = eval_nilsequence(BracketPhase(0.0, 0.0, 0.123, alpha), Window(0, 64))
    b = eval_nilsequence(PolynomialPhase((0.0, alpha)), Window(0, 64))
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_eval_bracket_uses_floor():
    atom = BracketPhase(0.0, 0.5, 0.5, 0.0)  # e^{pi i n floor(n/2)}
    sig = eval_nilsequence(atom, Window(0, 6))
    expected = [np.exp(1j * np.pi * n * (n // 2)) for n in range(6)]
    assert np.allclose(sig.values, expected, atol=1e-12)


def test_heisenberg_orbit_horizontal_character():
    g = HeisenbergElement(0.3137, 0.271, 0.99)
    k1, k2 = 2, -1
    orbit = HeisenbergOrbit(g, HeisenbergObservable(horizontal=(k1, k2)))
    w = Window(0, 200)
    sig = eval_nilsequence(orbit, w)
    # horizontal characters ignore z and see only n*(k1 x + k2 y) mod 1
    expected = eval_nilsequence(
        PolynomialPhase((0.0, 0.0)), w
    ).values * np.exp(
        2j * np.pi * np.mod(k1 * np.mod(g.x * w.indices(), 1.0)
                            + k2 * np.mod(g.y * w.indices(), 1.0), 1.0)
    )
    assert np.max(np.abs(sig.values - expected)) < 1e-9
    assert np.max(np.abs(np.abs(sig.values) - 1.0)) < 1e-12


def test_heisenberg_observable_validation():
    with pytest.raises(TypeError):
        HeisenbergObservable()


def test_torus_interpolate_examples():
    assert torus_interpolate([[0.5], [0.8]])[0] == pytest.approx(0.2)
    assert torus_interpolate([[0.5], [0.8], [0.1]])[0] == pytest.approx(0.2)
    # h = 0: all points equal g, coefficients sum to 1
    assert torus_interpolate([[0.31]] * 4)[0] == pytest.approx(0.31)
    with pytest.raises(ValueError):
        torus_interpolate([[0.1]])


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=5),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10**6))
def test_torus_interpolate_recovers_base_point(ell, d, seed):
    rng = np.random.default_rng(seed)
    g = rng.random(d)
    h = rng.random(d)
    points = [np.mod(i * h + g, 1.0) for i in range(1, ell + 1)]
    out = torus_interpolate(points)
    err = np.minimum(np.abs(out - g), 1.0 - np.abs(out - g))
    assert np.max(err) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.floats(0, 1), st.floats(0, 1),
       st.floats(0, 1))
def test_torus_interpolate_equivariant(ell, g, h, t):
    pts = [np.mod(np.array([i * h + g]), 1.0) for i in range(1, ell + 1)]
    shifted = [np.mod(p + t, 1.0) for p in pts]
    base = torus_interpolate(pts)[0]
    moved = torus_interpolate(shifted)[0]
    err = abs((moved - base - t) % 1.0)
    assert min(err, 1.0 - err) < 1e-10


def test_phase_atoms_unimodular():
    w = Window(0, 128)
    for atom in (PolynomialPhase((0.3, 0.7, 0.11)),
                 BracketPhase(0.2, 0.6, 0.41, 0.05)):
        sig = eval_nilsequence(atom, w)
        assert np.max(np.abs(np.abs(sig.values) - 1.0)) < 1e-12


def test_nilkey_reconstruct_identity():
    w = Window(0, 64)
    psi = PolynomialPhase((0.21, 0.6743))
    expected = eval_nilsequence(psi, w)
    for m in (1, 10, 100):
        got = nilkey_reconstruct(psi, m, w)
        assert np.max(np.abs(got.values - expected.values)) < 1e-9


def test_nilkey_reconstruct_m_independent():
    w = Window(0, 48)
    psi = PolynomialPhase((0.0, 0.318))
    one = nilkey_reconstruct(psi, 1, w)
    hundred = nilkey_reconstruct(psi, 100, w)
    assert np.max(np.abs(one.values - hundred.values)) < 1e-10


def test_nilkey_reconstruct_zero_point():
    w = Window(0, 16)
    psi = PolynomialPhase((0.4, 0.0))  # g0 = 0: constant F(0)
    got = nilkey_reconstruct(psi, 7, w)
    assert np.allclose(got.values, np.exp(2j * np.pi * 0.4), atol=1e-12)
    with pytest.raises(ValueError):
        nilkey_reconstruct(PolynomialPhase((0.0, 0.1, 0.2)), 1, w)


def test_dictionary_invariants():
    a1 = PolynomialPhase((0.0, 0.25))
    a2 = PolynomialPhase((0.0, 0.5))
    d = Dictionary((a1, a2))
    assert len(d) == 2 and d.labels[0] == a1.label
    with pytest.raises(ValueError, match="distinct"):
        Dictionary((a1, a1))
    with pytest.raises(ValueError):
        Dictionary(())
