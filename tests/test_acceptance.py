"""Acceptance gates: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the gate lines.
Scales follow the criteria: most gates run at window length 4096 with 64
shifts.  Gate 6b asserts that the quadratic-phase seminorm decays with the
window length: over N = 2^10..2^14 the geometric mean of the four
per-doubling ratios is at most 0.95, i.e. value(2^14) <= 0.95^4 value(2^10).
Decay at every single doubling is not promised: the exact values pinned in
gate 6a rise from 2^11 to 2^12 (ratio 1.0041), because one near-resonant
shift dominates the average and its Dirichlet-kernel term oscillates in L.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from nilseqlab import (
    AliasingError,
    CorrelationQuery,
    DictionarySpec,
    GowersParams,
    HeisenbergElement,
    PolynomialPhase,
    QuadratureSpec,
    Signal,
    ToralMap,
    TrigObservable,
    Window,
    anti_uniformity_ratio,
    character,
    class_distance,
    config_from_dict,
    corpus_generate,
    correlate_exact,
    correlate_numeric,
    cyclic_gowers_oracle,
    decompose,
    density_seminorm,
    diagonal_query,
    eval_nilsequence,
    ghk_seminorm,
    heis_pow,
    inner_product,
    nilkey_reconstruct,
    run_experiment,
    single_map_query,
    skew_spike_query,
    torus_interpolate,
    vdc_defect,
)
from nilseqlab.decomposition import atom_matrix, build_dictionary
from nilseqlab.systems import AffineToralSystem

N_DESK = 4096
W_DESK = Window(0, N_DESK)
H_DESK = 64


def gate(number: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- criterion 1 -------------------------------------------------------------

def _heis_matrix_power_oracle(g: HeisenbergElement, n: int):
    def mat_mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )

    x, y, z = Fraction(g.x), Fraction(g.y), Fraction(g.z)
    if n >= 0:
        base = ((Fraction(1), x, z), (Fraction(0), Fraction(1), y),
                (Fraction(0), Fraction(0), Fraction(1)))
    else:
        base = ((Fraction(1), -x, -z + x * y),
                (Fraction(0), Fraction(1), -y),
                (Fraction(0), Fraction(0), Fraction(1)))
        n = -n
    acc = ((Fraction(1), Fraction(0), Fraction(0)),
           (Fraction(0), Fraction(1), Fraction(0)),
           (Fraction(0), Fraction(0), Fraction(1)))
    while n:
        if n & 1:
            acc = mat_mul(acc, base)
        base = mat_mul(base, base)
        n >>= 1
    return float(acc[0][1]), float(acc[1][2]), float(acc[0][2])


def test_criterion_1_heisenberg_closed_form():
    fixed = heis_pow(HeisenbergElement(1, 1, 0), 3)
    ok = fixed == HeisenbergElement(3, 3, 3)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        g = HeisenbergElement(*(4.0 * rng.random(3) - 2.0))
        n = int(rng.integers(-1000, 1001))
        closed = heis_pow(g, n)
        mx, my, mz = _heis_matrix_power_oracle(g, n)
        worst = max(worst, abs(closed.x - mx), abs(closed.y - my),
                    abs(closed.z - mz))
    ok = ok and worst <= 1e-12
    gate("1", ok, f"1000 powers vs matrix oracle, worst error {worst:.2e}")


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_interpolation_identity():
    out = torus_interpolate([[0.5], [0.8], [0.1]])  # wraparound fixed case
    worst = abs(out[0] - 0.2)
    rng = np.random.default_rng(202)
    for _ in range(1000):
        ell = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        g = rng.random(d)
        h = rng.random(d)
        points = [np.mod(i * h + g, 1.0) for i in range(1, ell + 1)]
        rec = torus_interpolate(points)
        err = np.minimum(np.abs(rec - g), 1.0 - np.abs(rec - g))
        worst = max(worst, float(np.max(err)))
    gate("2", worst <= 1e-12, f"1000 recoveries, worst mod-1 error {worst:.2e}")


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_circle_reconstruction():
    rng = np.random.default_rng(303)
    w = Window(0, 48)
    worst = 0.0
    for _ in range(100):
        theta = float(rng.random())
        g0 = float(rng.random())
        psi = PolynomialPhase((theta, 2.0 * g0))
        expected = eval_nilsequence(psi, w)
        for m in (1, 10, 100):
            got = nilkey_reconstruct(psi, m, w)
            worst = max(worst, float(np.max(np.abs(got.values - expected.values))))
    # counterfactual: pairing the averages with exponents (1, 1) instead of
    # (2, 1) leaves an m-dependent integrand and misses psi
    theta, g0 = 0.21, 0.377
    psi = PolynomialPhase((theta, 2.0 * g0))
    w2 = Window(0, 16)
    ns = w2.indices()
    wrong = np.zeros(16, dtype=complex)
    for m in range(1, 11):
        v1 = np.mod((m + ns) * g0, 1.0)
        v2 = np.mod((2 * m + ns) * g0, 1.0)
        wrong += np.exp(2j * np.pi * (np.mod(2 * v1 - v2, 1.0) + theta))
    wrong /= 10
    mismatch = float(np.max(np.abs(wrong - eval_nilsequence(psi, w2).values)))
    ok = worst <= 1e-9 and mismatch > 1e-2
    gate("3", ok, f"100 reconstructions exact to {worst:.2e}; "
                  f"wrong exponents miss by {mismatch:.2f}")


# -- criterion 4 -------------------------------------------------------------

def _engine_query_corpus():
    queries = []
    rng = np.random.default_rng(404)
    for _ in range(5):  # rotation pairs on the circle
        a, b = rng.random(), rng.random()
        system = AffineToralSystem.from_pairs(1, [(((1,),), (a,)),
                                                  (((1,),), (b,))])
        queries.append(diagonal_query(system, [character((1,)),
                                               character((-1,))]))
    for _ in range(4):  # commuting translation pairs on the 2-torus
        al = (rng.random(), rng.random())
        be = (rng.random(), rng.random())
        eye = ((1, 0), (0, 1))
        system = AffineToralSystem.from_pairs(2, [(eye, al), (eye, be)])
        queries.append(diagonal_query(
            system, [character((1, -1)), character((-1, 1))]))
    for _ in range(4):  # skew products, spike-type
        n_star = int(rng.integers(4, 40))
        k2 = int(rng.integers(1, 3))
        k1 = int(rng.integers(-2, 3))
        queries.append(skew_spike_query(float(rng.random()), k1,
                                        n_star * k2 - k1, k2))
    for _ in range(4):  # quadratic iterates of a rotation
        alpha = float(rng.random())
        system = AffineToralSystem.from_pairs(1, [(((1,),), (alpha,))])
        queries.append(CorrelationQuery(
            system, (character((1,)), character((-1,))),
            (((0, 0, 1), (0, 1)),)))
    for _ in range(3):  # single-map queries with exponents (2, 1)
        alpha = float(rng.random())
        system = AffineToralSystem.from_pairs(1, [(((1,),), (alpha,))])
        m = int(rng.integers(-2, 3))
        queries.append(single_map_query(
            system, [character((m,)), character((-m,))], [2, 1]))
    return queries


def test_criterion_4_engine_agreement():
    from nilseqlab import required_grid_size

    w = Window(0, 64)
    queries = _engine_query_corpus()
    assert len(queries) == 20
    worst = 0.0
    for q in queries:
        exact = correlate_exact(q, w)
        needed = required_grid_size(q, w)
        numeric = correlate_numeric(q, w, QuadratureSpec(max(needed, 2)))
        worst = max(worst, float(np.max(np.abs(exact.values - numeric.values))))
    refused = False
    spike = skew_spike_query(0.41, 1, 39, 1)
    try:
        correlate_numeric(spike, w, QuadratureSpec(8))
    except AliasingError:
        refused = True
    ok = worst <= 1e-10 and refused
    gate("4", ok, f"20 queries agree to {worst:.2e}; aliased grid refused: {refused}")


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_seminorm_identities():
    checks = []
    w = Window(0, 512)
    for order in (1, 2, 3, 4):
        rep = ghk_seminorm(Signal(w, np.full(512, 0.3 - 0.4j), 0.5),
                           GowersParams(order=order, shift_count=10))
        checks.append(abs(rep.value - 0.5) <= 1e-12)
    lin = eval_nilsequence(PolynomialPhase((0.123, 0.7321)), Window(0, 2048))
    rep = ghk_seminorm(lin, GowersParams(order=2, shift_count=45))
    checks.append(abs(rep.value - 1.0) <= 1e-9)

    rng = np.random.default_rng(505)
    base = Signal(Window(0, 512), np.exp(2j * np.pi * rng.random(512)), 1.0)
    p2 = GowersParams(order=2, shift_count=16)
    v0 = ghk_seminorm(base, p2).value
    phase = eval_nilsequence(PolynomialPhase((0.0, 0.4321)), base.window).values
    modulated = Signal(base.window, base.values * phase, base.bound)
    checks.append(abs(ghk_seminorm(modulated, p2).value - v0) <= 1e-9)
    checks.append(abs(ghk_seminorm(base.scale(0.25j), p2).value - 0.25 * v0) <= 1e-9)

    n = np.arange(64)
    two_freq = (np.exp(2j * np.pi * 5 * n / 64)
                + np.exp(2j * np.pi * 20 * n / 64)) / np.sqrt(2)
    val = cyclic_gowers_oracle(two_freq, 2)
    checks.append(abs(val - 2.0 ** -0.25) <= 1e-9)
    f = np.exp(2j * np.pi * rng.random(24))
    checks.append(abs(cyclic_gowers_oracle(f, 2, method="brute")
                      - cyclic_gowers_oracle(f, 2, method="fourier")) <= 1e-9)
    gate("5", all(checks),
         f"constants/linear/modulation/scaling/Fourier identities "
         f"({sum(checks)}/{len(checks)} hold; U2 two-frequency = {val:.4f})")


# -- criterion 6 -------------------------------------------------------------

# closed-form geometric-sum oracle, evaluated once at 50-digit precision:
# derivative at shift h is a linear phase with frequency frac(2*sqrt(2)*h),
# whose subwindow mean has modulus |sin(pi theta L) / (L sin(pi theta))|,
# so value^4 = mean_{1<=h<=H} of its square, with H = isqrt(N), L = N - H.
# The values are not monotone in N.  From 2^11 to 2^14 the mean is
# dominated by the shift h = 35 (2*sqrt(2)*35 = 98.995, theta = 0.995),
# whose term |sin(pi theta L) / (L sin(pi theta))| oscillates in L: it is
# 0.0113 at L = 2003 and 0.0142 at L = 4032, which makes the 2^11 -> 2^12
# step a rise (ratio 1.0041).  The closed form rises again at 2^8 -> 2^9
# and 2^15 -> 2^16.  Only the average decays: 2*sqrt(2) is badly
# approximable, so value^4 ~ H / L^2 and value ~ N^(-3/8); the fitted
# log-log slope over the pinned scales is -0.43.
PINNED_DECAY = {
    10: 0.050514767144,
    11: 0.043156528161,
    12: 0.043333672636,
    13: 0.021481546622,
    14: 0.015932570321,
}


def _quadratic_decay_values():
    gamma = float(np.sqrt(2.0))
    out = {}
    for k, _ in PINNED_DECAY.items():
        n = 2**k
        sig = eval_nilsequence(PolynomialPhase((0.0, 0.0, gamma)), Window(0, n))
        out[k] = ghk_seminorm(sig, GowersParams(order=2)).value
    return out


def _quadratic_decay_closed_form(n: int) -> float:
    """The closed form above in float64, at the default H and L."""
    H = math.isqrt(n)
    L = n - H
    theta = np.mod(2.0 * np.sqrt(2.0) * np.arange(1, H + 1), 1.0)
    kernel = np.sin(np.pi * theta * L) / (L * np.sin(np.pi * theta))
    return float(np.mean(kernel ** 2)) ** 0.25


def test_criterion_6a_decay_values_pinned():
    values = _quadratic_decay_values()
    worst = max(abs(values[k] - PINNED_DECAY[k]) / PINNED_DECAY[k]
                for k in PINNED_DECAY)
    closed = max(abs(_quadratic_decay_closed_form(2**k) - PINNED_DECAY[k])
                 / PINNED_DECAY[k] for k in PINNED_DECAY)
    gate("6a", worst <= 0.01 and closed <= 1e-9,
         f"five pinned decay values reproduced within {worst:.2e} relative "
         f"(float64 closed form within {closed:.2e})")


def test_criterion_6b_decay_monotone():
    values = _quadratic_decay_values()
    seq = [values[k] for k in sorted(values)]
    ratios = [b / a for a, b in zip(seq, seq[1:])]
    # the product of the ratios telescopes to seq[-1] / seq[0]
    mean_ratio = (seq[-1] / seq[0]) ** (1.0 / len(ratios))
    gate("6b", mean_ratio <= 0.95,
         f"geometric mean per-doubling ratio {mean_ratio:.4f} (bound 0.95); "
         "per-doubling ratios " + ", ".join(f"{r:.4f}" for r in ratios)
         + " (values " + ", ".join(f"{v:.6f}" for v in seq) + ")")


# -- criterion 7 -------------------------------------------------------------

def _vdc_corpus():
    rng = np.random.default_rng(707)
    ns = W_DESK.indices()
    yield "constant", np.full(N_DESK, 0.8 + 0.1j)
    yield "alternating", np.where(ns % 2 == 0, 1.0 + 0j, -1.0 + 0j)
    yield "linear phase", eval_nilsequence(
        PolynomialPhase((0.0, 0.43211)), W_DESK).values
    yield "quadratic phase", eval_nilsequence(
        PolynomialPhase((0.0, 0.0, float(np.sqrt(2.0)))), W_DESK).values
    yield "noise", np.exp(2j * np.pi * rng.random(N_DESK))
    for entry in corpus_generate("B", 2, 71, W_DESK, count=3):
        yield entry.label, entry.signal.values
    for entry in corpus_generate("C", 2, 72, W_DESK, count=3):
        yield entry.label, entry.signal.values


def test_criterion_7_vdc_defect():
    worst = math.inf
    worst_label = ""
    for label, values in _vdc_corpus():
        rep = vdc_defect(values, H_DESK)
        if rep.defect < worst:
            worst, worst_label = rep.defect, label
    const_vec = vdc_defect(np.tile(np.array([0.3, 0.4j, -0.5]), (256, 1)), 32)
    exact = abs(const_vec.defect - 3.0 * const_vec.lhs) <= 1e-12
    ok = worst >= -0.05 and exact
    gate("7", ok, f"worst defect {worst:.4f} ({worst_label}); "
                  f"constant family defect = 3*lhs exactly: {exact}")


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_anti_uniformity():
    rng = np.random.default_rng(808)
    params = GowersParams(order=2, shift_count=H_DESK)
    atoms = [eval_nilsequence(PolynomialPhase((0.0, 17 / 64)), W_DESK),
             eval_nilsequence(PolynomialPhase((0.25, 0.709)), W_DESK)]
    worst = 0.0
    entries = corpus_generate("C", 2, 81, W_DESK, count=20,
                              variant="rotations")
    for entry in entries:
        a = entry.signal
        partners = [a.conj()] + atoms + [
            Signal(W_DESK, np.exp(2j * np.pi * rng.random(N_DESK)), 1.0)
        ]
        for b in partners:
            rep = anti_uniformity_ratio(a, b, params)
            worst = max(worst, rep.ratio)
    gate("8", worst <= 1.05,
         f"20 systems x 4 partners, worst correlation/bound ratio {worst:.4f}")


# -- criterion 9 -------------------------------------------------------------

def _two_spike_query(alpha: float, n1: int, n2: int):
    """Correlation with two unimodular half-height spikes at n1 and n2."""
    skew = ToralMap(((1, 0), (1, 1)), (alpha, 0.0))
    f1 = TrigObservable((((n1 - 1, 1), 0.5), ((n2 - 1, 1), 0.5)))
    f2 = TrigObservable((((1, -1), 1.0),))
    return CorrelationQuery(AffineToralSystem(2, (skew,)), (f1, f2),
                            (((0, 1), (0, 2)),))


def _check_decomposition(target, spec, note, checks):
    rep = decompose(target, 0.1, spec,
                    GowersParams(order=2, shift_count=H_DESK))
    dictionary = build_dictionary(spec)
    psi = atom_matrix(dictionary, target.window)
    combo = rep.coefficients @ psi
    pointwise_ok = bool(np.all(
        np.abs(target.values - rep.a_st.values)
        <= np.abs(target.values - combo) + 1e-12
    ))
    checks.append((f"{note}: clipping contraction pointwise", pointwise_ok))
    checks.append((f"{note}: residual orthogonality {rep.max_atom_correlation:.2e}",
                   rep.max_atom_correlation <= 1e-8))
    additive = float(np.max(np.abs(
        rep.a_st.values + rep.a_er.values - target.values)))
    checks.append((f"{note}: a_st + a_er = a ({additive:.1e})", additive <= 1e-9))
    return rep


def test_criterion_9_decomposition():
    spec = DictionarySpec(step=1, freq_resolution=64, ridge=0.0)
    checks = []

    for entry in corpus_generate("C", 2, 91, W_DESK, count=3,
                                 variant="rotations", freq_grid=64):
        rep = _check_decomposition(entry.signal, spec, "on-grid", checks)
        checks.append((f"on-grid err2 {rep.err2:.2e}", rep.err2 <= 1e-6))

    for entry in corpus_generate("C", 2, 92, W_DESK, count=2,
                                 variant="rotations"):
        rep = _check_decomposition(entry.signal, spec, "off-grid", checks)
        delta = (entry.params["alpha"] - entry.params["beta"]) % 1.0
        best = 1.0
        for j in range(64):  # independent geometric-sum projection bound
            r = cmath.exp(2j * cmath.pi * (delta - j / 64))
            geo = 1.0 if abs(1 - r) < 1e-15 else (1 - r**N_DESK) / (1 - r) / N_DESK
            best = min(best, 1.0 - abs(geo) ** 2)
        checks.append((f"off-grid err2 {rep.err2:.4f} <= bound {best:.4f}",
                       rep.err2 <= best + 1e-9))

    one_spike = correlate_exact(skew_spike_query(0.37, 1, 999, 1), W_DESK)
    rep = _check_decomposition(one_spike, spec, "1-spike", checks)
    checks.append((f"1-spike err2 {rep.err2:.2e} <= {2 / N_DESK:.2e}",
                   rep.err2 <= 2 * 1 / N_DESK))
    two_spike = correlate_exact(_two_spike_query(0.29, 700, 2900), W_DESK)
    rep = _check_decomposition(two_spike, spec, "2-spike", checks)
    checks.append((f"2-spike err2 {rep.err2:.2e} <= {4 / N_DESK:.2e}",
                   rep.err2 <= 2 * 2 / N_DESK))

    failed = [label for label, ok in checks if not ok]
    gate("9", not failed,
         f"{len(checks)} decomposition checks pass" if not failed
         else f"failed: {failed}")


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_class_distances():
    entries = corpus_generate("C", 2, 105, W_DESK, count=10,
                              variant="rotations", freq_grid=64)
    worst = 0.0
    for entry in entries:
        res = class_distance(entry.signal, "A", 2, budget=66, scale=N_DESK,
                             seed=1, freq_grid=64)
        worst = max(worst, res.best_distance)
    rng = np.random.default_rng(1005)
    noise = Signal(W_DESK, np.exp(2j * np.pi * rng.random(N_DESK)), 1.0)
    controls = {}
    for family, budget in (("A", 66), ("B", 8), ("C", 8)):
        controls[family] = class_distance(noise, family, 2, budget=budget,
                                          scale=N_DESK, seed=2,
                                          freq_grid=64).best_distance
    control_ok = all(abs(d - 1.0) <= 0.05 for d in controls.values())
    ok = worst <= 1e-3 and control_ok
    gate("10", ok,
         f"10 rotation targets within {worst:.2e} of the 1-step class; "
         f"noise controls {({k: round(v, 3) for k, v in controls.items()})}")


# -- criterion 11 ------------------------------------------------------------

def test_criterion_11_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("NILSEQLAB_CACHE_DIR", str(tmp_path / "cache"))
    configs = [
        {
            "kind": "gowers",
            "window": {"start": 0, "end": 1024},
            "params": {"target": {"kind": "quadratic_phase",
                                  "gamma": 1.4142135623730951},
                       "order": 2, "H": 32},
            "seed": 11,
        },
        {
            "kind": "decompose",
            "window": {"start": 0, "end": 512},
            "params": {"target": {"kind": "corpus", "family": "C", "ell": 2,
                                  "index": 0, "variant": "rotations",
                                  "freq_grid": 16},
                       "order": 2, "epsilon": 0.1, "H": 16,
                       "dictionary": {"step": 1, "Q": 16}},
            "seed": 12,
        },
    ]
    identical = True
    for i, raw in enumerate(configs):
        cfg = config_from_dict(raw)
        r1 = run_experiment(cfg, tmp_path / f"a{i}")
        r2 = run_experiment(cfg, tmp_path / f"b{i}")
        assert r2.cache_hit
        for name in r1.artifacts:
            if (r1.out_dir / name).read_bytes() != (r2.out_dir / name).read_bytes():
                identical = False
    gate("11", identical, "reruns reproduce every artifact byte for byte")
