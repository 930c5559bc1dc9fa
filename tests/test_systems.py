"""Tests for torus systems, the two correlation engines, and the corpora."""

from __future__ import annotations

import itertools
import math
import os
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilseqlab import (
    AffineToralSystem,
    AliasingError,
    BudgetError,
    CorrelationQuery,
    QuadratureSpec,
    Signal,
    ToralMap,
    Window,
    character,
    corpus_generate,
    correlate_exact,
    correlate_numeric,
    correlation_structure,
    diagonal_query,
    required_grid_size,
    single_map_query,
    skew_spike_query,
    validate_system,
)
from nilseqlab._exact import frac_part
from nilseqlab.systems import (
    FREQUENCY_GUARD,
    FrequencyOverflowError,
    TrigObservable,
    _slot_affines,
    generalized_binomial,
    map_power,
    poly_eval,
)

SKEW = ((1, 0), (1, 1))


def _split(affine):
    """(matrix, shift) of the affine matrix ``[[A, alpha], [0, 1]]``."""
    d = len(affine) - 1
    rows = affine[:d]
    return tuple(row[:d] for row in rows), tuple(row[d] for row in rows)


def _mat_vec_transposed(m, v):
    """``m^T v`` over the integers."""
    d = len(m)
    return tuple(sum(m[i][j] * v[i] for i in range(d)) for j in range(d))


def rotation_system(*alphas: float) -> AffineToralSystem:
    return AffineToralSystem.from_pairs(1, [(((1,),), (a,)) for a in alphas])


def test_generalized_binomial():
    assert generalized_binomial(5, 2) == 10
    assert generalized_binomial(3, 7) == 0
    assert generalized_binomial(-1, 3) == -1
    assert generalized_binomial(-2, 2) == 3
    # matches the product formula for a spread of integers
    for p in range(-6, 7):
        for k in range(5):
            prod = Fraction(1)
            for j in range(k):
                prod *= p - j
            prod /= math.factorial(k)
            assert generalized_binomial(p, k) == prod


def test_poly_eval():
    assert poly_eval((1, 2, 3), 10) == 1 + 20 + 300
    assert poly_eval((0, 1), -4) == -4
    assert poly_eval((7,), 100) == 7


def test_map_power_matches_repeated_composition():
    tm = ToralMap(SKEW, (0.3, 0.7))
    for p in (0, 1, 2, 3, 7, -1, -2, -5):
        mat, shift = _split(map_power(tm, p))
        # brute force by composing p times (inverse map for negative p)
        x = (Fraction(1, 3), Fraction(2, 7))
        ax = tuple(Fraction(s) for s in tm.shift)
        def apply_once(v, invert):
            if not invert:
                return (v[0] + ax[0], v[0] + v[1] + ax[1])
            return (v[0] - ax[0], v[1] - (v[0] - ax[0]) - ax[1])
        v = x
        for _ in range(abs(p)):
            v = apply_once(v, p < 0)
        direct = tuple(
            sum(Fraction(mat[i][j]) * x[j] for j in range(2)) + shift[i]
            for i in range(2)
        )
        assert direct == v


def test_validate_rotations_commute():
    report = validate_system(
        rotation_system(math.sqrt(2) - 1, math.sqrt(3) - 1)
    )
    assert report.valid and report.violations == ()


def test_validate_skew_and_rotation_commute():
    skew = ToralMap(SKEW, (0.345, 0.0))
    rot = ToralMap(((1, 0), (0, 1)), (0.0, 0.271))
    report = validate_system(AffineToralSystem(2, (skew, rot)))
    assert report.valid


def test_validate_rejects_non_unipotent():
    report = validate_system(AffineToralSystem.from_pairs(1, [(((2,),), (0.1,))]))
    assert not report.valid
    assert "not unipotent" in report.violations[0]


def test_validate_rejects_non_commuting():
    # two skews along different axes do not commute
    a = ToralMap(((1, 0), (1, 1)), (0.0, 0.0))
    b = ToralMap(((1, 1), (0, 1)), (0.0, 0.0))
    report = validate_system(AffineToralSystem(2, (a, b)))
    assert not report.valid
    assert any("do not commute" in v for v in report.violations)


def test_validate_rejects_incompatible_shifts():
    # same matrices (commute) but translations violate the affine condition
    skew1 = ToralMap(SKEW, (0.3, 0.0))
    skew2 = ToralMap(SKEW, (0.45, 0.0))
    report = validate_system(AffineToralSystem(2, (skew1, skew2)))
    assert not report.valid
    assert any("affine parts differ" in v for v in report.violations)


def test_correlate_rotations_closed_form():
    alpha, beta = 0.832, 0.1117
    q = diagonal_query(rotation_system(alpha, beta),
                       [character((1,)), character((-1,))])
    sig = correlate_exact(q, Window(0, 300))
    ns = np.arange(300)
    expected = np.exp(2j * np.pi * np.mod((alpha - beta) * ns, 1.0))
    assert np.max(np.abs(sig.values - expected)) < 1e-12


def test_correlate_identity_maps_constant():
    system = AffineToralSystem.from_pairs(
        1, [(((1,),), (0.0,)), (((1,),), (0.0,))]
    )
    f1 = TrigObservable((((1,), 0.5), ((0,), 0.25)))
    f2 = TrigObservable((((-1,), 1.0), ((0,), 0.5)))
    q = diagonal_query(system, [f1, f2])
    sig = correlate_exact(q, Window(0, 20))
    # integral of f1*f2: matching frequencies 1*(-1) and 0*0
    expected = 0.5 * 1.0 + 0.25 * 0.5
    assert np.allclose(sig.values, expected, atol=1e-14)


def test_correlate_skew_spike_location_and_phase():
    alpha, k1, k1p, k2 = 0.37, 2, 8, 2
    n0 = (k1 + k1p) // k2
    q = skew_spike_query(alpha, k1, k1p, k2)
    sig = correlate_exact(q, Window(0, 32))
    nonzero = np.nonzero(np.abs(sig.values) > 1e-12)[0]
    assert list(nonzero) == [n0]
    # push the characters through S^n and S^{2n} by hand:
    # shift of S^n is (n a, C(n,2) a); slot 2 carries exponent 2n
    phase = alpha * (
        k1 * n0 + k2 * math.comb(n0, 2)
        + k1p * 2 * n0 - k2 * math.comb(2 * n0, 2)
    )
    expected = np.exp(2j * np.pi * (phase % 1.0))
    assert abs(sig.values[n0] - expected) < 1e-9
    assert abs(abs(sig.values[n0]) - 1.0) < 1e-12


def test_correlate_sup_bound_holds():
    q = diagonal_query(
        rotation_system(0.21, 0.49),
        [TrigObservable((((1,), 0.5), ((2,), 0.5))),
         TrigObservable((((-1,), 0.7), ((-2,), 0.3)))],
    )
    sig = correlate_exact(q, Window(0, 128))
    assert sig.bound == pytest.approx(1.0)
    assert sig.sup_norm <= 1.0 + 1e-12


def test_correlate_requires_valid_system():
    bad = AffineToralSystem.from_pairs(1, [(((2,),), (0.1,))])
    q = diagonal_query(bad, [character((1,))])
    with pytest.raises(ValueError, match="invalid system"):
        correlate_exact(q, Window(0, 4))


def test_conjugation_invariance_zero_charge_query():
    # slots S^n and S^{2n} with x-only frequencies (a, 0), (-a, 0): the
    # translation-conjugated system produces the identical sequence
    alpha = 0.2931
    w = Window(0, 64)

    def build(shift2: float) -> CorrelationQuery:
        skew = ToralMap(SKEW, (alpha, shift2))
        return CorrelationQuery(
            AffineToralSystem(2, (skew,)),
            (character((3, 0)), character((-3, 0))),
            (((0, 1), (0, 2)),),
        )

    base = correlate_exact(build(0.0), w)
    assert np.ptp(np.abs(base.values)) < 1e-12  # unimodular, nonconstant phase
    # conjugating by c = (0, c2) replaces alpha by alpha + (A - I)c = (alpha, c2)
    for c2 in (0.125, 0.77):
        conj = correlate_exact(build(c2), w)
        assert np.max(np.abs(conj.values - base.values)) < 1e-12


def test_conjugation_with_translated_observables_exact():
    # general law: conjugating the system by a translation and translating
    # the observables reproduces the original sequence
    alpha, c = 0.41, (0.3, 0.6)
    w = Window(0, 48)
    skew = ToralMap(SKEW, (alpha, 0.0))
    freqs = [(1, 2), (-1, -2)]
    q = CorrelationQuery(
        AffineToralSystem(2, (skew,)),
        tuple(character(k) for k in freqs),
        (((0, 1), (0, 2)),),
    )
    base = correlate_exact(q, w)

    # A c - c = (0, c1) for the skew matrix; shift components must stay in [0,1)
    new_shift = (alpha, (0.0 + c[0]) % 1.0)
    translated = tuple(
        TrigObservable(((k, np.exp(2j * np.pi * (k[0] * c[0] + k[1] * c[1]))),))
        for k in freqs
    )
    q2 = CorrelationQuery(
        AffineToralSystem(2, (ToralMap(SKEW, new_shift),)),
        translated,
        (((0, 1), (0, 2)),),
    )
    conj = correlate_exact(q2, w)
    assert np.max(np.abs(conj.values - base.values)) < 1e-12


def test_numeric_matches_exact_rotation():
    q = diagonal_query(rotation_system(0.2137, 0.731),
                       [character((1,)), character((-1,))])
    w = Window(0, 96)
    exact = correlate_exact(q, w)
    numeric = correlate_numeric(q, w, QuadratureSpec(8))
    assert np.max(np.abs(exact.values - numeric.values)) < 1e-10


def test_numeric_refuses_aliased_grid():
    q = skew_spike_query(0.41, k1=1, k1p=59, k2=1)
    w = Window(0, 96)
    needed = required_grid_size(q, w)
    assert needed == 61  # worst combined x-frequency is |k1 + k1p - n k2| at n=0
    with pytest.raises(AliasingError, match="alias"):
        correlate_numeric(q, w, QuadratureSpec(32))
    exact = correlate_exact(q, w)
    good = correlate_numeric(q, w, QuadratureSpec(needed))
    assert np.max(np.abs(exact.values - good.values)) < 1e-10
    aliased = correlate_numeric(q, w, QuadratureSpec(32), allow_aliased=True)
    assert np.max(np.abs(exact.values - aliased.values)) > 0.5


def test_numeric_budget_error():
    q = diagonal_query(rotation_system(0.1), [character((1,))])
    with pytest.raises(BudgetError, match="budget"):
        correlate_numeric(q, Window(0, 64), QuadratureSpec(64), budget=1000)


def test_numeric_constant_observables():
    system = rotation_system(0.3, 0.7)
    q = diagonal_query(system, [character((0,), 0.5), character((0,), 0.8)])
    w = Window(0, 10)
    numeric = correlate_numeric(q, w, QuadratureSpec(4))
    assert np.allclose(numeric.values, 0.4, atol=1e-12)


def test_polynomial_iterates_degree_two():
    system = rotation_system(0.3)
    q = CorrelationQuery(system, (character((2,)), character((-2,))),
                         (((0, 0, 1), (0, 1)),))
    w = Window(0, 64)
    exact = correlate_exact(q, w)
    ns = w.indices()
    expected = np.exp(2j * np.pi * np.mod(0.6 * (ns * ns - ns) % 1.0, 1.0))
    assert np.max(np.abs(exact.values - expected)) < 1e-10
    numeric = correlate_numeric(q, w, QuadratureSpec(8))
    assert np.max(np.abs(exact.values - numeric.values)) < 1e-10


def test_iterate_degree_guard():
    system = rotation_system(0.3)
    with pytest.raises(ValueError, match="degree"):
        CorrelationQuery(system, (character((1,)),), (((0, 1, 0, 0, 0, 1),),))


def test_frequency_overflow_guard():
    # skew matrix power A^p has entry p; with p ~ 2^160 the pushed frequency
    # for a y-character passes the 2^127 sanity guard
    skew = ToralMap(SKEW, (0.3, 0.0))
    system = AffineToralSystem(2, (skew,))
    big = 2**32
    q = CorrelationQuery(system, (character((0, 1)),),
                         (((0, 0, 0, 0, big),),))
    with pytest.raises(FrequencyOverflowError, match="frequency overflow"):
        correlate_exact(q, Window(big, big + 2))


def test_negative_window_supported():
    q = diagonal_query(rotation_system(0.25, 0.125),
                       [character((1,)), character((-1,))])
    sig = correlate_exact(q, Window(-8, 8))
    ns = np.arange(-8, 8)
    expected = np.exp(2j * np.pi * np.mod(0.125 * ns, 1.0))
    assert np.max(np.abs(sig.values - expected)) < 1e-12


# ---------------------------------------------------------------------------
# the per-n engines, kept as the slow oracles of the closed-form exact
# engine and of the numeric engine's interpolated slot maps
# ---------------------------------------------------------------------------

def _guard_frequency(freq):
    if any(abs(v) > FREQUENCY_GUARD for v in freq):
        raise FrequencyOverflowError(
            "frequency overflow: component exceeds 2^127"
        )


def _correlate_per_n(q: CorrelationQuery, w: Window) -> Signal:
    """For each n, push every term through the exact slot maps, enumerate
    the term combinations and keep those whose total frequency vanishes."""
    q.require_valid()
    values = np.zeros(w.length, dtype=np.complex128)
    term_lists = [obs.terms for obs in q.observables]
    for idx, n in enumerate(range(w.start, w.end)):
        affines = map(_split, _slot_affines(q, n))
        pushed = []
        for (mat, shift), terms in zip(affines, term_lists):
            slot = []
            for freq, coeff in terms:
                new_freq = _mat_vec_transposed(mat, freq)
                _guard_frequency(new_freq)
                phase = sum(Fraction(k) * s for k, s in zip(freq, shift))
                slot.append((new_freq, coeff, phase))
            pushed.append(slot)
        total = 0.0 + 0.0j
        for combo in itertools.product(*pushed):
            freq_sum = [0] * q.system.dimension
            for new_freq, _, _ in combo:
                for c in range(q.system.dimension):
                    freq_sum[c] += new_freq[c]
            if any(freq_sum):
                continue
            phase = sum((item[2] for item in combo), Fraction(0))
            const = 1.0 + 0.0j
            for _, coeff, _ in combo:
                const *= coeff
            total += const * np.exp(2j * np.pi * frac_part(phase))
        values[idx] = total
    bound = 1.0
    for obs in q.observables:
        bound *= obs.bound
    return Signal(w, values, bound)


def _grid_size_per_n(q: CorrelationQuery, w: Window) -> int:
    q.require_valid()
    worst = 1
    term_lists = [obs.terms for obs in q.observables]
    for n in range(w.start, w.end):
        affines = map(_split, _slot_affines(q, n))
        pushed = []
        for (mat, _), terms in zip(affines, term_lists):
            slot = []
            for freq, _ in terms:
                new_freq = _mat_vec_transposed(mat, freq)
                _guard_frequency(new_freq)
                slot.append(new_freq)
            pushed.append(slot)
        for combo in itertools.product(*pushed):
            freq_sum = [sum(col) for col in zip(*combo)]
            if any(freq_sum):
                worst = max(worst, max(abs(v) for v in freq_sum))
    return worst + 1


def _assert_matches_oracle(q: CorrelationQuery, w: Window) -> None:
    try:
        expected = _correlate_per_n(q, w)
    except FrequencyOverflowError:
        with pytest.raises(FrequencyOverflowError):
            correlate_exact(q, w)
        with pytest.raises(FrequencyOverflowError):
            required_grid_size(q, w)
        return
    got = correlate_exact(q, w)
    assert np.array_equal(got.values, expected.values)  # bit for bit
    assert got.bound == expected.bound
    assert required_grid_size(q, w) == _grid_size_per_n(q, w)


def _dyadic(draw) -> float:
    """A shift in [0, 1) with denominator up to 2^70, exact as a float."""
    e = draw(st.integers(1, 70))
    return draw(st.integers(0, 2 ** min(e, 53) - 1)) / 2**e


def _window(draw, slack: int = 0) -> Window:
    centre = draw(st.sampled_from((0, 10**6, -10**6)))
    start = centre + draw(st.integers(-60, 60))
    return Window(start, start + draw(st.integers(1 + slack, 40)))


_COEFFS = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                             allow_infinity=False)
# coefficients with both parts nonzero: a vectorized complex product that
# rounds differently from the scalar one shows only with these
_GENERIC = (0.3 + 0.7j, -0.61 + 0.25j)
_POLYS = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(tuple)


@st.composite
def unipotent_cases(draw):
    """Dimension 1-3 lower-unitriangular maps (A, alpha), optionally with a
    second map (A, alpha + t e_d); e_d spans part of ker(A - I), so the two
    commute.  1-3 observables of 1-2 terms, iterates of degree <= 2."""
    d = draw(st.integers(1, 3))
    matrix = tuple(
        tuple(1 if i == j else draw(st.integers(-2, 2)) if j < i else 0
              for j in range(d))
        for i in range(d)
    )
    alpha = tuple(_dyadic(draw) for _ in range(d))
    maps = [ToralMap(matrix, alpha)]
    if draw(st.booleans()):
        maps.append(ToralMap(matrix, alpha[:-1] + (_dyadic(draw),)))
    slots = draw(st.integers(1, 3))
    freqs = st.tuples(*(st.integers(-3, 3) for _ in range(d)))
    observables = tuple(
        TrigObservable(tuple(draw(st.lists(st.tuples(freqs, _COEFFS),
                                           min_size=1, max_size=2))))
        for _ in range(slots)
    )
    iterates = tuple(tuple(draw(_POLYS) for _ in range(slots)) for _ in maps)
    q = CorrelationQuery(AffineToralSystem(d, tuple(maps)), observables,
                         iterates)
    return q, _window(draw)


@st.composite
def unitriangular_maps(draw):
    """A lower-unitriangular integer map of dimension 1-3 with a dyadic
    shift."""
    d = draw(st.integers(1, 3))
    matrix = tuple(
        tuple(1 if i == j else draw(st.integers(-2, 2)) if j < i else 0
              for j in range(d))
        for i in range(d)
    )
    return ToralMap(matrix, tuple(_dyadic(draw) for _ in range(d)))


def _product(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


@settings(max_examples=60, deadline=None)
@given(unitriangular_maps(), st.integers(-50, 50), st.integers(-50, 50))
def test_map_power_group_law(tm, p, q):
    size = tm.dimension + 1
    identity = tuple(tuple(int(i == j) for j in range(size))
                     for i in range(size))
    assert map_power(tm, 0) == identity
    assert _product(map_power(tm, p), map_power(tm, q)) == map_power(tm, p + q)


@st.composite
def spike_cases(draw):
    """Skew pair S^{p(n)}, S^{p(n)+n} with a spike at an n* in the window,
    optionally with a constant term in both observables (atoms + spikes)."""
    w = _window(draw, slack=2)
    n_star = draw(st.integers(w.start, w.end - 1))
    k1, k2 = draw(st.integers(-3, 3)), draw(st.integers(1, 3))
    terms = [[((k1, k2), 1.0 + 0j)], [((n_star * k2 - k1, -k2), 1.0 + 0j)]]
    if draw(st.booleans()):
        for slot in terms:
            slot.append(((0, 0), draw(_COEFFS)))
    p = draw(_POLYS)
    p_plus_n = tuple(c + (k == 1) for k, c in enumerate(p + (0,) * (2 - len(p))))
    q = CorrelationQuery(
        AffineToralSystem(2, (ToralMap(SKEW, (_dyadic(draw), 0.0)),)),
        tuple(TrigObservable(tuple(slot)) for slot in terms),
        ((p, p_plus_n),),
    )
    return q, w


@settings(max_examples=60, deadline=None)
@given(st.one_of(unipotent_cases(), spike_cases()))
@example((  # phase numerator above 2^63 on the window {0}
    CorrelationQuery(
        AffineToralSystem.from_pairs(2, [(((1, 0), (0, 1)), (0.5, 2.0**-61))]),
        (character((3, 1)),), (((0, 3),),)),
    Window(0, 1)))
@example((
    diagonal_query(rotation_system(0.832, 0.1117),
                   [TrigObservable((((1,), _GENERIC[0]), ((2,), _GENERIC[1]))),
                    TrigObservable((((-1,), _GENERIC[1]), ((-2,), _GENERIC[0])))]),
    Window(-10**6, -10**6 + 40)))
def test_exact_engine_matches_per_n_oracle(case):
    _assert_matches_oracle(*case)


def _numeric_per_n(q: CorrelationQuery, w: Window, G: int) -> np.ndarray:
    """The grid quadrature with the exact slot maps, their matrices mod G
    and their shifts mod 1 recomputed at every n."""
    d = q.system.dimension
    grid = np.indices((G,) * d).reshape(d, -1)
    values = np.empty(w.length, dtype=np.complex128)
    for idx, n in enumerate(range(w.start, w.end)):
        prod = np.ones(grid.shape[1], dtype=np.complex128)
        for (mat, shift), obs in zip(map(_split, _slot_affines(q, n)),
                                     q.observables):
            mat_mod = np.array(
                [[int(v % G) for v in row] for row in mat], dtype=np.int64
            )
            transformed = (mat_mod @ grid) % G
            point = transformed.astype(float) / G
            shift_frac = np.array([frac_part(s) for s in shift])
            point = np.mod(point + shift_frac[:, None], 1.0)
            fval = np.zeros(grid.shape[1], dtype=np.complex128)
            for freq, coeff in obs.terms:
                phase = np.mod(np.asarray(freq, dtype=float) @ point, 1.0)
                fval += coeff * np.exp(2j * np.pi * phase)
            prod *= fval
        values[idx] = prod.mean()
    return values


@settings(max_examples=40, deadline=None)
@given(st.one_of(unipotent_cases(), spike_cases()), st.integers(2, 5))
@example((  # 4 rows of 64^2 cells: a 2^14-cell block would be elided
    CorrelationQuery(
        AffineToralSystem.from_pairs(2, [(((1, 0), (0, 1)), (0.0, 0.0))]),
        (TrigObservable((((0, 0), 1.0), ((0, 1), 1.5 + 1j))),), (((0, 1),),)),
    Window(0, 4)), 64)
@example((  # one row of 129^2 cells is already above the elision size
    skew_spike_query(0.37, 2, 8, 2), Window(2, 7)), 129)
@example((  # 3 rows of 5000 cells a block: 12 points make four blocks
    diagonal_query(rotation_system(0.832, 0.1117),
                   [TrigObservable((((1,), _GENERIC[0]), ((2,), _GENERIC[1]))),
                    character((-1,))]),
    Window(-10**6, -10**6 + 12)), 5000)
def test_numeric_engine_matches_per_n_oracle(case, grid):
    q, w = case
    quad = QuadratureSpec(grid)
    try:
        required_grid_size(q, w)
    except FrequencyOverflowError:
        with pytest.raises(FrequencyOverflowError):
            correlate_numeric(q, w, quad, allow_aliased=True)
        return
    got = correlate_numeric(q, w, quad, allow_aliased=True)
    assert np.array_equal(got.values, _numeric_per_n(q, w, grid))  # bit for bit


# coefficients in both slots: a product whose operands are swapped changes
# the last bits of some means
_GENERIC_PAIR = diagonal_query(rotation_system(0.832, 0.1117), [
    TrigObservable((((1,), _GENERIC[0]), ((2,), _GENERIC[1]))),
    TrigObservable((((-1,), _GENERIC[1]),))])


@pytest.mark.parametrize("cpus", [1, 2, 3])  # inline, and more threads than CPUs
@pytest.mark.parametrize("q,w,grid", [
    # 8 one-row blocks of 129^2 cells, past the elision size
    (skew_spike_query(0.37, 2, 8, 2), Window(1, 9), 129),
    # three rows a block below it, and one row a block above it
    (_GENERIC_PAIR, Window(-10**6, -10**6 + 40), 5000),
    (_GENERIC_PAIR, Window(-7, 33), 2**14 + 3),
], ids=["skew", "rows-below-elision", "rows-above-elision"])
def test_numeric_engine_floats_do_not_depend_on_workers(q, w, grid, cpus,
                                                        monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = correlate_numeric(q, w, QuadratureSpec(grid), allow_aliased=True)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads  # no worker outlives the call
    # signed zeros count
    assert np.array_equal(got.values.view(np.uint64),
                          _numeric_per_n(q, w, grid).view(np.uint64))


@pytest.mark.parametrize("offset", [990, 800])
def test_frequency_guard_past_a_loose_bound(offset):
    # on [1000, 1002) the iterate 2^120 (n - offset) has a coefficient bound
    # above 2^127; the pushed y-frequency stays below the guard for
    # offset 990 and passes it for offset 800
    q = CorrelationQuery(
        AffineToralSystem(2, (ToralMap(SKEW, (0.3, 0.0)),)),
        (character((0, 1)),),
        (((-offset * 2**120, 2**120),),),
    )
    _assert_matches_oracle(q, Window(1000, 1002))


def test_correlation_structure_split():
    w = Window(-50, 50)
    rotation = correlation_structure(diagonal_query(
        rotation_system(0.25, 0.125), [character((1,)), character((-1,))]))
    assert len(rotation.combinations) == len(rotation.atoms) == 1
    assert rotation.spikes(w) == ()
    ns = w.indices()
    assert np.array_equal(rotation.atoms[0].phase.fracs(ns),
                          np.mod(0.125 * ns, 1.0))
    spike = correlation_structure(skew_spike_query(0.37, 2, 8, 2))
    assert spike.atoms == ()
    assert spike.spikes(w) == (5,)


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def test_corpus_class_c_rotation_form():
    w = Window(0, 256)
    entries = corpus_generate("C", 2, 5, w, count=4, variant="rotations")
    for entry in entries:
        alpha, beta = entry.params["alpha"], entry.params["beta"]
        expected = np.exp(2j * np.pi * np.mod((alpha - beta) * w.indices(), 1.0))
        assert np.max(np.abs(entry.signal.values - expected)) < 1e-10


def test_corpus_class_b_exponents():
    w = Window(0, 64)
    entries = corpus_generate("B", 2, 5, w, count=3)
    for entry in entries:
        assert entry.params["exponents"] == [2, 1]
    entries3 = corpus_generate("B", 3, 5, w, count=1)
    assert entries3[0].params["exponents"] == [6, 3, 2]


def test_corpus_class_a_level1_constant():
    w = Window(0, 32)
    entries = corpus_generate("A", 1, 9, w, count=3)
    for entry in entries:
        assert np.ptp(entry.signal.values.real) < 1e-15
        assert np.ptp(entry.signal.values.imag) < 1e-15
        assert entry.signal.sup_norm <= 1.0 + 1e-12


def test_corpus_deterministic_per_seed():
    w = Window(0, 128)
    a = corpus_generate("C", 2, 123, w, count=5)
    b = corpus_generate("C", 2, 123, w, count=5)
    for x, y in zip(a, b):
        assert x.label == y.label
        assert np.array_equal(x.signal.values, y.signal.values)


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_corpus_entry_does_not_depend_on_later_entries(family):
    """Entry i is drawn before entries i+1, ..., so generating i + 1 entries
    gives it bit for bit: a corpus signal draws only up to its index."""
    w = Window(-40, 88)
    top = {"A": 3, "B": 4, "C": 4}[family]
    for ell, variant, grid in itertools.product(
            range(1, top + 1), ("mixed", "rotations"), (None, 16)):
        full = corpus_generate(family, ell, 11, w, count=8, freq_grid=grid,
                               variant=variant)
        for i, entry in enumerate(full):
            alone = corpus_generate(family, ell, 11, w, count=i + 1,
                                    freq_grid=grid, variant=variant)[i]
            assert alone.label == entry.label
            assert alone.params == entry.params
            assert np.array_equal(alone.signal.values, entry.signal.values)


def test_corpus_freq_grid_alignment():
    w = Window(0, 64)
    entries = corpus_generate("C", 2, 77, w, count=6, variant="rotations",
                              freq_grid=16)
    for entry in entries:
        diff = (entry.params["alpha"] - entry.params["beta"]) % 1.0
        assert abs(diff * 16 - round(diff * 16)) < 1e-9


def test_corpus_unsupported_level():
    with pytest.raises(ValueError):
        corpus_generate("A", 4, 0, Window(0, 16))
    with pytest.raises(ValueError):
        corpus_generate("C", 5, 0, Window(0, 16))
    with pytest.raises(ValueError):
        corpus_generate("D", 2, 0, Window(0, 16))
