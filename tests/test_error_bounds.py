import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoh import error_bounds as eb
from decoh.error_bounds import (
    ConvergenceError,
    Optimum,
    classify_regime,
    error_asymptotic,
    golden_section_minimize,
    mismatch_penalty,
    optimal_lambda,
    overlap_amplitude,
    overlap_error,
    overlap_log_inverse_sq,
)
from decoh.kinematics import (
    collision_params,
    collision_params_from_delta,
    ideal_reflected_state,
    initial_state,
    post_collision_state,
)
from decoh.oracles import grid_for_state, quadrature_overlap


def test_matched_ratio_gives_unit_amplitude(rng):
    for _ in range(100):
        m, M = np.exp(rng.uniform(-2, 2, size=2))
        p = collision_params(m, M)
        assert overlap_amplitude(p.delta / p.gamma, 0.0, p) == pytest.approx(1.0, abs=1e-12)


def test_amplitude_at_unit_ratio(params_1_99):
    # bracket is 2 (gamma^2 + delta^2) = 1.9604
    assert overlap_amplitude(1.0, 0.0, params_1_99) == pytest.approx(
        1.9604**-0.5, rel=1e-12
    )


def test_amplitude_matched_small_momentum():
    p = collision_params_from_delta(1e-4)
    one_minus_a = 1.0 - overlap_amplitude(p.delta / p.gamma, 1.0, p)
    assert one_minus_a == pytest.approx(2.0 * 1e-4, rel=1e-3)


def test_amplitude_rejects_nonpositive_ratio(params_1_99):
    bad = (0.0, -1.0, np.nan, np.inf, -np.inf, [1.0, np.nan], [0.5, 0.0])
    for lam in bad:
        with pytest.raises(ValueError):
            overlap_log_inverse_sq(lam, 1.0, params_1_99)
        if np.ndim(lam) == 0:
            with pytest.raises(ValueError):
                overlap_amplitude(lam, 1.0, params_1_99)


def test_amplitude_scaling_invariance(params_1_99):
    """A depends on the spreads and momentum only through lambda and k sigma."""
    sigma, Sigma, k = 0.7, 1.9, 2.3
    a1 = overlap_amplitude((Sigma / sigma) ** 2, k * sigma, params_1_99)
    a2 = overlap_amplitude((2 * Sigma / (2 * sigma)) ** 2, (k / 2) * (2 * sigma), params_1_99)
    assert a1 == pytest.approx(a2, rel=1e-12)


def test_amplitude_against_quadrature_oracle(rng):
    for _ in range(20):
        delta = float(np.exp(rng.uniform(np.log(5e-3), np.log(0.3))))
        p = collision_params_from_delta(delta)
        sigma = float(np.exp(rng.uniform(-0.5, 0.5)))
        Sigma = sigma * float(np.exp(rng.uniform(-1.0, 1.0)))
        k = float(rng.uniform(0.0, 2.0)) / sigma
        s = initial_state(Sigma, sigma, k)
        sf = post_collision_state(s, p)
        t = ideal_reflected_state(s)
        quad = quadrature_overlap(t, sf, grid=grid_for_state(t, sf, n=256))
        closed = overlap_amplitude((Sigma / sigma) ** 2, k * sigma, p)
        assert abs(abs(quad.value) - closed) < 1e-8


def test_optimal_lambda_zero_momentum(params_1_99):
    opt = optimal_lambda(0.0, params_1_99)
    assert opt.lambda_max == pytest.approx(params_1_99.delta / params_1_99.gamma, rel=1e-15)
    assert opt.A_max == 1.0
    assert opt.one_minus_A == 0.0


def test_optimal_lambda_large_momentum():
    p = collision_params_from_delta(1e-6)
    opt = optimal_lambda(100.0, p)
    assert opt.lambda_max == pytest.approx(1e-6 / 200.0, rel=0.05)
    assert opt.one_minus_A == pytest.approx(2e-4, rel=0.05)
    assert opt.regime == "large-ksigma"


def test_optimal_lambda_small_momentum():
    p = collision_params_from_delta(1e-3)
    opt = optimal_lambda(0.01, p)
    assert opt.one_minus_A == pytest.approx(2e-3 * 1e-4, rel=0.05)
    assert opt.regime == "small-ksigma"


@settings(max_examples=200, deadline=None)
@given(log_delta=st.floats(-6.0, math.log10(0.99)), k_sigma=st.floats(1e-4, 1e4))
def test_optimum_equals_golden_search_over_public_overlap(log_delta, k_sigma):
    """The solver's unchecked objective gives the same optimum, bit for bit,
    as a golden search over the checked public function."""
    p = collision_params_from_delta(10.0**log_delta)
    t, f, steps = golden_section_minimize(
        lambda t: float(overlap_log_inverse_sq(math.exp(t), k_sigma, p)),
        math.log(p.delta**2 * eb._BRACKET_LO_FACTOR), math.log(eb._BRACKET_HI),
        tol=eb._LN_LAMBDA_TOL,
    )
    assert optimal_lambda(k_sigma, p) == Optimum(
        lambda_max=math.exp(t),
        A_max=math.exp(-0.5 * f),
        one_minus_A=-math.expm1(-0.5 * f),
        regime=classify_regime(k_sigma),
        iterations=steps,
    )


def _per_step_log_inverse_sq(lam, k_sigma, p):
    """ln(A^{-2}) as the solver once evaluated it on every golden-section step:
    4 (k sigma)^2 and the mass fractions looked up anew each time."""
    root = math.sqrt(lam)
    mismatch = p.gamma * root - p.delta / root
    return math.log1p(mismatch * mismatch) + 4.0 * k_sigma**2 * lam / (1.0 + lam)


def test_optimum_is_bit_identical_to_the_per_step_objective():
    """Taking 4 (k sigma)^2 and the mass fractions once per optimum moves no
    bit of lambda_max, A_max or 1 - A_max."""
    rng = random.Random(20261017)
    for _ in range(500):
        k_sigma = 10.0 ** rng.uniform(-4.0, 4.0)
        p = collision_params_from_delta(10.0 ** rng.uniform(-6.0, math.log10(0.5)))
        t, f, _ = golden_section_minimize(
            lambda t: _per_step_log_inverse_sq(math.exp(t), k_sigma, p),
            math.log(p.delta**2 * eb._BRACKET_LO_FACTOR), math.log(eb._BRACKET_HI),
            tol=eb._LN_LAMBDA_TOL,
        )
        opt = optimal_lambda(k_sigma, p)
        got = [v.hex() for v in (opt.lambda_max, opt.A_max, opt.one_minus_A)]
        want = [v.hex() for v in (math.exp(t), math.exp(-0.5 * f), -math.expm1(-0.5 * f))]
        assert got == want, (k_sigma, p.delta)


def test_optimal_lambda_rejects_negative(params_1_99):
    with pytest.raises(ValueError):
        optimal_lambda(-1.0, params_1_99)


def test_optimum_matches_fine_grid_scan(params_1_99):
    """Three-stage refined grid scan pins the argmin; golden section must
    land on it to 1e-6 relative."""
    k_sigma = 0.7
    opt = optimal_lambda(k_sigma, params_1_99)
    lo, hi = np.log(params_1_99.delta**2 * 1e-3), np.log(1e3)
    for _ in range(3):
        ts = np.linspace(lo, hi, 2001)
        vals = overlap_log_inverse_sq(np.exp(ts), k_sigma, params_1_99)
        i = int(np.argmin(vals))
        lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)]
    scan_lam = float(np.exp(0.5 * (lo + hi)))
    assert opt.lambda_max == pytest.approx(scan_lam, rel=1e-6)


def test_optimized_error_monotone_in_momentum(params_1_99):
    ks = np.geomspace(1e-3, 1e3, 25)
    errs = [optimal_lambda(k, params_1_99).one_minus_A for k in ks]
    assert all(b >= a for a, b in zip(errs, errs[1:]))


def test_error_asymptotic_small_zero_momentum():
    lam, err = error_asymptotic(0.0, 0.01, "small")
    assert lam == pytest.approx(0.01 / 0.99, rel=1e-15)
    assert err == 0.0


def test_error_asymptotic_large_example():
    lam, err = error_asymptotic(10.0, 1e-3, "large")
    assert lam == pytest.approx(5e-5, rel=1e-12)
    assert err == pytest.approx(0.02, rel=1e-12)


def test_error_asymptotic_large_rejects_zero_momentum():
    with pytest.raises(ValueError):
        error_asymptotic(0.0, 0.01, "large")
    with pytest.raises(ValueError):
        error_asymptotic(1.0, 0.01, "sideways")


@pytest.mark.parametrize("regime", ["small", "large"])
@pytest.mark.parametrize("k_sigma", [-1.0, math.nan, math.inf])
def test_error_asymptotic_rejects_a_negative_or_non_finite_k_sigma(k_sigma, regime):
    message = f"k sigma must be non-negative and finite, got {k_sigma}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        error_asymptotic(k_sigma, 0.01, regime)


def test_asymptotic_branches_mesh_at_crossover():
    delta = 1e-4
    p = collision_params_from_delta(delta)
    _, err_small = error_asymptotic(1.0, delta, "small")
    _, err_large = error_asymptotic(1.0, delta, "large")
    opt = optimal_lambda(1.0, p)
    assert err_small / err_large == pytest.approx(1.0, abs=1.0)
    assert 0.5 < err_small / opt.one_minus_A < 2.0
    assert 0.5 < err_large / opt.one_minus_A < 2.0


def test_mismatch_penalty_matched_point():
    # at the matched ratio the spread-mismatch error budget vanishes; the
    # momentum term survives alone
    assert mismatch_penalty(0.0, 0.0) == 0.0
    assert mismatch_penalty(0.0, 1.0) == pytest.approx(2.0, rel=1e-15)


def test_mismatch_penalty_against_exact_amplitude():
    delta = 1e-5
    p = collision_params_from_delta(delta)
    pen = float(mismatch_penalty(2.0, 0.5))
    exact = 1.0 - overlap_amplitude(delta * np.e**2, 0.5, p)
    assert pen * delta == pytest.approx(exact, rel=0.05)


def test_mismatch_penalty_grows_exponentially():
    y = np.array([-3.0, 3.0])
    pen = mismatch_penalty(y, 0.0)
    assert pen == pytest.approx(np.cosh(y) - 1.0, rel=1e-12)


def test_regime_classification():
    assert classify_regime(0.0) == "small-ksigma"
    assert classify_regime(1.0) == "crossover"
    assert classify_regime(50.0) == "large-ksigma"


def test_golden_section_quadratic():
    x, f, _ = golden_section_minimize(lambda t: (t - 1.3) ** 2, -5.0, 5.0, tol=1e-12)
    assert x == pytest.approx(1.3, abs=1e-10)
    assert f == pytest.approx(0.0, abs=1e-18)


def test_golden_section_convergence_error():
    with pytest.raises(ConvergenceError):
        golden_section_minimize(lambda t: t * t, -1.0, 1.0, tol=1e-12, max_iter=3)


def test_overlap_error_pairs_A_with_its_complement(params_1_99):
    A, one_minus_A = overlap_error(1.0, 0.5, params_1_99)
    assert 0.0 < A < 1.0
    assert A == overlap_amplitude(1.0, 0.5, params_1_99)
    assert one_minus_A == pytest.approx(1.0 - A, rel=1e-12)
    # the complement keeps its digits where A rounds to 1
    tiny_A, tiny = overlap_error(params_1_99.delta / params_1_99.gamma, 1e-9, params_1_99)
    assert tiny_A == 1.0 and tiny == pytest.approx(2e-18 * params_1_99.delta, rel=1e-6)
