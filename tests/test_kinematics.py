import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoh.kinematics import (
    GaussianProductState,
    IdealReflectedState,
    PostCollisionState,
    collision_params,
    collision_params_from_delta,
    ideal_reflected_state,
    initial_state,
    post_collision_state,
)
from decoh.oracles import GridSpec, grid_for_state, quadrature_overlap


@pytest.mark.parametrize(
    "m,M,delta,gamma",
    [(1.0, 99.0, 0.01, 0.99), (1.0, 1.0, 0.5, 0.5), (3.0, 7.0, 0.3, 0.7)],
)
def test_collision_params_examples(m, M, delta, gamma):
    p = collision_params(m, M)
    assert p.delta == pytest.approx(delta, abs=1e-15)
    assert p.gamma == pytest.approx(gamma, abs=1e-15)


def test_mass_fractions_sum_to_one(rng):
    for _ in range(100):
        m, M = np.exp(rng.uniform(-3, 3, size=2))
        p = collision_params(m, M)
        assert abs(p.delta + p.gamma - 1.0) <= np.finfo(float).eps


@pytest.mark.parametrize("m,M", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (np.nan, 1.0),
                                 (1e308, 1e308)])
def test_collision_params_rejects_bad_masses(m, M):
    with pytest.raises(ValueError):
        collision_params(m, M)


def test_collision_params_from_delta():
    p = collision_params_from_delta(0.3)
    assert p.delta == pytest.approx(0.3, abs=1e-15)
    assert p.m + p.M == 1.0
    with pytest.raises(ValueError):
        collision_params_from_delta(1.0)


def test_initial_state_norm_constant():
    s = initial_state(1.0, 1.0, 0.0)
    assert s.norm == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-15)


@pytest.mark.parametrize("Sigma,sigma", [(0.0, 1.0), (1.0, -2.0), (np.inf, 1.0)])
def test_initial_state_rejects_bad_spreads(Sigma, sigma):
    with pytest.raises(ValueError):
        initial_state(Sigma, sigma)


def test_initial_state_unit_norm_by_quadrature():
    s = initial_state(0.3, 2.0, 1.5)
    res = quadrature_overlap(s, s, method="gauss-legendre")
    assert abs(res.value) == pytest.approx(1.0, abs=1e-8)


def test_initial_state_mean_momentum_by_fourier():
    s = initial_state(1.0, 1.0, 5.0)
    x = np.linspace(-12.0, 12.0, 4096)
    phi = np.exp(-x**2 / 4.0 + 1j * s.k * x)  # particle factor, unnormalized
    phik = np.fft.fft(phi)
    k = 2.0 * np.pi * np.fft.fftfreq(x.size, d=x[1] - x[0])
    mean_k = np.sum(k * np.abs(phik) ** 2) / np.sum(np.abs(phik) ** 2)
    assert mean_k == pytest.approx(5.0, abs=1e-9)


def test_post_collision_norm_by_quadrature():
    p = collision_params(1.0, 10.0)
    sf = post_collision_state(initial_state(0.5, 1.0, 2.0), p)
    res = quadrature_overlap(sf, sf)
    assert abs(res.value) == pytest.approx(1.0, abs=1e-8)


def test_equal_masses_swap_arguments(rng):
    """With delta = gamma = 1/2 the bounce swaps the coordinates:
    Psi_F(x, X) = Psi_I(X, x)."""
    p = collision_params(2.0, 2.0)
    s = initial_state(0.7, 1.3, 2.5)
    sf = post_collision_state(s, p)
    pts = rng.normal(scale=1.5, size=(20, 2))
    np.testing.assert_allclose(
        sf(pts[:, 0], pts[:, 1]), s(pts[:, 1], pts[:, 0]), rtol=1e-12, atol=1e-14
    )


def test_equal_masses_magnitude_factorizes(rng):
    p = collision_params(1.0, 1.0)
    sf = post_collision_state(initial_state(0.8, 1.1, 1.0), p)
    for _ in range(25):
        x, X, xp, Xp = rng.normal(scale=1.0, size=4)
        lhs = abs(sf(x, X)) * abs(sf(xp, Xp))
        rhs = abs(sf(x, Xp)) * abs(sf(xp, X))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_heavy_wall_limit_reflects_about_wall_position():
    """As delta -> 0 at fixed spreads the bounce becomes a reflection about
    the wall position: Psi_F -> Gamma(X) Phi(2X - x), with deviation linear
    in delta.  (The fixed-wall ideal Gamma(X) Phi(-x) additionally needs a
    narrow wall packet; at Sigma = sigma it stays O(1) away.)"""
    s = initial_state(1.0, 1.0, 0.0)
    xs = np.linspace(-4.0, 4.0, 81)
    xx, XX = np.meshgrid(xs, xs)
    limit = np.sqrt(s.norm) * np.exp(-(XX**2) / 4.0 - ((2.0 * XX - xx) ** 2) / 4.0)
    devs = []
    for delta in (1e-2, 1e-4, 1e-6):
        sf = post_collision_state(s, collision_params_from_delta(delta))
        devs.append(np.abs(sf(xx, XX) - limit).max())
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-5

    ideal = np.sqrt(s.norm) * np.exp(-(XX**2) / 4.0 - xx**2 / 4.0)
    sf6 = post_collision_state(s, collision_params_from_delta(1e-6))
    assert np.abs(sf6(xx, XX) - ideal).max() > 0.1


def test_heavy_wall_slice_at_origin_is_ideal_reflection():
    """Conditioned on the wall sitting at X = 0, the tiny-delta bounce is the
    ideal reflection of the particle packet."""
    s = initial_state(0.5, 1.0, 2.0)
    sf = post_collision_state(s, collision_params_from_delta(1e-9))
    ideal = ideal_reflected_state(s)
    xs = np.linspace(-3.0, 3.0, 41)
    np.testing.assert_allclose(sf(xs, 0.0), ideal(xs, 0.0), rtol=1e-7, atol=1e-9)


def test_ideal_reflected_state_even_at_zero_momentum(rng):
    s = initial_state(0.9, 1.2, 0.0)
    t = ideal_reflected_state(s)
    pts = rng.normal(size=(10, 2))
    np.testing.assert_allclose(t(pts[:, 0], pts[:, 1]), s(pts[:, 0], pts[:, 1]),
                               rtol=1e-14)


def test_ideal_reflected_state_norm():
    s = initial_state(0.4, 1.7, 3.0)
    t = ideal_reflected_state(s)
    assert abs(quadrature_overlap(t, t).value) == pytest.approx(1.0, abs=1e-8)


def test_ideal_reflected_state_point_value():
    s = initial_state(1.0, 1.0, 1.0)
    t = ideal_reflected_state(s)
    expected = np.sqrt(s.norm) * np.exp(-0.25) * np.exp(-1j)
    assert t(1.0, 0.0) == pytest.approx(expected, rel=1e-14)


def test_ideal_reflected_state_is_the_conjugate_product_state(rng):
    s = initial_state(0.6, 1.4, 2.5)
    t = ideal_reflected_state(s)
    pts = rng.normal(scale=1.5, size=(20, 2))
    np.testing.assert_allclose(t(pts[:, 0], pts[:, 1]), np.conj(s(pts[:, 0], pts[:, 1])),
                               rtol=1e-14)
    assert t.envelope() == s.envelope()


@pytest.mark.parametrize("k", [2.5, 0.0, -1e3])
def test_ideal_reflected_state_is_the_product_state_at_minus_k(rng, k):
    """The mirrored packet samples, and sizes its grid from, exactly what
    the product packet with wavenumber -k does."""
    s = initial_state(0.6, 1.4, k)
    t, minus = ideal_reflected_state(s), initial_state(0.6, 1.4, -k)
    pts = rng.normal(scale=1.5, size=(20, 2))
    assert np.array_equal(t(pts[:, 0], pts[:, 1]), minus(pts[:, 0], pts[:, 1]))
    for got, want in zip(t.quadratic_form(), minus.quadratic_form()):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cls", [GaussianProductState, IdealReflectedState, PostCollisionState])
def test_each_state_class_defines_its_own_call(cls):
    """perfbench/tracer.py wraps each state class's own __call__; one
    inherited from a wrapped base would be wrapped twice."""
    assert "__call__" in vars(cls)


def _covariance_by_inverse(s):
    p_vec = np.array([2.0 * s.delta, 1.0 - 2.0 * s.delta])
    q_vec = np.array([1.0 - 2.0 * s.gamma, 2.0 * s.gamma])
    S = 2.0 * s.Omega * np.outer(p_vec, p_vec) + 2.0 * s.omega * np.outer(q_vec, q_vec)
    return np.linalg.inv(S) / 2.0


def test_post_collision_covariance_matches_the_inverse(rng):
    """The closed form B^{-1} diag(Sigma^2, sigma^2) B^{-T} against inverting
    the quadratic form numerically, on states where that inverse is well
    conditioned enough to serve as a reference."""
    for _ in range(300):
        delta = 10.0 ** rng.uniform(-4.0, np.log10(0.99))
        Sigma, sigma = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
        s = post_collision_state(initial_state(Sigma, sigma, 0.0),
                                 collision_params_from_delta(delta))
        ref = _covariance_by_inverse(s)
        assert np.max(np.abs(s.covariance() - ref)) <= 1e-7 * np.max(np.abs(ref))


def test_post_collision_covariance_at_a_vast_spread_ratio():
    """Sigma = 1e150 next to sigma = 1 makes the quadratic form numerically
    singular; the closed form still gives the spreads, 2 gamma Sigma on x
    and (1 - 2 gamma) Sigma on X to leading order."""
    p = collision_params_from_delta(0.01)
    s = post_collision_state(initial_state(1e150, 1.0, 0.0), p)
    _, (sx, sX), _ = s.envelope()
    assert sx == pytest.approx(2.0 * p.gamma * 1e150, rel=1e-12)
    assert sX == pytest.approx(abs(1.0 - 2.0 * p.gamma) * 1e150, rel=1e-12)


def _single_exp_sample(state, x, X):
    """Each state's formula with its whole exponent in one exp: the
    product states' complex one, the post-collision envelope's real one
    (its carrier is two one-body factors either way)."""
    if isinstance(state, PostCollisionState):
        a = X * (1.0 - 2.0 * state.delta) + 2.0 * state.delta * x
        b = x * (1.0 - 2.0 * state.gamma) + 2.0 * state.gamma * X
        env = np.exp(-state.Omega * a * a - state.omega * b * b)
        return (env * (np.sqrt(state.norm) * np.exp(1j * state.k * (1.0 - 2.0 * state.gamma) * x))
                * np.exp(2j * state.gamma * state.k * X))
    env = -(X * X) / (4.0 * state.Sigma**2) - (x * x) / (4.0 * state.sigma**2)
    return np.sqrt(state.norm) * np.exp(env + 1j * state.k * x)


def _three_states(m, M, Sigma, sigma, k):
    s = initial_state(Sigma, sigma, k)
    return s, ideal_reflected_state(s), post_collision_state(s, collision_params(m, M))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(log_m=st.floats(-5.0, 5.0), log_M=st.floats(-5.0, 5.0), Sigma=st.floats(0.05, 5.0),
       sigma=st.floats(0.05, 5.0), k=st.floats(-1e6, 1e6), n=st.integers(2, 96))
def test_one_body_factors_sample_the_single_exp_formula(log_m, log_M, Sigma, sigma, k, n):
    """Sampled from one-body factors, each state on its forced n x n grid
    matches the single-exp formula to 1e-14 of its peak |psi| = sqrt(N)."""
    for state in _three_states(math.exp(log_m), math.exp(log_M), Sigma, sigma, k):
        x, X = grid_for_state(state, n=n).axes()
        got, want = state(x, X), _single_exp_sample(state, x, X)
        assert got.shape == (n, n)
        assert np.max(np.abs(got - want)) <= 1e-14 * math.sqrt(state.norm), type(state).__name__


def test_grid_samples_take_no_complex_2d_exp(monkeypatch):
    """On an nX x nx grid the product states take only 1-D exps, and the
    post-collision state exactly one 2-D exp, a real one (its envelope);
    every complex exp is 1-D.  A 2-D argument has two axes longer than 1."""
    x, X = GridSpec(x_min=-4.0, x_max=4.0, X_min=-3.0, X_max=3.0, nx=24, nX=17).axes()
    exp = np.exp
    calls = []

    def recording_exp(arg, *args, **kwargs):
        arg = np.asarray(arg)
        calls.append((arg.dtype, sum(d > 1 for d in arg.shape)))
        return exp(arg, *args, **kwargs)

    monkeypatch.setattr(np, "exp", recording_exp)
    for state in _three_states(1.0, 99.0, 0.8, 1.3, 2.5):
        calls.clear()
        assert state(x, X).shape == (17, 24)
        two_d = [dtype for dtype, axes in calls if axes > 1]
        if isinstance(state, PostCollisionState):
            assert len(two_d) == 1 and not np.issubdtype(two_d[0], np.complexfloating)
        else:
            assert two_d == [], type(state).__name__
        assert all(axes <= 1 for dtype, axes in calls if np.issubdtype(dtype, np.complexfloating))
