import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoh import propagation
from decoh.checks import check_image_vs_fft
from decoh.entanglement import kernel_params, largest_eigenvalue
from decoh.kinematics import collision_params, initial_state, post_collision_state
from decoh.oracles import GridSpec, grid_for_state, schmidt_decompose, spectral_counts
from decoh.propagation import (
    FLIGHT_COVER_SIGMAS,
    GaussianWave2D,
    fft_free_evolve,
    grid_for_flight,
    image_term,
    phase_aligned_l2,
)


def _bounce(m=1.0, M=99.0, Sigma=0.3, sigma=1.0, k=6.0, x0=-8.0, periods=2.0):
    """(wave0, t): the product packet at relative offset x0, and periods
    times the time |x0| m / k it needs to reach the wall."""
    s0 = initial_state(Sigma, sigma, k)
    wave0 = GaussianWave2D.from_product_state(s0, collision_params(m, M), x_center=x0)
    return wave0, periods * (abs(x0) * m / abs(k))


def _sampled(wave, n):
    """wave on its own grid_for_state grid of at least n points per axis."""
    grid = grid_for_state(wave, n=n)
    return wave.evaluate(*grid.axes()), grid


def _grid_norm(psi, grid):
    W = np.outer(np.full(grid.nX, grid.dX), np.full(grid.nx, grid.dx))
    W[0, :] *= 0.5
    W[-1, :] *= 0.5
    W[:, 0] *= 0.5
    W[:, -1] *= 0.5
    return float(np.sum(W * np.abs(psi) ** 2))


def free_evolve_gaussian_1d(x, t: float, center: float, spread: float, k: float,
                            mass: float) -> np.ndarray:
    """Closed-form free evolution of a 1-D Gaussian packet.

    Initial state (2 pi s^2)^{-1/4} exp(-(x - x0)^2/4s^2 + i k (x - x0));
    the textbook Gaussian integral against the free propagator gives the
    state at time t, up to a global phase fixed by principal branches.
    """
    x = np.asarray(x, dtype=float)
    a0 = 1.0 / (4.0 * spread**2)
    xi = x - center
    pref0 = (2.0 * np.pi * spread**2) ** -0.25
    if t == 0.0:
        return pref0 * np.exp(-a0 * xi * xi + 1j * k * xi)
    bb = mass / (2.0 * t)
    aa = a0 - 1j * bb
    pref = np.sqrt(bb / (1j * np.pi)) * np.sqrt(np.pi / aa) * pref0
    lin = 1j * k - 2j * bb * xi
    return pref * np.exp(lin * lin / (4.0 * aa) + 1j * bb * xi * xi)


def test_wave_matches_product_state():
    p = collision_params(1.0, 99.0)
    s = initial_state(0.3, 1.0, 6.0)
    w = GaussianWave2D.from_product_state(s, p, x_center=-8.0)
    g = grid_for_state(w, n=128)
    xx, XX = np.meshgrid(g.x_nodes(), g.X_nodes())
    direct = np.sqrt(s.norm) * np.exp(
        -(XX**2) / (4 * s.Sigma**2)
        - ((xx + 8.0) ** 2) / (4 * s.sigma**2)
        + 1j * s.k * (xx + 8.0)
    )
    np.testing.assert_allclose(w.evaluate(xx, XX), direct, atol=1e-12)


def test_mirror_is_involution():
    p = collision_params(1.0, 3.0)
    s = initial_state(0.5, 1.0, 2.0)
    w = GaussianWave2D.from_product_state(s, p, x_center=-4.0)
    back = w.mirror_u().mirror_u()
    np.testing.assert_allclose(back.A, w.A)
    np.testing.assert_allclose(back.b, w.b)


def _post_collision_covariance(sf):
    """Position covariance of |Psi_F|^2, B^{-1} diag(Sigma^2, sigma^2) B^{-T}
    with B^{-1} in closed form (see PostCollisionState.envelope)."""
    B_inv = np.array([[2.0 * sf.gamma, -(1.0 - 2.0 * sf.delta)],
                      [-(1.0 - 2.0 * sf.gamma), 2.0 * sf.delta]])
    return (B_inv * [0.25 / sf.Omega, 0.25 / sf.omega]) @ B_inv.T


def test_lab_frame_bounce_is_the_papers_post_collision_state(rng):
    """mirror_u of the product packet is Psi_F, the product packet at the
    particle argument (1 - 2 gamma) x + 2 gamma X and the wall argument
    2 delta x + (1 - 2 delta) X, pointwise up to 4 standard deviations
    along the Cholesky axes and in its grid envelope, for either body the
    heavier.  The expanded form -z^T A z + b^T z loses about eps times its
    largest term, which grows with the length of the state's ridge, so the
    spread ratio stays within e^2 here (2.6e-13 worst over 5000 draws;
    ratios near 15 reach 1.8e-12)."""
    for _ in range(200):
        m, M = np.exp(rng.uniform(-5.0, 5.0, size=2))
        Sigma, sigma = np.exp(rng.uniform(-1.0, 1.0, size=2))
        k = rng.uniform(-10.0, 10.0)
        p = collision_params(m, M)
        s0 = initial_state(Sigma, sigma, k)
        wave = GaussianWave2D.from_product_state(s0, p).mirror_u()
        sf = post_collision_state(s0, p)
        offsets = rng.uniform(-4.0, 4.0, size=(2, 16))
        x, X = np.linalg.cholesky(_post_collision_covariance(sf)) @ offsets
        np.testing.assert_allclose(wave(x, X), sf(x, X), rtol=1e-12, atol=0.0)
        for got, want in zip(wave.envelope(), sf.envelope()):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_free_evolution_preserves_norm():
    psi, grid = _sampled(image_term(*_bounce()), n=256)
    assert _grid_norm(psi, grid) == pytest.approx(1.0, abs=1e-7)


def test_short_time_evolution_is_identity():
    p = collision_params(1.0, 99.0)
    s = initial_state(0.3, 1.0, 6.0)
    w = GaussianWave2D.from_product_state(s, p, x_center=-8.0)
    g = grid_for_state(w, n=96)
    drifted = w.free_evolve(1e-7)
    np.testing.assert_allclose(drifted.evaluate(*g.axes()), w.evaluate(*g.axes()), atol=1e-4)


def test_reflected_entanglement_matches_static_analysis():
    """F0 is invariant under free evolution, so the SVD of the evolved
    reflected wave must reproduce the static closed form."""
    wave0, t = _bounce(k=6.0)
    sv = schmidt_decompose(image_term(wave0, t), n=256).singular_values
    sf = post_collision_state(initial_state(0.3, 1.0, 6.0), wave0.params)
    f0 = largest_eigenvalue(kernel_params(sf).w)
    assert sv[0] ** 2 == pytest.approx(f0, abs=1e-3)


def test_image_term_against_fft_route():
    """Gaussian-algebra image term vs an FFT kinetic-step evolution of the
    sampled mirrored state."""
    wave0, t = _bounce(k=40.0, x0=-6.0, Sigma=0.25)
    mirrored = wave0.mirror_u()
    grid = grid_for_flight(mirrored, t)
    sampled = mirrored.evaluate(*grid.axes())
    via_fft = fft_free_evolve(sampled, grid, 1.0, 99.0, t)
    dist = phase_aligned_l2(image_term(wave0, t).evaluate(*grid.axes()), via_fft, grid)
    assert dist < 1e-3


@pytest.mark.parametrize("k, x0, Sigma", [(40.0, -6.0, 0.25), (6.0, -8.0, 0.3),
                                          (10.0, -4.0, 1.0)])
def test_flight_grid_contract(k, x0, Sigma):
    """The 8.5-sigma hull of the start and end envelopes, sampled at the
    start wave's band limit.  Free flight only multiplies the wave's Fourier
    transform by a phase, so the end wave's band limit gives the same
    counts."""
    wave0, t = _bounce(k=k, x0=x0, Sigma=Sigma)
    mirrored = wave0.mirror_u()
    end = mirrored.free_evolve(t)
    grid = grid_for_flight(mirrored, t)

    (c0, s0), (c1, s1) = mirrored.envelope(), end.envelope()
    sx, sX = max(s0[0], s1[0]), max(s0[1], s1[1])
    h = FLIGHT_COVER_SIGMAS
    assert (grid.x_min, grid.x_max) == (min(c0[0], c1[0]) - h * sx, max(c0[0], c1[0]) + h * sx)
    assert (grid.X_min, grid.X_max) == (min(c0[1], c1[1]) - h * sX, max(c0[1], c1[1]) + h * sX)

    widths = (grid.x_max - grid.x_min, grid.X_max - grid.X_min)
    counts = spectral_counts(mirrored.A, mirrored.b, math.pi, widths)
    assert (grid.nx, grid.nX) == tuple(counts)
    assert spectral_counts(end.A, end.b, math.pi, widths) == counts


def test_flight_grid_of_the_verify_check():
    """The lab-frame wave of the image_vs_fft check carries k sigma = 40 on
    both axes once mirrored: 441 x 150 at its band limit, where a 0.3 rad
    phase step took 4050 x 1200."""
    wave0, t = _bounce(k=40.0, x0=-6.0, Sigma=0.25)
    grid = grid_for_flight(wave0.mirror_u(), t)
    assert (grid.nx, grid.nX) == (441, 150)


def _scaled_delta(p):
    """The masses with the wall mass that scales delta = m/(M + m) by 1 + 1e-3."""
    return collision_params(p.m, (p.M + p.m) / (1.0 + 1e-3) - p.m)


# faults injected into the arguments image_term is given: t scaled by 1 + 1e-3,
# and the wave's masses with delta scaled by 1 + 1e-3
_ARGUMENT_FAULTS = {
    "none": lambda wave, t: (wave, t),
    "t": lambda wave, t: (wave, t * (1.0 + 1e-3)),
    "delta": lambda wave, t: (GaussianWave2D(wave.A, wave.b, wave.c,
                                             _scaled_delta(wave.params)), t),
}


@pytest.fixture(scope="module")
def lab_frame_fft_route():
    """The FFT route of test_image_term_against_fft_route, on its 441 x 150
    lab-frame grid."""
    wave0, t = _bounce(k=40.0, x0=-6.0, Sigma=0.25)
    mirrored = wave0.mirror_u()
    grid = grid_for_flight(mirrored, t)
    via_fft = fft_free_evolve(mirrored.evaluate(*grid.axes()), grid, 1.0, 99.0, t)
    return wave0, t, grid, via_fft


@pytest.mark.parametrize("fault", ["none", "t", "delta", "direct"])
def test_comoving_check_fails_where_the_lab_frame_check_fails(monkeypatch, lab_frame_fft_route,
                                                               fault):
    """The image_vs_fft check, run in the packet's co-moving frame, against
    the lab-frame distance with the same fault injected into image_term.

    A boost changes the distance only through the grids, so for the small t
    and delta faults the two distances agree far below the fault's size.
    delta scaled by 1 + 1e-3 moves the wave by 8.8e-4 in both frames, under
    the 1e-3 tolerance, so neither frame catches it."""
    wave0, t, grid, via_fft = lab_frame_fft_route
    if fault == "direct":
        def faulty(wave, t):
            return wave.free_evolve(t).negated()  # the unmirrored direct term
    else:
        real = propagation.image_term

        def faulty(wave, t):
            return real(*_ARGUMENT_FAULTS[fault](wave, t))

    lab = phase_aligned_l2(faulty(wave0, t).evaluate(*grid.axes()), via_fft, grid)
    monkeypatch.setattr(propagation, "image_term", faulty)
    check = check_image_vs_fft(None)

    assert check.passed == (lab <= check.tolerance)
    if fault in ("t", "delta"):
        assert check.deviation == pytest.approx(lab, rel=1e-6)
    if fault in ("t", "direct"):
        assert not check.passed
    if fault == "none":
        assert check.passed


def _quadratic_form(wave, x, X):
    """Reference: the exponent -z^T A z + b^T z + c, z = (x, X), expanded
    about the origin."""
    (a, c, d), b = wave.A, wave.b
    quad = a * x * x + 2.0 * c * x * X + d * X * X
    return np.exp(-quad + b[0] * x + b[1] * X + wave.c)


def _center_cov(wave):
    """Center and covariance of |psi|^2 from the quadratic form."""
    a, c, d = wave.A
    A = np.array([[a, c], [c, d]])
    return np.linalg.solve(2.0 * A.real, np.array(wave.b).real), np.linalg.inv(4.0 * A.real)


def _wave_family(M, Sigma, k, x0, t):
    p = collision_params(1.0, M)
    w = GaussianWave2D.from_product_state(initial_state(Sigma, 1.0, k), p, x_center=x0)
    return {
        "product": w,
        "mirrored": w.mirror_u(),
        "evolved": w.free_evolve(t),
        "negated": w.mirror_u().free_evolve(t).negated(),
    }


_CORNERS = [(-10.0, -10.0), (-10.0, 10.0), (10.0, -10.0), (10.0, 10.0), (0.0, 0.0)]


@settings(max_examples=60, deadline=None)
@given(
    M=st.floats(0.0, 4.0).map(lambda e: 10.0**e),
    Sigma=st.floats(0.2, 1.0),
    k=st.floats(-10.0, 10.0),
    x0=st.floats(-8.0, 0.0),
    t=st.floats(0.0, 2.0),
    offsets=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                     min_size=1, max_size=8),
)
def test_lab_frame_evaluate_matches_quadratic_form(M, Sigma, k, x0, t, offsets):
    """Points up to 10 standard deviations off-center along the Cholesky
    axes of each wave's lab-frame envelope."""
    s = np.array(offsets + _CORNERS).T
    for name, wave in _wave_family(M, Sigma, k, x0, t).items():
        center, cov = _center_cov(wave)
        x, X = center[:, None] + np.linalg.cholesky(cov) @ s
        np.testing.assert_allclose(wave.evaluate(x, X), _quadratic_form(wave, x, X),
                                   rtol=1e-12, atol=0.0, err_msg=name)


def test_evaluate_broadcast_axes_match_meshes():
    for name, wave in _wave_family(99.0, 0.25, 6.0, -6.0, 1.5).items():
        g = grid_for_state(wave, n=96)
        xx, XX = np.meshgrid(g.x_nodes(), g.X_nodes())
        on_mesh = wave.evaluate(xx, XX)
        np.testing.assert_array_equal(wave.evaluate(*g.axes()), on_mesh, err_msg=name)
        assert wave.evaluate(xx[7, 11], XX[7, 11]) == pytest.approx(on_mesh[7, 11], rel=1e-15)


def test_fixed_wall_limit_factorizes():
    """Huge wall mass and a narrow wall packet: the reflected wave is the
    product of independently evolved 1-D factors (with the recoil phase on
    the wall sector)."""
    m, M, sigma, Sigma, k, x0 = 1.0, 1e11, 1.0, 1.06e-5, 40.0, -8.0
    wave0, t = _bounce(m=m, M=M, Sigma=Sigma, sigma=sigma, k=k, x0=x0)
    p = wave0.params
    psi, g = _sampled(image_term(wave0, t), n=256)
    phi_x = free_evolve_gaussian_1d(g.x_nodes(), t, center=-x0, spread=sigma, k=-k, mass=m)
    gam_X = free_evolve_gaussian_1d(g.X_nodes(), t, center=0.0, spread=Sigma,
                                    k=2.0 * p.gamma * k, mass=M)
    ref = np.outer(gam_X, phi_x)
    dist = phase_aligned_l2(psi, ref, g)
    assert dist < 1e-4


def test_equal_mass_bounce_matches_entangled_form():
    """At the symmetric instant the reflected wave overlaps the closed-form
    bounced state at better than 1 - 1e-3 (equal masses, fast bounce)."""
    wave0, t = _bounce(m=1.0, M=1.0, Sigma=1.0, sigma=1.0, k=80.0, x0=-8.0, periods=1.0)
    sf = post_collision_state(initial_state(1.0, 1.0, 80.0), wave0.params)
    psi, g = _sampled(image_term(wave0, t), n=256)
    xx, XX = g.axes()
    W = np.outer(np.full(g.nX, g.dX), np.full(g.nx, g.dx))
    W[0, :] *= 0.5
    W[-1, :] *= 0.5
    W[:, 0] *= 0.5
    W[:, -1] *= 0.5
    overlap = abs(np.sum(W * np.conj(sf(xx, XX)) * psi))
    assert overlap > 1.0 - 1e-3


def test_direct_plus_image_vanishes_on_wall_line():
    """Dirichlet condition: the free term plus the (negated) image term that
    image_term returns vanishes at u = 0."""
    wave0, t = _bounce(k=6.0, periods=1.0)
    grid = GridSpec(x_min=-3.0, x_max=3.0, X_min=-3.0, X_max=3.0, nx=65, nX=65)
    psi = wave0.free_evolve(t).evaluate(*grid.axes())
    psi += image_term(wave0, t).evaluate(*grid.axes())
    diag = np.diagonal(psi)  # x = X, i.e. u = 0
    off = abs(psi).max()
    assert np.abs(diag).max() < 1e-10 * max(off, 1e-30) + 1e-12


def test_free_evolve_gaussian_1d_norm_and_drift():
    x = np.linspace(-60.0, 80.0, 4096)
    psi = free_evolve_gaussian_1d(x, t=3.0, center=-5.0, spread=1.0, k=4.0, mass=1.0)
    norm = np.trapezoid(np.abs(psi) ** 2, x=x)
    assert norm == pytest.approx(1.0, abs=1e-10)
    mean = np.trapezoid(x * np.abs(psi) ** 2, x=x)
    assert mean == pytest.approx(-5.0 + 4.0 * 3.0, abs=1e-8)


def test_phase_aligned_l2_recovers_phase():
    psi, grid = _sampled(image_term(*_bounce(k=6.0)), n=96)
    rotated = psi * np.exp(1j * 0.9)
    dist = phase_aligned_l2(rotated, psi, grid)
    assert dist < 1e-12
