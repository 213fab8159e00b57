import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decoh import checks, gaussian, oracles, propagation
from decoh.entanglement import (
    kernel_params,
    largest_eigenvalue,
    oscillator_kernel,
    oscillator_kernel_spectrum,
    reduced_kernel_eval,
)
from decoh.error_bounds import overlap_amplitude
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
from decoh.oracles import (
    ALIAS_EPS,
    COVER_SIGMAS,
    GridSpec,
    gauss_legendre_rule,
    grid_for_state,
    hermitian_kernel_eigenvalues,
    kernel_eigensolve,
    oscillator_grid,
    quadrature_overlap,
    schmidt_decompose,
    spectral_counts,
)
from decoh.propagation import GaussianWave2D


def test_self_overlap_is_unity():
    s = initial_state(1.0, 1.0, 0.0)
    assert abs(quadrature_overlap(s, s).value - 1.0) < 1e-10


def test_trapezoid_and_gauss_legendre_agree(params_1_99):
    s = initial_state(0.8, 1.0, 1.5)
    sf = post_collision_state(s, params_1_99)
    t = ideal_reflected_state(s)
    a_tr = quadrature_overlap(t, sf, method="trapezoid").value
    a_gl = quadrature_overlap(t, sf, method="gauss-legendre").value
    assert abs(a_tr - a_gl) < 1e-10


def test_coarse_grid_overlap_still_converges():
    """dx * k = 1.5 here, yet the trapezoid rule is spectrally converged:
    the integrand |s|^2 carries no phase, and its spectrum, not either
    state's phase step, sets the error."""
    s = initial_state(1.0, 1.0, 6.0)
    coarse = GridSpec(x_min=-8, x_max=8, X_min=-8, X_max=8, nx=64, nX=64)
    assert abs(quadrature_overlap(s, s, grid=coarse).value - 1.0) < 1e-8


def test_spectral_counts_of_a_product_state():
    """A product state's spectrum is centered on (k, 0) with
    [Re(A^-1)^-1]_ii = 1/4 sigma_i^2, so the reach on axis i is
    |k_i| + sqrt(ln(1/ALIAS_EPS)) / sigma_i."""
    s = initial_state(0.5, 2.0, 3.0)
    A, b = s.quadratic_form()
    L = math.log(1.0 / ALIAS_EPS)
    reach = (3.0 + math.sqrt(L) / 2.0, math.sqrt(L) / 0.5)
    for period in (math.pi, 2.0 * math.pi):
        want = [math.ceil(w * r / period) + 1 for w, r in zip((10.0, 7.0), reach)]
        assert spectral_counts(A, b, period, (10.0, 7.0)) == want
    # the ideal reflection and a shift of the packet leave the counts alone
    assert spectral_counts(*ideal_reflected_state(s).quadratic_form(), math.pi, (10.0, 7.0)) \
        == spectral_counts(A, b, math.pi, (10.0, 7.0))


def _matrix(A):
    """The symmetric 2x2 array of a form's A = (a, c, d)."""
    a, c, d = A
    return np.array([[a, c], [c, d]])


_STATE_SETUPS = dict(
    M=st.floats(1.0, 1e4),
    Sigma=st.floats(0.05, 5.0),
    sigma=st.floats(0.05, 5.0),
    k=st.floats(0.0, 20.0),
    x0=st.floats(-10.0, 0.0),
    t=st.floats(0.05, 2.0),
)


def _sized_states(M, Sigma, sigma, k, x0, t):
    """Every state kind the sizer is asked to cover, one bounce setup."""
    p = collision_params(1.0, M)
    s0 = initial_state(Sigma, sigma, k)
    evolved = GaussianWave2D.from_product_state(s0, p, x_center=x0).mirror_u().free_evolve(t)
    return {"product": s0, "ideal": ideal_reflected_state(s0),
            "post-collision": post_collision_state(s0, p), "evolved wave": evolved}


@settings(max_examples=60, deadline=None)
@given(**_STATE_SETUPS)
@example(M=121.0, Sigma=4.5, sigma=0.6875, k=9.0, x0=0.0, t=1.0)
def test_quadratic_form_is_the_state(M, Sigma, sigma, k, x0, t):
    """Each state's (A, b) is its own exponent: psi(z) / psi(0) =
    exp(-z^T A z + b^T z) at points 3 standard deviations from the
    envelope's centre along the axes of |psi|^2's covariance Re(A)^-1 / 4.
    (The example is a tilted post-collision state whose box corner lies
    54 standard deviations out, where psi underflows.)"""
    for name, state in _sized_states(M, Sigma, sigma, k, x0, t).items():
        A, b = state.quadratic_form()
        A, b = _matrix(A), np.array(b)
        centre = np.array(state.envelope()[0])
        variances, axes = np.linalg.eigh(np.linalg.inv(A.real) / 4.0)
        for sign in (1.0, -1.0):
            for variance, axis in zip(variances, axes.T):
                z = centre + sign * 3.0 * math.sqrt(variance) * axis
                want = np.exp(-z @ A @ z + b @ z)
                got = state(*z) / state(0.0, 0.0)
                assert abs(got - want) <= 1e-9 * abs(want), name


@settings(max_examples=60, deadline=None)
@given(**_STATE_SETUPS)
def test_grid_for_one_state_keeps_its_box_and_samples_its_band(M, Sigma, sigma, k, x0, t):
    """One state: its COVER_SIGMAS box, at the counts its band limit
    needs (spectral_counts with period pi)."""
    for name, state in _sized_states(M, Sigma, sigma, k, x0, t).items():
        g = grid_for_state(state)
        (cx, cX), (sx, sX) = state.envelope()
        assert (g.x_min, g.x_max) == (cx - COVER_SIGMAS * sx, cx + COVER_SIGMAS * sx), name
        assert (g.X_min, g.X_max) == (cX - COVER_SIGMAS * sX, cX + COVER_SIGMAS * sX), name
        widths = (g.x_max - g.x_min, g.X_max - g.X_min)
        assert [g.nx, g.nX] == spectral_counts(*state.quadratic_form(), math.pi, widths), name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**_STATE_SETUPS)
def test_envelope_is_the_box_of_the_quadratic_form(M, Sigma, sigma, k, x0, t):
    """Each state's envelope() is the centre and the square roots of the
    covariance diagonal of gaussian.moments(*state.quadratic_form()).  Over
    20000 draws of these setups the worst gap, relative to the spread, was
    2.2e-16 for the product and ideal states, 5.9e-12 for the post-collision
    state, whose closed-form spreads the generic inverse matches only to
    its conditioning, and 0 for the evolved wave, whose envelope is that
    formula: 1e-10 leaves 17x headroom."""
    for name, state in _sized_states(M, Sigma, sigma, k, x0, t).items():
        centre, spreads = state.envelope()
        z0, (vx, _, vX) = gaussian.moments(*state.quadratic_form())
        for c, s, want_c, want_s in zip(centre, spreads, z0, (math.sqrt(vx), math.sqrt(vX))):
            assert abs(s - want_s) <= 1e-10 * want_s, name
            assert abs(c - want_c) <= 1e-10 * want_s, name


def _numpy_spectral_counts(A, b, period, widths):
    """spectral_counts as it was written with numpy: two LAPACK inverses."""
    A, b = _matrix(A), np.array(b)
    A_inv = np.linalg.inv(A)
    R_inv = np.linalg.inv(A_inv.real)
    w0 = R_inv @ (A_inv @ b).imag
    reach = np.abs(w0) + 2.0 * np.sqrt(math.log(1.0 / ALIAS_EPS) * np.diag(R_inv))
    return [math.ceil(w * r / period) + 1 for w, r in zip(widths, reach)]


@settings(max_examples=60, deadline=None)
@given(**_STATE_SETUPS)
def test_spectral_counts_are_the_numpy_formula(M, Sigma, sigma, k, x0, t):
    """The pure-Python counts of every state kind are the numpy formula's."""
    for name, state in _sized_states(M, Sigma, sigma, k, x0, t).items():
        g = grid_for_state(state)
        form = (*state.quadratic_form(), math.pi, (g.x_max - g.x_min, g.X_max - g.X_min))
        assert spectral_counts(*form) == _numpy_spectral_counts(*form), name


def test_verify_sizes_its_grids_as_the_numpy_formula_did(monkeypatch):
    """All 14 counts a self-sized verify takes, of states, pairs, the
    oscillator kernel and the flight grid, are the numpy formula's."""
    calls = []

    def spy(*form):
        calls.append(form)
        return spectral_counts(*form)

    monkeypatch.setattr(oracles, "spectral_counts", spy)
    monkeypatch.setattr(propagation, "spectral_counts", spy)
    assert all(check.passed for check in checks.run_verification())
    assert len(calls) == 14
    for form in calls:
        assert spectral_counts(*form) == _numpy_spectral_counts(*form), form


# grids of product, ideal, post-collision, pair, image-term and flight states
_GRID_LISTING = """
import random
from decoh import oracles, propagation
from decoh.kinematics import (collision_params, collision_params_from_delta,
                              ideal_reflected_state, initial_state, post_collision_state)
rng = random.Random(7)
for _ in range(40):
    sigma = 10.0 ** rng.uniform(-1.5, 1.5)
    s0 = initial_state(sigma * 10.0 ** rng.uniform(-1.5, 1.5), sigma, rng.uniform(-20.0, 20.0))
    sf = post_collision_state(s0, collision_params_from_delta(10.0 ** rng.uniform(-4.0, -0.3)))
    wave0 = propagation.GaussianWave2D.from_product_state(
        s0, collision_params(1.0, 10.0 ** rng.uniform(0.0, 4.0)), x_center=rng.uniform(-10.0, 0.0))
    t = rng.uniform(0.05, 2.0)
    for args in ((s0,), (ideal_reflected_state(s0),), (sf,), (ideal_reflected_state(s0), sf),
                 (propagation.image_term(wave0, t),)):
        print(oracles.grid_for_state(*args))
    print(propagation.grid_for_flight(wave0.mirror_u(), t))
"""


def test_grids_do_not_depend_on_the_blas_kernel():
    """Boxes and counts come from pure-Python 2x2 algebra, so the OpenBLAS
    kernel picked at run time cannot move their last bit: Prescott, a
    kernel without FMA, sizes the same grids as the host's default one."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(oracles.__file__).parents[1])
    default, prescott = (
        subprocess.run([sys.executable, "-c", _GRID_LISTING], capture_output=True, text=True,
                       env=kernel_env, check=True).stdout
        for kernel_env in (env, {**env, "OPENBLAS_CORETYPE": "Prescott"}))
    assert len(default.splitlines()) == 240
    assert default == prescott


def _gaussian_integral(a, b):
    """Exact int conj(a) b over the plane: the integrand is exp(-z^T A z +
    b^T z + c) with A, b summed from the two forms, and its integral is
    pi / sqrt(det A) exp(b^T A^-1 b / 4 + c), det A's principal root."""
    (Aa, ba), (Ab, bb) = a.quadratic_form(), b.quadratic_form()
    A, bv = np.conj(_matrix(Aa)) + _matrix(Ab), np.conj(ba) + np.array(bb)
    c = 0.5 * (math.log(a.norm) + math.log(b.norm))
    exponent = 0.25 * bv @ np.linalg.solve(A, bv) + c
    return np.pi / np.sqrt(complex(np.linalg.det(A))) * np.exp(exponent)


_PAIR_SETUPS = dict(delta=st.floats(1e-3, 0.5), Sigma=st.floats(0.2, 5.0), k=st.floats(0.0, 6.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**_PAIR_SETUPS)
def test_grid_for_a_pair_integrates_their_overlap(delta, Sigma, k):
    """Two states: the union of their boxes, sized for the integrand
    conj(a) b (period 2 pi).  The self-sized trapezoid overlap then meets
    the exact Gaussian integral to rounding, for every pair of product,
    ideal and post-collision states; the union box holds each state's own."""
    s0 = initial_state(Sigma, 1.0, k)
    states = {"product": s0, "ideal": ideal_reflected_state(s0),
              "post-collision": post_collision_state(s0, collision_params_from_delta(delta))}
    for a, b in (("ideal", "post-collision"), ("product", "post-collision"),
                 ("product", "ideal"), ("post-collision", "post-collision")):
        res = quadrature_overlap(states[a], states[b])
        assert abs(res.value - _gaussian_integral(states[a], states[b])) <= 1e-13, (a, b)
        g = res.grid
        for s in (states[a], states[b]):
            own = grid_for_state(s)
            assert g.x_min <= own.x_min and g.x_max >= own.x_max
            assert g.X_min <= own.X_min and g.X_max >= own.X_max


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**_PAIR_SETUPS)
def test_self_sized_svd_meets_the_largest_eigenvalue(delta, Sigma, k):
    """The SVD of a post-collision state sampled at its band limit reads
    the closed-form F0 to rounding."""
    sf = post_collision_state(initial_state(Sigma, 1.0, k), collision_params_from_delta(delta))
    sv = schmidt_decompose(sf).singular_values
    assert abs(sv[0] ** 2 - largest_eigenvalue(kernel_params(sf).w)) <= 1e-13


def test_the_rule_is_near_its_edge():
    """The overlap_closed_form check's k sigma = 4 pair reads rounding on
    its own grid and loses digits at two thirds of its counts: the rule
    buys accuracy with the points it takes, not with a margin."""
    s0 = initial_state(0.5, 1.0, 4.0)
    a, b = ideal_reflected_state(s0), post_collision_state(s0, collision_params_from_delta(0.05))
    exact = _gaussian_integral(a, b)
    g = quadrature_overlap(a, b).grid
    assert abs(quadrature_overlap(a, b, grid=g).value - exact) <= 1e-13
    coarse = GridSpec(g.x_min, g.x_max, g.X_min, g.X_max, nx=2 * g.nx // 3, nX=2 * g.nX // 3)
    assert abs(quadrature_overlap(a, b, grid=coarse).value - exact) > 1e-10


@settings(max_examples=30, deadline=None)
@given(**_STATE_SETUPS, n=st.integers(2, 4096))
def test_grid_n_sets_both_counts(M, Sigma, sigma, k, x0, t, n):
    states = list(_sized_states(M, Sigma, sigma, k, x0, t).values())
    for chosen in (states[:1], states[1:3]):
        g = grid_for_state(*chosen, n=n)
        free = grid_for_state(*chosen)
        assert (g.nx, g.nX) == (n, n)
        assert (g.x_min, g.x_max, g.X_min, g.X_max) == (
            free.x_min, free.x_max, free.X_min, free.X_max)


def test_n_is_the_count_even_below_the_rule(state_equal_spreads):
    """n = 8 is below every count the spectral rule takes here, and each
    oracle still samples exactly 8 points per axis, on the box of its
    self-sized grid: n is the count, not a floor.  Gauss-Legendre takes n
    nodes too; only a self-sized grid is scaled up by pi/2 for it."""
    state = state_equal_spreads
    free = grid_for_state(state)
    assert min(free.nx, free.nX) > 8
    g = grid_for_state(state, n=8)
    assert (g.nx, g.nX) == (8, 8)
    assert (g.x_min, g.x_max, g.X_min, g.X_max) == (free.x_min, free.x_max,
                                                    free.X_min, free.X_max)
    assert schmidt_decompose(state, n=8).grid == g
    assert kernel_eigensolve(state, n=8).grid == g
    assert len(oscillator_grid(1.0, 0.7)) > 8
    assert len(oscillator_grid(1.0, 0.7, n=8)) == 8
    pair = grid_for_state(state, state)
    assert min(pair.nx, pair.nX) > 8
    for method in ("trapezoid", "gauss-legendre"):
        g = grid_for_state(state, state, n=8)
        assert quadrature_overlap(state, state, grid=g, method=method).grid == g, method
    self_sized = quadrature_overlap(state, state, method="gauss-legendre").grid
    assert (self_sized.nx, self_sized.nX) == (math.ceil(0.5 * math.pi * pair.nx),
                                              math.ceil(0.5 * math.pi * pair.nX))


def test_gauss_legendre_refinement_approaches_closed_form():
    """96- and 192-node Gauss-Legendre grids both reach the closed-form
    amplitude (5.2e-7 here) and each other to within 1e-14."""
    p = collision_params_from_delta(0.05)
    s = initial_state(0.5, 1.0, 6.0)
    sf = post_collision_state(s, p)
    t = ideal_reflected_state(s)
    closed = overlap_amplitude(0.25, 6.0, p)
    r96, r192 = (quadrature_overlap(t, sf, grid=grid_for_state(sf, n=n),
                                    method="gauss-legendre").value for n in (96, 192))
    assert abs(abs(r96) - closed) <= 1e-14
    assert abs(abs(r192) - closed) <= 1e-14
    assert abs(r96 - r192) <= 1e-14


def _bounce(delta=0.01, Sigma=1.0, k=1.0):
    """(ideal, post): the fixed-wall ideal and the post-collision state."""
    s = initial_state(Sigma, 1.0, k)
    return ideal_reflected_state(s), post_collision_state(s, collision_params_from_delta(delta))


def _rule(g, method):
    """(x, X, wx, wX): g's 1-D nodes and weights under the quadrature rule."""
    if method == "trapezoid":
        x, X = g.x_nodes(), g.X_nodes()
        wx, wX = np.full(g.nx, g.dx), np.full(g.nX, g.dX)
        wx[[0, -1]] *= 0.5
        wX[[0, -1]] *= 0.5
        return x, X, wx, wX
    (tx, wx), (tX, wX) = gauss_legendre_rule(g.nx), gauss_legendre_rule(g.nX)
    half_x, half_X = 0.5 * (g.x_max - g.x_min), 0.5 * (g.X_max - g.X_min)
    return (0.5 * (g.x_max + g.x_min) + half_x * tx, 0.5 * (g.X_max + g.X_min) + half_X * tX,
            wx * half_x, wX * half_X)


def _one_shot_overlap(a, b, g, method):
    """sum_i u_i sum_j E_ij v_j on all of g's nx x nX envelope samples at
    once; a is a product state, so E is b's envelope."""
    x, X, wx, wX = _rule(g, method)
    (pa, qa), (pb, qb) = a.one_body_factors(x, X), b.one_body_factors(x, X)
    u, v = wX * np.conj(qa) * qb, wx * np.conj(pa) * pb
    re, im = np.stack((v.real, v.imag))
    env = b.two_body_envelope(x[None, :], X[:, None])
    return complex(u @ (env @ re + 1j * (env @ im)))


def _elementwise_overlap(a, b, g, method):
    """wX @ (conj(a) * b) @ wx on all of g's nx x nX samples of both states."""
    x, X, wx, wX = _rule(g, method)
    x, X = x[None, :], X[:, None]
    return complex(wX @ (np.conj(a(x, X)) * b(x, X)) @ wx)


def test_quadrature_holds_one_block_of_samples():
    """A 1024 x 1024 quadrature traces a peak of 0.6 MB: one block of rows
    at a time, where all 2^20 samples and their products took 59 MB."""
    ideal, post = _bounce()
    tracemalloc.start()
    try:
        quadrature_overlap(ideal, post, grid=grid_for_state(ideal, post, n=1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("method", ["trapezoid", "gauss-legendre"])
def test_blocked_quadrature_matches_one_shot(method):
    """The sum over row blocks is the one-shot factored sum to rounding (up
    to 5.0e-16 relative measured) on a ragged last block (300 rows, 27 per
    block) and on rows longer than a block (one row each), and exactly on a
    grid of one block.  It is the elementwise sum of conj(a) b over both
    states' samples to rounding too (up to 4.3e-16 relative measured)."""
    ideal, post = _bounce()
    box = grid_for_state(ideal, post)
    ragged = grid_for_state(ideal, post, n=300)
    long_rows = GridSpec(box.x_min, box.x_max, box.X_min, box.X_max,
                         nx=oracles.BLOCK_POINTS + 808, nX=20)
    assert oracles.BLOCK_POINTS // ragged.nx == 27 and ragged.nX % 27
    one_block = grid_for_state(ideal, post, n=64)
    for g in (ragged, long_rows, one_block):
        value = quadrature_overlap(ideal, post, grid=g, method=method).value
        exact = _one_shot_overlap(ideal, post, g, method)
        assert abs(value - exact) <= 1e-15 * abs(exact), g
        elementwise = _elementwise_overlap(ideal, post, g, method)
        assert abs(value - elementwise) <= 1e-15 * abs(elementwise), g
    assert (quadrature_overlap(ideal, post, grid=one_block, method=method).value
            == _one_shot_overlap(ideal, post, one_block, method))


def test_a_quadrature_over_the_byte_cap_is_refused_unsampled(monkeypatch):
    """The quadrature holds one block but computes all nx x nX samples: a
    grid whose 16-byte samples total more than MAX_SAMPLE_BYTES is refused
    before either state is sampled, also a self-sized Gauss-Legendre grid
    once it is widened past the trapezoid's."""
    ideal, post = _bounce()
    calls = []
    envelope = PostCollisionState.two_body_envelope
    monkeypatch.setattr(PostCollisionState, "two_body_envelope",
                        lambda self, x, X: calls.append(1) or envelope(self, x, X))
    monkeypatch.setattr(oracles, "MAX_SAMPLE_BYTES", 16 * 64 * 64)
    with pytest.raises(ValueError, match="a 65 x 65 sample takes 67600 bytes"):
        quadrature_overlap(ideal, post, grid=grid_for_state(ideal, post, n=65))
    pair = grid_for_state(ideal, post)
    monkeypatch.setattr(oracles, "MAX_SAMPLE_BYTES", 16 * pair.nx * pair.nX)
    wide = f"a {math.ceil(0.5 * math.pi * pair.nX)} x {math.ceil(0.5 * math.pi * pair.nx)} sample"
    with pytest.raises(ValueError, match=wide):
        quadrature_overlap(ideal, post, method="gauss-legendre")
    assert calls == []
    assert quadrature_overlap(ideal, post).grid == pair and calls


def test_a_quadrature_computes_the_one_body_factors_once(monkeypatch):
    """A 512 x 512 quadrature takes each state's 1-D factors once, on the
    nodes, and samples only the envelope once per block of 16 rows."""
    ideal, post = _bounce(k=0.5)
    calls = []

    def spy(cls, name):
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, x, X: calls.append(
            (type(self).__name__, name, np.shape(x), np.shape(X))) or method(self, x, X))

    for cls, name in ((GaussianProductState, "one_body_factors"),
                      (PostCollisionState, "one_body_factors"),
                      (PostCollisionState, "two_body_envelope")):
        spy(cls, name)
    quadrature_overlap(ideal, post, grid=grid_for_state(ideal, post, n=512))
    assert calls[:2] == [("IdealReflectedState", "one_body_factors", (512,), (512,)),
                         ("PostCollisionState", "one_body_factors", (512,), (512,))]
    assert calls[2:] == [("PostCollisionState", "two_body_envelope", (1, 512), (16, 1))] * 32


def test_a_product_by_product_quadrature_samples_no_envelope(monkeypatch):
    """Two product states have no two-body envelope: their overlap is the
    product of two 1-D sums, with no sample of the 8192 x 8192 grid, no
    block and so no BLAS scope, and it meets the exact Gaussian integral."""
    s0 = initial_state(0.7, 1.3, 2.0)
    ideal = ideal_reflected_state(s0)
    assert s0.two_body_envelope is None and ideal.two_body_envelope is None
    blas = _blas_recorder(monkeypatch)
    sampled = []
    for cls in (GaussianProductState, IdealReflectedState):
        call = cls.__call__
        monkeypatch.setattr(cls, "__call__",
                            lambda self, x, X, call=call: sampled.append(1) or call(self, x, X))
    for a, b in ((s0, ideal), (s0, s0), (ideal, ideal)):
        value = quadrature_overlap(a, b, grid=grid_for_state(a, b, n=8192)).value
        assert abs(value - _gaussian_integral(a, b)) <= 1e-13, (a, b)
    assert sampled == [] and blas.calls == []


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**_PAIR_SETUPS, n=st.integers(1, 64))
def test_a_sample_is_its_envelope_times_its_one_body_factors(delta, Sigma, k, n):
    """Each state's sample is, bitwise, its envelope (none for a product)
    times its particle factor times its wall factor, so the SVD sees the
    same samples the pieces give the quadrature."""
    s0 = initial_state(Sigma, 1.0, k)
    g = GridSpec(-6.0, 7.0, -5.0, 4.0, nx=n, nX=n + 3)
    x, X = g.axes()
    for s in (s0, ideal_reflected_state(s0),
              post_collision_state(s0, collision_params_from_delta(delta))):
        particle, wall = s.one_body_factors(x, X)
        env = s.two_body_envelope
        pieces = particle * wall if env is None else env(x, X) * particle * wall
        np.testing.assert_array_equal(s(x, X), pieces)


_RULE_SIZES = [1, 2, 5, 64, 96, 512, 1062, 2048]


@pytest.mark.parametrize("n", _RULE_SIZES)
def test_gauss_legendre_rule_is_symmetric_and_matches_numpy(n):
    """Nodes odd- and weights even-symmetric, exactly; both within rounding
    of numpy's leggauss.  The weights are compared relative to the largest
    one: leggauss's own endpoint weight is 6.3e-8 off elementwise at
    n = 2048 (see the endpoint test below)."""
    x, w = gauss_legendre_rule(n)
    assert x.shape == w.shape == (n,)
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.abs(x - ref_x).max() <= 1e-15
    assert np.abs(w - ref_w).max() <= 1e-8 * ref_w.max()
    assert abs(w.sum() - 2.0) <= 1e-15


def test_gauss_legendre_rule_needs_a_node():
    with pytest.raises(ValueError, match="at least 1 node, got 0"):
        gauss_legendre_rule(0)


def test_gauss_legendre_rule_endpoint_weight():
    """The smallest weight of the 2048-point rule against a 40-digit
    reference (Newton and the Christoffel sum in multiprecision), where
    leggauss gives 1.7683832551e-06."""
    _, w = gauss_legendre_rule(2048)
    assert w[0] == pytest.approx(1.768383366666071e-06, rel=1e-9)


@pytest.mark.parametrize("n", [n for n in _RULE_SIZES if n >= 64])
def test_gauss_legendre_rule_integrates_to_rounding(n):
    """e^x, cos(omega x) with omega = min(n/2, 500) and e^{-30 x^2} over
    [-1, 1], each within 2e-15 of its closed form."""
    x, w = gauss_legendre_rule(n)
    omega = min(n / 2, 500)
    cases = [
        (np.exp(x), math.e - 1.0 / math.e),
        (np.cos(omega * x), 2.0 * math.sin(omega) / omega),
        (np.exp(-30.0 * x * x), math.sqrt(math.pi / 30.0) * math.erf(math.sqrt(30.0))),
    ]
    for f, exact in cases:
        assert abs(w @ f - exact) <= 2e-15


def test_real_samples_take_real_lapack(monkeypatch, state_equal_spreads):
    """At k = 0 the sampled state and the reduced kernel are complex arrays
    with an imaginary part of exactly 0; the oracles hand LAPACK their real
    part, and the leading values match the complex route to rounding."""
    g = grid_for_state(state_equal_spreads)
    m = state_equal_spreads(*g.axes()) * np.sqrt(g.dx * g.dX)
    nodes = g.x_nodes()
    K = reduced_kernel_eval(state_equal_spreads, x=nodes[None, :], x_prime=nodes[:, None])
    K = 0.5 * (K + K.conj().T) * (nodes[1] - nodes[0])
    assert m.dtype == K.dtype == complex and not m.imag.any() and not K.imag.any()
    sv_complex = np.linalg.svd(m, compute_uv=False)
    eigs_complex = np.linalg.eigvalsh(K)[::-1]

    dtypes = []

    def spy(fn):
        def wrapped(a, *args, **kwargs):
            dtypes.append(a.dtype)
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(oracles.np.linalg, "svd", spy(np.linalg.svd))
    monkeypatch.setattr(oracles.np.linalg, "eigvalsh", spy(np.linalg.eigvalsh))
    sv = schmidt_decompose(state_equal_spreads).singular_values
    eigs = kernel_eigensolve(state_equal_spreads).eigenvalues
    assert dtypes == [np.float64, np.float64]
    assert np.abs(sv[:5] - sv_complex[:5]).max() <= 1e-14
    assert np.abs(eigs[:5] - eigs_complex[:5]).max() <= 1e-14


def _svd_spy(monkeypatch, key=lambda a: a.dtype):
    """key(a) of each array a that reaches oracles' np.linalg.svd, appended
    per call: by default its dtype."""
    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(key(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(oracles.np.linalg, "svd", spy)
    return seen


def _complex_svd(state, n=None):
    """Singular values of state's sample as schmidt_decompose scales it, by
    complex LAPACK, and whether its pivot row or column underflows."""
    g = grid_for_state(state, n=n)
    m = state(*g.axes()) * np.sqrt(g.dx * g.dX)
    r, c = np.unravel_index(np.argmax(np.abs(m)), m.shape)
    underflow = min(np.abs(m[r]).min(), np.abs(m[:, c]).min()) < np.finfo(float).tiny
    return np.linalg.svd(m, compute_uv=False), underflow


# Weyl's bound for the dropped imaginary part, 8 eps ||m||_F, plus the two
# SVDs' rounding; separable query samples read at most 6.3e-16
_REAL_ROUTE_ATOL = 4e-15


def test_one_body_phases_take_real_lapack(monkeypatch):
    """A k != 0 post-collision sample has the one-body phase of its carrier:
    the oracle strips it, hands LAPACK a float64 matrix and reads the
    complex SVD's values to rounding."""
    sf = post_collision_state(initial_state(2.1, 1.3, 0.4), collision_params_from_delta(0.01))
    sv_complex, _ = _complex_svd(sf, n=256)
    dtypes = _svd_spy(monkeypatch)
    sv = schmidt_decompose(sf, n=256).singular_values
    assert dtypes == [np.float64]
    norm = math.sqrt(np.sum(sv_complex**2))
    assert np.abs(sv - sv_complex).max() <= _REAL_ROUTE_ATOL * norm


@settings(max_examples=60, deadline=None, derandomize=True)
@given(delta=st.floats(1e-4, 0.5), sigma=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
       ratio=st.floats(-4.0, 1.0).map(lambda e: 10.0**e),
       k_sigma=st.floats(-3.0, 6.0).map(lambda e: 10.0**e), sign=st.sampled_from((1.0, -1.0)),
       n=st.sampled_from((8, 32, 64, 128, 256)))
@example(delta=0.01, sigma=1.0, ratio=1.0, k_sigma=1e6, sign=1.0, n=16)
@example(delta=1e-4, sigma=10.0, ratio=10.0, k_sigma=1e6, sign=-1.0, n=8)
def test_real_route_over_the_query_domain(delta, sigma, ratio, k_sigma, sign, n):
    """Every post-collision sample over query's entangle --grid ranges
    (delta, sigma, Sigma^2/sigma^2 and signed k sigma from 1e-3 to 1 on 64-
    to 256-point grids), and with |k sigma| up to 1e6 and grids down to 8
    points, reaches LAPACK as float64 unless its pivot row or column
    underflows, and reads the complex SVD's singular values to
    _REAL_ROUTE_ATOL of its norm: the carrier's phases grow with k, the
    stripped remainder does not."""
    s0 = initial_state(sigma * math.sqrt(ratio), sigma, sign * k_sigma / sigma)
    sf = post_collision_state(s0, collision_params_from_delta(delta))
    sv_complex, underflow = _complex_svd(sf, n=n)
    with pytest.MonkeyPatch.context() as mp:
        dtypes = _svd_spy(mp)
        sv = schmidt_decompose(sf, n=n).singular_values
    assert dtypes == [np.complex128 if underflow else np.float64]
    norm = math.sqrt(np.sum(sv_complex**2))
    assert np.abs(sv - sv_complex).max() <= _REAL_ROUTE_ATOL * norm


def _entangling_carrier(monkeypatch, eps=0.01):
    """Fault: the post-collision carrier gains exp(i eps k x X), a phase no
    one-body unitary removes, which vanishes at k = 0."""
    call = PostCollisionState.__call__

    def faulty(self, x, X):
        return call(self, x, X) * np.exp(1j * eps * self.k * x * X)

    monkeypatch.setattr(PostCollisionState, "__call__", faulty)


def test_a_non_separable_phase_stays_complex(monkeypatch):
    """With an entangling carrier the stripped sample keeps an imaginary
    part far above the tolerance: the scaling is undone, the sample goes
    to complex LAPACK and reads the complex SVD's values to rounding."""
    _entangling_carrier(monkeypatch)
    sf = post_collision_state(initial_state(1.0, 1.0, 3.0), collision_params_from_delta(0.01))
    sv_complex, underflow = _complex_svd(sf)
    assert not underflow
    dtypes = _svd_spy(monkeypatch)
    sv = schmidt_decompose(sf).singular_values
    assert dtypes == [np.complex128]
    assert np.abs(sv - sv_complex).max() <= 1e-15


def _dtype_and_shape(a):
    return a.dtype, a.shape


@pytest.mark.parametrize("n", [256, 64])
def test_a_centred_sample_takes_its_parity_blocks(monkeypatch, n):
    """A centred post-collision state is even under (x, X) -> (-x, -X): its
    stripped sample on the origin-centred box is centrosymmetric to an ulp
    of the nodes.  LAPACK takes its two n/2 x n/2 parity blocks in one
    stacked float64 call, and the halved values read the complex SVD's."""
    sf = post_collision_state(initial_state(2.1, 1.3, 0.4), collision_params_from_delta(0.01))
    sv_complex, _ = _complex_svd(sf, n=n)
    calls = _svd_spy(monkeypatch, key=_dtype_and_shape)
    sv = schmidt_decompose(sf, n=n).singular_values
    assert calls == [(np.float64, (2, n // 2, n // 2))]
    assert sv.shape == sv_complex.shape and np.all(np.diff(sv) <= 0.0)
    norm = math.sqrt(np.sum(sv_complex**2))
    assert np.abs(sv - sv_complex).max() <= _REAL_ROUTE_ATOL * norm


def _parity_breaking_envelope(monkeypatch):
    """Fault: the post-collision sample gains the real factor 1 + 1e-6 x,
    odd in x, which keeps its phase one-body but breaks its parity."""
    call = PostCollisionState.__call__
    monkeypatch.setattr(PostCollisionState, "__call__",
                        lambda self, x, X: call(self, x, X) * (1.0 + 1e-6 * x))


@pytest.mark.parametrize("case", ["odd size", "parity fault"])
def test_other_real_samples_reach_lapack_whole(monkeypatch, case):
    """A real sample of odd size (63), or one whose parity a real fault
    breaks far beyond _PARITY_TOL, goes to LAPACK as one 2-D float64 array
    and reads the complex SVD's values."""
    n = 63 if case == "odd size" else 64
    if case == "parity fault":
        _parity_breaking_envelope(monkeypatch)
    sf = post_collision_state(initial_state(2.1, 1.3, 0.4), collision_params_from_delta(0.01))
    sv_complex, _ = _complex_svd(sf, n=n)
    calls = _svd_spy(monkeypatch, key=_dtype_and_shape)
    sv = schmidt_decompose(sf, n=n).singular_values
    assert calls == [(np.float64, (n, n))]
    norm = math.sqrt(np.sum(sv_complex**2))
    assert np.abs(sv - sv_complex).max() <= _REAL_ROUTE_ATOL * norm


def test_k_independence_still_kills_an_entangling_carrier(monkeypatch):
    """The check samples the carrier at k = 3/sigma; the fault moves its F0
    by about 1.7e-4, far past the check's 1e-6."""
    assert checks.check_k_independence(None).passed
    _entangling_carrier(monkeypatch)
    result = checks.check_k_independence(None)
    assert not result.passed and result.deviation > 1e-4


def test_the_image_term_keeps_its_chirp(monkeypatch):
    """Free flight is a product of one-body unitaries, but not diagonal
    ones: the image_f0 check's image term carries the bilinear chirp
    -2 Im(A_xX) x X, which no diagonal unitary strips.  Its sample goes to
    complex LAPACK and reads the complex SVD's values to rounding."""
    _, _, wave0, t = checks._bounce(k_sigma=6.0, x0_sigmas=8.0, Sigma=0.3)
    image = propagation.image_term(wave0, t)
    assert image.A[1].imag != 0.0
    sv_complex, underflow = _complex_svd(image)
    assert not underflow
    dtypes = _svd_spy(monkeypatch)
    sv = schmidt_decompose(image).singular_values
    assert dtypes == [np.complex128]
    assert np.abs(sv - sv_complex).max() <= 1e-15


def test_an_underflowing_pivot_keeps_the_complex_sample(monkeypatch):
    """A strongly correlated state (Sigma = sigma / 100, delta = 0.3) has
    pivot-row entries that underflow to 0, whose phase is lost: nothing is
    scaled, and complex LAPACK reads exactly the complex SVD's values."""
    sf = post_collision_state(initial_state(0.01, 1.0, 0.5), collision_params_from_delta(0.3))
    sv_complex, underflow = _complex_svd(sf, n=64)
    assert underflow
    dtypes = _svd_spy(monkeypatch)
    sv = schmidt_decompose(sf, n=64).singular_values
    assert dtypes == [np.complex128]
    assert np.array_equal(sv, sv_complex)


def test_a_sample_over_the_byte_cap_is_refused_unsampled(monkeypatch, state_equal_spreads):
    """The SVD and the kernel eigensolve refuse a sample over
    MAX_SAMPLE_BYTES before they sample anything, and say its size."""
    monkeypatch.setattr(oracles, "MAX_SAMPLE_BYTES", 16 * 64 * 64)
    calls = []
    call = PostCollisionState.__call__
    monkeypatch.setattr(PostCollisionState, "__call__",
                        lambda self, x, X: calls.append(1) or call(self, x, X))
    with pytest.raises(ValueError, match="a 65 x 65 sample takes 67600 bytes"):
        schmidt_decompose(state_equal_spreads, n=65)
    with pytest.raises(ValueError, match="65536 bytes of oracles.MAX_SAMPLE_BYTES"):
        kernel_eigensolve(state_equal_spreads, n=65)
    with pytest.raises(ValueError, match="a 65 x 65 sample"):
        hermitian_kernel_eigenvalues(oscillator_kernel(1.0, 0.7), oscillator_grid(1.0, 0.7, n=65))
    assert calls == []
    assert len(schmidt_decompose(state_equal_spreads, n=64).singular_values) == 64
    assert len(kernel_eigensolve(state_equal_spreads, n=64).eigenvalues) == 64


def test_the_default_cap_refuses_a_self_sized_correlated_state():
    """Sigma = 1000 sigma needs a 59985 x 59985 spectral grid: 57.6 GB, far
    over the default cap, refused before anything is allocated."""
    sf = post_collision_state(initial_state(1e3, 1.0, 0.0), collision_params_from_delta(0.01))
    g = grid_for_state(sf)
    assert 16 * g.nx * g.nX > oracles.MAX_SAMPLE_BYTES == 2**30
    with pytest.raises(ValueError, match=f"a {g.nX} x {g.nx} sample takes"):
        schmidt_decompose(sf)


class _BlasRecorder:
    """A stand-in for OpenBLAS's thread count, which is the process's: it
    records every count oracles sets and answers with the count it
    replaces."""

    def __init__(self, count):
        self.count, self.calls = count, []

    def set(self, n):
        self.calls.append(n)
        previous, self.count = self.count, n
        return previous

    def get(self):
        return self.count


def _blas_recorder(monkeypatch, count=7):
    blas = _BlasRecorder(count)
    monkeypatch.setattr(oracles, "_blas_threads", lambda: (blas.set, blas.get))
    return blas


def _blas_scoped_calls():
    """The two oracle calls the query workload's --grid calls make, an SVD
    at 256^2 and a quadrature at 512^2, and verify's third LAPACK oracle,
    the kernel eigensolve, at 256 nodes (all k = 0.5)."""
    ideal, post = _bounce(k=0.5)
    pair = grid_for_state(ideal, post, n=512)
    return {"schmidt_decompose": lambda: schmidt_decompose(post, n=256).singular_values,
            "quadrature_overlap": lambda: quadrature_overlap(ideal, post, grid=pair).value,
            "kernel_eigensolve": lambda: kernel_eigensolve(post, n=256).eigenvalues}


@pytest.mark.parametrize("oracle", ["schmidt_decompose", "quadrature_overlap",
                                    "kernel_eigensolve"])
def test_an_oracle_runs_on_one_blas_thread_and_restores_the_count(monkeypatch, oracle):
    blas = _blas_recorder(monkeypatch)
    _blas_scoped_calls()[oracle]()
    assert blas.calls == [1, 7] and blas.count == 7


def test_the_blas_count_is_restored_when_the_svd_raises(monkeypatch):
    blas = _blas_recorder(monkeypatch)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(oracles.np.linalg, "svd", fail)
    with pytest.raises(RuntimeError, match="SVD failed on grid"):
        schmidt_decompose(_bounce(k=0.5)[1], n=256)
    assert blas.calls == [1, 7]


@pytest.mark.parametrize("count, meanwhile", [(7, 3), (1, 2)])
def test_a_count_set_elsewhere_while_a_scope_is_open_stands(monkeypatch, count, meanwhile):
    """The scope restores only a count that still reads its 1.  In the
    second case a thread limiter held the count at 1 when the scope
    opened and gave back 2 before it closed; a blind restore would leave
    the process on one thread for good."""
    blas = _blas_recorder(monkeypatch, count)
    with oracles._one_blas_thread():
        blas.count = meanwhile
    assert blas.calls == [1] and blas.count == meanwhile


def test_overlapping_scopes_set_and_restore_the_count_once(monkeypatch):
    """The setter's count is the process's in numpy's OpenBLAS, so scopes
    open on two threads at once set it on the first entry and restore it on
    the last exit; one restore per scope would leave it at 1."""
    blas = _blas_recorder(monkeypatch)
    entered, release = threading.Event(), threading.Event()

    def hold():
        with oracles._one_blas_thread():
            entered.set()
            release.wait(10.0)

    other = threading.Thread(target=hold)
    other.start()
    try:
        assert entered.wait(10.0)
        with oracles._one_blas_thread():
            pass
        assert blas.calls == [1]
    finally:
        release.set()
        other.join(10.0)
    assert not other.is_alive()
    assert blas.calls == [1, 7]


@pytest.mark.parametrize("setter", ["recorder", "OpenBLAS"])
def test_without_the_setter_the_oracles_read_exactly_the_same(monkeypatch, setter):
    """No setter runs the same code; with OpenBLAS's own setter, one thread
    reads the same bits as the default count.  The kernel eigensolve is left
    out: on two threads its complex eigvalsh at 256 nodes rounds the
    smallest eigenvalues, near 1e-17, differently than on one."""
    if setter == "recorder":
        _blas_recorder(monkeypatch)
    elif oracles._blas_threads() is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread count setter")
    calls = _blas_scoped_calls()
    del calls["kernel_eigensolve"]
    scoped = {name: call() for name, call in calls.items()}
    monkeypatch.setattr(oracles, "_blas_threads", lambda: None)
    for name, call in calls.items():
        np.testing.assert_array_equal(call(), scoped[name], err_msg=name)


def _thread_cpu_seconds() -> dict[int, float]:
    """User plus system CPU time of each thread of this process."""
    tick = os.sysconf("SC_CLK_TCK")
    times = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread ended
            continue
        times[int(tid)] = (int(fields[11]) + int(fields[12])) / tick
    return times


def test_no_blas_worker_spins_through_a_quadrature():
    """At 512^2 each block's wX @ f @ wx went to OpenBLAS's other threads,
    which busy-waited through the whole call: on a 2-core host they used as
    much CPU as the calling thread (0.64 s against 0.64 s per 100 calls).
    A worker also spins for about 0.1 s after the last call handed to it,
    so the count starts after 0.25 s of quadratures.  A host too busy to
    give this thread 0.5 s of CPU within 60 s skips the test."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no per-thread CPU times in /proc")
    if oracles._blas_threads() is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread count setter")
    ideal, post = _bounce(k=0.5)
    me = threading.get_native_id()
    warm = time.monotonic() + 0.25
    while time.monotonic() < warm:
        quadrature_overlap(ideal, post, grid=grid_for_state(ideal, post, n=512))
    before = _thread_cpu_seconds()
    deadline = time.monotonic() + 60.0
    while True:
        quadrature_overlap(ideal, post, grid=grid_for_state(ideal, post, n=512))
        used = {tid: t - before.get(tid, 0.0) for tid, t in _thread_cpu_seconds().items()}
        if used[me] >= 0.5 or time.monotonic() > deadline:
            break
    if used[me] < 0.5:
        pytest.skip(f"this thread got only {used[me]:.2f} s of CPU in 60 s")
    others = sum(t for tid, t in used.items() if tid != me)
    assert others <= 0.25 * used[me], (used[me], others)


def test_oracles_deterministic(state_equal_spreads):
    sv1 = schmidt_decompose(state_equal_spreads, n=128).singular_values
    sv2 = schmidt_decompose(state_equal_spreads, n=128).singular_values
    np.testing.assert_array_equal(sv1, sv2)


def test_schmidt_product_state_rank_one():
    p = collision_params(1.0, 1.0)
    sf = post_collision_state(initial_state(0.7, 1.0, 1.0), p)
    sv = schmidt_decompose(sf, n=256).singular_values
    assert sv[0] ** 2 == pytest.approx(1.0, abs=1e-10)


def test_schmidt_spectrum_matches_closed_form(state_equal_spreads):
    kp = kernel_params(state_equal_spreads)
    sv = schmidt_decompose(state_equal_spreads).singular_values
    assert sv[0] ** 2 == pytest.approx(0.6318, abs=1e-4)
    assert sv[0] ** 2 == pytest.approx(largest_eigenvalue(kp.w), abs=1e-6)
    assert np.sum(sv**2) == pytest.approx(1.0, abs=1e-6)
    ratios = sv[1:5] ** 2 / sv[0:4] ** 2
    np.testing.assert_allclose(ratios, np.exp(-kp.u), atol=1e-4)


def test_schmidt_transposed_route_equivalent(state_equal_spreads):
    """Tracing out the wall or the particle gives the same top eigenvalue."""
    g = grid_for_state(state_equal_spreads, n=256)
    m = state_equal_spreads(*g.axes()) * np.sqrt(g.dx * g.dX)
    sv_X = np.linalg.svd(m, compute_uv=False)
    sv_x = np.linalg.svd(m.T, compute_uv=False)
    assert abs(sv_X[0] ** 2 - sv_x[0] ** 2) < 1e-8


def test_kernel_eigensolve_matches_schmidt(state_equal_spreads):
    eig = kernel_eigensolve(state_equal_spreads).eigenvalues
    sv = schmidt_decompose(state_equal_spreads).singular_values
    np.testing.assert_allclose(eig[:5], sv[:5] ** 2, atol=1e-6)
    assert eig.sum() == pytest.approx(1.0, abs=1e-6)
    assert eig.min() >= -1e-10


def test_kernel_eigensolve_with_momentum_phase(params_1_99):
    """The kernel phase makes the matrix complex Hermitian; eigenvalues are
    unchanged by it."""
    sf0 = post_collision_state(initial_state(1.0, 1.0, 0.0), params_1_99)
    sf3 = post_collision_state(initial_state(1.0, 1.0, 3.0), params_1_99)
    e0 = kernel_eigensolve(sf0, n=256).eigenvalues
    e3 = kernel_eigensolve(sf3, n=256).eigenvalues
    np.testing.assert_allclose(e0[:6], e3[:6], atol=1e-10)


def test_discretized_kernel_hermitian_to_rounding(params_1_99):
    sf = post_collision_state(initial_state(1.0, 1.0, 2.0), params_1_99)
    nodes = grid_for_state(sf, n=256).x_nodes()
    K = reduced_kernel_eval(sf, x=nodes[None, :], x_prime=nodes[:, None]) * (
        nodes[1] - nodes[0]
    )
    assert np.abs(K - K.conj().T).max() < 1e-12


def test_schmidt_refinement_stability(state_equal_spreads):
    """Doubling the grid leaves the top squared singular value unchanged to
    well below every tolerance used against it."""
    f0_256 = schmidt_decompose(state_equal_spreads, n=256).singular_values[0] ** 2
    f0_512 = schmidt_decompose(state_equal_spreads, n=512).singular_values[0] ** 2
    assert abs(f0_512 - f0_256) < 1e-10


def test_non_hermitian_kernel_rejected():
    nodes = np.linspace(-5.0, 5.0, 64)
    with pytest.raises(RuntimeError, match="kernel bug"):
        hermitian_kernel_eigenvalues(
            lambda xp, x: np.exp(-(x - 0.3 * xp) ** 2), nodes
        )


@pytest.mark.parametrize("beta", [0.1, 10.0])
def test_oscillator_kernel_eigensolve(beta):
    u = 0.7
    nodes = oscillator_grid(beta, u, n=512)
    eigs = hermitian_kernel_eigenvalues(oscillator_kernel(beta, u), nodes)
    np.testing.assert_allclose(eigs[:5], oscillator_kernel_spectrum(u, 5), atol=1e-6)


def test_oscillator_kernel_beta_independent_numerically():
    u = 0.7
    eigs = []
    for beta in (0.1, 10.0):
        nodes = oscillator_grid(beta, u, n=512)
        eigs.append(hermitian_kernel_eigenvalues(oscillator_kernel(beta, u), nodes)[:5])
    np.testing.assert_allclose(eigs[0], eigs[1], atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(
    delta=st.floats(1e-3, 0.5),
    Sigma=st.floats(0.2, 5.0),
    k=st.floats(0.0, 6.0).map(lambda e: 10.0**e),
    n=st.integers(8, 96),
)
# the phase once came from one exp of i q (x - x'), whose rounding at k = 1e6
# moved the kernel eigenvalues by 1.7e-12
@example(delta=0.15625, Sigma=0.4375, k=1e6, n=10)
# and the sampled state's from one full-grid exp of i k b, whose rounding
# moved the fifth singular value by 1.0e-12
@example(delta=0.359375, Sigma=0.748046875, k=1e6, n=9)
def test_forced_grid_spectra_do_not_depend_on_k(delta, Sigma, k, n):
    """The post-collision phase k [x(1 - 2 gamma) + 2 gamma X] is separable:
    on one forced grid it multiplies the sampled state by a diagonal unitary
    on each side, and the kernel by a unitary similarity, so the leading
    singular values and kernel eigenvalues match those at k = 0 however
    coarse the grid.  Levels below about 1e-12 sit at the rounding floor of
    the phase, which grows like k, so only the leading five are compared."""
    p = collision_params_from_delta(delta)
    moving = post_collision_state(initial_state(Sigma, 1.0, k), p)
    still = post_collision_state(initial_state(Sigma, 1.0, 0.0), p)
    assert grid_for_state(moving, n=n) == grid_for_state(still, n=n)
    np.testing.assert_allclose(schmidt_decompose(moving, n=n).singular_values[:5],
                               schmidt_decompose(still, n=n).singular_values[:5],
                               rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(kernel_eigensolve(moving, n=n).eigenvalues[:5],
                               kernel_eigensolve(still, n=n).eigenvalues[:5],
                               rtol=0.0, atol=1e-12)
