"""Cross-validation suite: every closed form against an independent oracle.

Each check pins one analytic result to a brute-force computation that never
touches the formula it is checking: quadrature against the overlap
amplitude, SVD of the sampled state against the kernel spectrum, a dense
eigensolve against the oscillator-kernel lemma, X-integration against the
reduced-kernel closed form, and two independent propagation pipelines
against each other.  All parameters are fixed, so runs are deterministic.
"""

from __future__ import annotations

from contextvars import ContextVar

import numpy as np

from . import _Record
from . import entanglement as ent
from . import error_bounds as eb
from . import oracles, propagation
from .kinematics import (
    collision_params,
    collision_params_from_delta,
    ideal_reflected_state,
    initial_state,
    post_collision_state,
)

__all__ = ["VerificationCheck", "run_verification", "CHECK_NAMES"]

# spectrum levels the SVD and eigensolve checks compare; a grid_n grid needs
# at least this many points per axis to have them
_LEVELS = 5
# singular values by (state, grid_n) for the run_verification call in
# progress in this thread, so that checks sharing a state share its SVD;
# None outside a run
_svd_memo: ContextVar[dict | None] = ContextVar("_svd_memo", default=None)


class VerificationCheck(_Record):
    name: str
    tolerance: float
    deviation: float
    passed: bool
    detail: str


def _result(name: str, tol: float, dev: float, detail: str) -> VerificationCheck:
    return VerificationCheck(name=name, tolerance=tol, deviation=float(dev),
                             passed=bool(dev <= tol), detail=detail)


def _grid(state, grid_n: int | None) -> oracles.GridSpec | None:
    """The caller's grid_n x grid_n grid over state, or None when the
    oracle is to size its own."""
    return None if grid_n is None else oracles.grid_for_state(state, n=grid_n)


def _singular_values(state, grid_n: int | None) -> np.ndarray:
    """Singular values of state sampled on grid_for_state(state, n=grid_n),
    computed once per run_verification call."""
    memo, key = _svd_memo.get(), (state, grid_n)
    if memo is not None and key in memo:
        return memo[key]
    sv = oracles.schmidt_decompose(state, n=grid_n).singular_values
    if memo is not None:
        memo[key] = sv
    return sv


def _state(Sigma, sigma, k, delta):
    """(s0, sf, p): the product packet, its post-collision state and the
    collision params at mass fraction delta; Sigma "auto" is matched to sigma."""
    p = collision_params_from_delta(delta)
    s0 = initial_state(ent.optimal_spreads(sigma, p) if Sigma == "auto" else Sigma, sigma, k)
    return s0, post_collision_state(s0, p), p


def check_matched_overlap(grid_n: int | None) -> VerificationCheck:
    """Quadrature overlap is 1 at the matched spread ratio with k = 0."""
    s0, sf, _ = _state("auto", 1.0, 0.0, 0.01)
    res = oracles.quadrature_overlap(ideal_reflected_state(s0), sf, grid=_grid(sf, grid_n))
    dev = abs(abs(res.value) - 1.0)
    return _result("matched_overlap", 1e-8, dev, "matched spreads, k=0: |quadrature A| vs 1")


def check_overlap_closed_form(grid_n: int | None) -> VerificationCheck:
    """Quadrature overlap against the closed-form amplitude, mixed momenta."""
    cases = [
        (1.0, 1.0, 0.0, 0.01),   # Sigma, sigma, k, delta
        (1.0, 1.0, 1.0, 0.01),
        (0.5, 1.0, 4.0, 0.05),
    ]
    worst = 0.0
    for Sigma, sigma, k, delta in cases:
        s0, sf, p = _state(Sigma, sigma, k, delta)
        res = oracles.quadrature_overlap(ideal_reflected_state(s0), sf, grid=_grid(sf, grid_n))
        closed = eb.overlap_amplitude((Sigma / sigma) ** 2, k * sigma, p)
        worst = max(worst, abs(abs(res.value) - closed))
    return _result("overlap_closed_form", 1e-8, worst,
                   f"|quadrature| vs closed form over {len(cases)} states")


def check_gauss_legendre_overlap(grid_n: int | None) -> VerificationCheck:
    """Gauss-Legendre route to a strongly oscillatory overlap.

    At k sigma = 8 the node count genuinely limits accuracy, so this check
    carries the visible grid-refinement signal in coarse --grid runs.
    """
    s0, sf, p = _state(0.5, 1.0, 8.0, 0.05)
    res = oracles.quadrature_overlap(ideal_reflected_state(s0), sf, grid=_grid(sf, grid_n),
                                     method="gauss-legendre")
    closed = eb.overlap_amplitude((s0.Sigma / s0.sigma) ** 2, s0.k * s0.sigma, p)
    dev = abs(abs(res.value) - closed)
    return _result("gauss_legendre_overlap", 1e-8, dev,
                   "|GL quadrature| vs closed form at k sigma = 8")


def check_schmidt_f0(grid_n: int | None) -> VerificationCheck:
    """SVD largest squared singular value against F0 = 1 - z^2."""
    _, sf, _ = _state(1.0, 1.0, 0.0, 0.01)
    kp = ent.kernel_params(sf)
    sv = _singular_values(sf, grid_n)
    dev = abs(sv[0] ** 2 - ent.largest_eigenvalue(kp.w))
    return _result("schmidt_f0", 1e-6, dev, "equal spreads, delta=0.01")


def check_schmidt_ratios(grid_n: int | None) -> VerificationCheck:
    """Successive squared singular values fall geometrically with e^{-u}."""
    _, sf, _ = _state(1.0, 1.0, 0.0, 0.01)
    kp = ent.kernel_params(sf)
    sv = _singular_values(sf, grid_n)
    ratios = sv[1:_LEVELS] ** 2 / sv[0:_LEVELS - 1] ** 2
    dev = float(np.max(np.abs(ratios - np.exp(-kp.u))))
    return _result("schmidt_ratios", 1e-4, dev, f"first {_LEVELS} levels vs e^{{-u}}")


def check_kernel_eigensolve(grid_n: int | None) -> VerificationCheck:
    """Dense eigensolve of the discretized kernel against the geometric law."""
    _, sf, _ = _state(1.0, 1.0, 0.0, 0.01)
    kp = ent.kernel_params(sf)
    eigs = oracles.kernel_eigensolve(sf, n=grid_n).eigenvalues
    dev = float(np.max(np.abs(eigs[:_LEVELS] - ent.spectrum_values(kp.w, _LEVELS))))
    return _result("kernel_eigensolve", 1e-6, dev, f"first {_LEVELS} eigenvalues vs spectrum")


def check_oscillator_lemma(grid_n: int | None) -> VerificationCheck:
    """Oscillator kernel reproduces e^{-u(n+1/2)} for very different beta."""
    u = 0.7
    expected = ent.oscillator_kernel_spectrum(u, _LEVELS)
    devs = []
    spectra = []
    for beta in (0.1, 10.0):
        nodes = oracles.oscillator_grid(beta, u, n=grid_n)
        eigs = oracles.hermitian_kernel_eigenvalues(ent.oscillator_kernel(beta, u), nodes)
        spectra.append(eigs[:_LEVELS])
        devs.append(float(np.max(np.abs(eigs[:_LEVELS] - expected))))
    cross = float(np.max(np.abs(spectra[0] - spectra[1])))
    dev = max(max(devs), cross)
    return _result("oscillator_lemma", 1e-6, dev,
                   f"beta in (0.1, 10): vs exact (cross-beta {cross:.2e})")


def check_reduced_kernel(grid_n: int | None) -> VerificationCheck:
    """Direct X-integration against the closed-form reduced kernel.  The
    integrand conj(sf(x', X)) sf(x, X) is the overlap integrand of sf with
    itself at fixed particle coordinates, so sf's overlap grid sizes X."""
    _, sf, _ = _state(1.0, 1.0, 0.7, 0.01)
    g = oracles.grid_for_state(sf, sf, n=grid_n)
    _, (sx, _) = sf.envelope()
    xs = np.linspace(-2.0 * sx, 2.0 * sx, 5)
    rows = sf(xs[:, None], g.X_nodes()[None, :])  # rows[i, j] = sf(xs[i], X_j)
    numeric = (np.conj(rows) * oracles._trapezoid_weights(g.nX, g.dX)) @ rows.T
    closed = ent.reduced_kernel_eval(sf, x=xs[None, :], x_prime=xs[:, None])
    worst = float(np.max(np.abs(numeric - closed)))
    return _result("reduced_kernel", 1e-8, worst,
                   "5x5 pointwise X-integration vs closed form")


def check_k_independence(grid_n: int | None) -> VerificationCheck:
    """Momentum leaves the SVD-oracle largest eigenvalue unchanged."""
    _, sf, _ = _state(1.0, 1.0, 3.0, 0.01)
    _, sf0, _ = _state(1.0, 1.0, 0.0, 0.01)
    sv_k = _singular_values(sf, grid_n)
    sv_0 = _singular_values(sf0, grid_n)
    dev = abs(sv_k[0] ** 2 - sv_0[0] ** 2)
    return _result("k_independence", 1e-6, dev, "SVD F0 at k=3/sigma vs k=0")


def check_matched_momentum(grid_n: int | None) -> VerificationCheck:
    """Matched spreads stay a product state even at high momentum."""
    _, sf, _ = _state("auto", 1.0, 10.0, 0.01)
    sv = _singular_values(sf, grid_n)
    dev = abs(1.0 - sv[0] ** 2)
    return _result("matched_momentum", 1e-6, dev,
                   "SVD F0 at matched spreads, k=10/sigma")


def _bounce(k_sigma: float, x0_sigmas: float, Sigma: float):
    """(s0, p, wave0, t): a sigma = 1 packet x0_sigmas spreads left of a wall
    99 times heavier, moving toward it with k sigma = k_sigma, and the time
    t = 2 |x0| m / k it needs to reach the wall and come back as far."""
    p = collision_params(1.0, 99.0)
    s0 = initial_state(Sigma, 1.0, k_sigma)
    wave0 = propagation.GaussianWave2D.from_product_state(s0, p, x_center=-x0_sigmas)
    return s0, p, wave0, 2.0 * x0_sigmas * p.m / k_sigma


def check_image_f0(grid_n: int | None) -> VerificationCheck:
    """SVD F0 of the image term long after the bounce against the static
    closed form.  Free evolution is a product of one-body unitaries, so it
    leaves the Schmidt spectrum unchanged whether or not the incoming and
    outgoing packets have separated; the check needs no separation and
    carries no warning.  The SVD samples the chirped image wave to its band
    limit (oracles.grid_for_state); grid_n is ignored."""
    s0, p, wave0, t = _bounce(k_sigma=6.0, x0_sigmas=8.0, Sigma=0.3)
    image = propagation.image_term(wave0, t)
    sv = oracles.schmidt_decompose(image).singular_values
    f0_closed = ent.largest_eigenvalue(ent.kernel_params(post_collision_state(s0, p)).w)
    dev = abs(sv[0] ** 2 - f0_closed)
    return _result("image_f0", 1e-3, dev, "SVD F0 of evolved reflected wave vs closed form")


def check_image_vs_fft(grid_n: int | None) -> VerificationCheck:
    """Image-term Gaussian algebra against an FFT kinetic-step evolution.

    Both routes are compared in the packet's co-moving frame.  Free flight
    under p_x^2/2m + p_X^2/2M is Galilean invariant: if the wave at t = 0 is
    e^{i k0 . z} phi(z, 0), then

        psi(z, t) = e^{i k0 . z - i w t} phi(z - v t, t),
        v = (k0_x/m, k0_X/M),  w = k0_x^2/2m + k0_X^2/2M,

    with phi(., t) the free evolution of the envelope phi(., 0).  k0 is the
    mirrored wave's phase gradient at t = 0, Im b, uniform because its
    quadratic form A is real then.  The FFT route evolves the sampled,
    demodulated envelope; the image route samples the bounced wave on the
    grid moved by v t and demodulates it by e^{-i k0 . z} there.  The phase
    alignment takes up the constant phase w t and the image term's minus
    sign, which only the image route carries; the unit-modulus factors
    leave the L2 distance as it is in the lab.  Neither route has a direct
    term, so whether the incoming and outgoing packets have separated does
    not enter.  The envelope needs no carrier resolved and does not travel,
    so its flight grid (propagation.grid_for_flight) is 37 x 37 where the
    lab wave needs hundreds of points per axis.  The grid is sized here;
    grid_n is ignored.
    """
    _, p, wave0, t = _bounce(k_sigma=40.0, x0_sigmas=6.0, Sigma=0.25)
    mirrored = wave0.mirror_u()
    k0 = tuple(v.imag for v in mirrored.b)
    minus_k0 = (-k0[0], -k0[1])
    shift = (t * k0[0] / p.m, t * k0[1] / p.M)

    envelope = mirrored.modulated(minus_k0)
    grid = propagation.grid_for_flight(envelope, t)
    moved = oracles.GridSpec(grid.x_min + shift[0], grid.x_max + shift[0],
                             grid.X_min + shift[1], grid.X_max + shift[1], grid.nx, grid.nX)
    via_image = propagation.image_term(wave0, t).modulated(minus_k0).evaluate(*moved.axes())
    via_fft = propagation.fft_free_evolve(envelope.evaluate(*grid.axes()), grid, p.m, p.M, t)
    dist = propagation.phase_aligned_l2(via_image, via_fft, grid)
    return _result("image_vs_fft", 1e-3, dist, "L2 distance")


_CHECKS = [
    check_matched_overlap,
    check_overlap_closed_form,
    check_gauss_legendre_overlap,
    check_schmidt_f0,
    check_schmidt_ratios,
    check_kernel_eigensolve,
    check_oscillator_lemma,
    check_reduced_kernel,
    check_k_independence,
    check_matched_momentum,
    check_image_f0,
    check_image_vs_fft,
]

CHECK_NAMES = [fn.__name__.removeprefix("check_") for fn in _CHECKS]


def run_verification(grid_n: int | None = None) -> list[VerificationCheck]:
    """Run every check at its own tolerance, each oracle on a grid it sizes
    itself or, given grid_n, on exactly grid_n x grid_n points.

    A self-sized grid keeps its box and takes the largest step at which the
    sampled Gaussian's Fourier transform is below oracles.ALIAS_EPS of its
    peak where the trapezoid rule or the band limit would meet it
    (oracles.spectral_counts); that needs tens of points per axis, not
    hundreds.  For the SVD and eigensolve checks the rule covers the
    sampled state or kernel, not the singular values themselves; there the
    measured deviation stays the judge.

    grid_n is the one size of every quadrature, SVD and eigensolve grid, the
    oscillator nodes and the reduced-kernel X nodes; the two propagation
    checks, image_f0 and image_vs_fft, size their own grids and ignore it.
    A grid_n grid is not judged in advance: each check's deviation from its
    closed form measures what the grid resolves.  grid_n is validated before
    any check runs, and refused when its N x N sample would exceed
    oracles.MAX_SAMPLE_BYTES.  Checks that sample the same state on the same grid
    share one SVD within the call; nothing is kept between calls.
    """
    if grid_n is not None and grid_n < _LEVELS:
        raise ValueError(f"grid must have at least {_LEVELS} points per axis, got {grid_n}: "
                         f"the checks compare {_LEVELS} spectrum levels")
    if grid_n is not None:
        oracles._check_sample_bytes(grid_n, grid_n)
    token = _svd_memo.set({})
    try:
        return [fn(grid_n) for fn in _CHECKS]
    finally:
        _svd_memo.reset(token)
