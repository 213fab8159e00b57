"""Time-domain evolution with the exact hard-wall image propagator.

The two-body problem separates in center-of-mass coordinates R, u and the
hard wall at u = 0 admits the method of images: the full propagator is

    G(R'', u'', t; R', u') = g_M(R'' - R', t) [g_mu(u'' - u', t)
                                               - g_mu(u'' + u', t)],

with g_m(y, t) = sqrt(m / (2 pi i hbar t)) exp(i m y^2 / (2 hbar t)) the
free propagator, total mass M + m on the center of mass and reduced mass
m M/(M + m) on the relative coordinate (hbar = 1 here).  The image term is
free propagation of the u-mirrored initial state, so an initial Gaussian
stays Gaussian: everything is done in closed form on complex quadratic
exponents, and only the final state is sampled on a grid.

The propagator separates in (R, u), but GaussianWave2D works in the lab
coordinates (x, X): there the u-mirror is one fixed linear map, the
arguments of the bounced state Psi_F, and free flight is diagonal with the
masses m and M, so no step converts between frames.

A bounce experiment is the GaussianWave2D of its initial product packet,
and image_term(wave, t) is its image term at time t.  The independent
cross-check route evolves the sampled mirrored state with an FFT kinetic
step instead; the two must agree to grid accuracy.
"""

from __future__ import annotations

import math

import numpy as np

from . import _Record, gaussian
from .kinematics import CollisionParams, GaussianProductState
from .oracles import GridSpec, _trapezoid_weights, spectral_counts

__all__ = [
    "GaussianWave2D",
    "image_term",
    "fft_free_evolve",
    "phase_aligned_l2",
    "grid_for_flight",
]

# envelope cover, in standard deviations, of a grid that holds a wave over
# its whole free flight: the FFT step wraps anything that reaches an edge.
# The image_vs_fft check's deviation is an L2 distance of amplitudes, so the
# cut enters it as the square root of the mass left outside: at band-limit
# counts it read 1.26e-8 at 8 sigma, 1.41e-9 at 8.5 and 1.38e-10 at 9.  The
# inner-product oracles see the mass itself, so oracles.COVER_SIGMAS = 8
# leaves them at rounding.
FLIGHT_COVER_SIGMAS = 8.5


class GaussianWave2D(_Record):
    """Complex Gaussian wave exp(-z^T A z + b^T z + c) in the lab coordinates
    z = (x, X) that every state, grid and oracle uses.

    A = (a, c, d) is the complex symmetric [[a, c], [c, d]] with
    positive-definite real part, so the wave is normalizable, and b is a
    complex pair (decoh.gaussian).  Free evolution, the bounce and
    pointwise evaluation are closed-form in this frame; only the image
    propagator is written in the center-of-mass frame (R, u), where it
    separates.
    """

    A: tuple
    b: tuple
    c: complex
    params: CollisionParams

    @classmethod
    def from_product_state(cls, s: GaussianProductState, p: CollisionParams,
                           x_center: float = 0.0) -> "GaussianWave2D":
        """Product packet Gamma(X) Phi(x - x0) e^{i k (x - x0)}: A is diagonal."""
        aP = 1.0 / (4.0 * s.sigma**2)
        A = (complex(aP), 0j, complex(1.0 / (4.0 * s.Sigma**2)))
        b = (2.0 * aP * x_center + 1j * s.k, 0j)
        c = -aP * x_center**2 - 1j * s.k * x_center + 0.5 * math.log(s.norm)
        return cls(A=A, b=b, c=complex(c), params=p)

    def mirror_u(self) -> "GaussianWave2D":
        """Reverse the relative coordinate u = x - X at fixed center of mass.

        That is the linear map z -> S z, S = [[1 - 2 gamma, 2 gamma],
        [2 delta, 1 - 2 delta]], whose rows are the particle and wall
        arguments of Psi_F (see kinematics); S^2 = 1.
        """
        p = self.params
        S = ((1.0 - 2.0 * p.gamma, 2.0 * p.gamma), (2.0 * p.delta, 1.0 - 2.0 * p.delta))
        A, b = gaussian.congruence(self.A, self.b, S)
        return GaussianWave2D(A, b, self.c, p)

    def negated(self) -> "GaussianWave2D":
        return GaussianWave2D(self.A, self.b, self.c + 1j * math.pi, self.params)

    def modulated(self, k) -> "GaussianWave2D":
        """The wave times the plane wave e^{i k . z}, k an (x, X) pair."""
        b = (self.b[0] + 1j * k[0], self.b[1] + 1j * k[1])
        return GaussianWave2D(self.A, b, self.c, self.params)

    def free_evolve(self, t: float) -> "GaussianWave2D":
        """Evolve under H = p_x^2/2m + p_X^2/2M for time t
        (gaussian.free_flight)."""
        if t == 0.0:
            return self
        p = self.params
        A, b, c = gaussian.free_flight(self.A, self.b, self.c, (1.0 / p.m, 1.0 / p.M), t)
        return GaussianWave2D(A, b, c, p)

    def evaluate(self, x, X) -> np.ndarray:
        """Sample the wave; broadcasts over x, X.

        Works on the exponent expanded about the probability center
        z0 = (2 Re A)^{-1} Re b,

            -(z - z0)^T A (z - z0) + beta^T (z - z0) + c0,

        so the per-axis terms cost 1-D work on broadcast node axes
        (x[None, :], X[:, None]) and only the cross term and the single
        complex exp run over the full grid.  The exponents are summed before
        the exp so strongly correlated tails cannot underflow factor by
        factor.
        """
        a, c, d = self.A
        b = self.b
        z0, _ = gaussian.moments(self.A, b)
        Az0 = gaussian.apply(self.A, z0)
        beta = (b[0] - 2.0 * Az0[0], b[1] - 2.0 * Az0[1])
        c0 = self.c + (b[0] * z0[0] + b[1] * z0[1]) - (z0[0] * Az0[0] + z0[1] * Az0[1])
        xi = np.asarray(x, dtype=float) - z0[0]
        eta = np.asarray(X, dtype=float) - z0[1]
        z = (-2.0 * c * xi) * eta
        z += (beta[0] - a * xi) * xi + c0
        z += (beta[1] - d * eta) * eta
        return np.exp(z, out=z) if isinstance(z, np.ndarray) else np.exp(z)

    def __call__(self, x, X) -> np.ndarray:
        return self.evaluate(x, X)

    def schmidt_matrix(self, x, X) -> np.ndarray:
        """The wave without its one-body phases: the imaginary parts of a,
        d, b and c make phases of x or X alone, diagonal unitaries on a
        grid, so dropping them keeps the singular values.  What is left is
        the modulus times the chirp e^{-2 i Im(A_xX) x X}, real exactly when
        Im A_xX = 0.  Broadcasts over x, X."""
        a, c, d = self.A
        A = (a.real, c if c.imag else c.real, d.real)
        wave = GaussianWave2D(A, (self.b[0].real, self.b[1].real), self.c.real, self.params)
        return wave.evaluate(x, X)

    def quadratic_form(self):
        """(A, b), for grid sizing as for the kinematics states."""
        return self.A, self.b

    def envelope(self):
        """(centers, spreads), each an (x, X) pair: the center and standard
        deviations of |psi|^2 (gaussian.moments), which set a grid's box."""
        z0, (vx, _, vX) = gaussian.moments(self.A, self.b)
        return z0, (math.sqrt(vx), math.sqrt(vX))


def grid_for_flight(wave: GaussianWave2D, t: float) -> GridSpec:
    """One grid holding a wave over its free flight from time 0 to t.

    The one sizer besides oracles.grid_for_state, which covers states at a
    single instant: the FFT step wraps anything that reaches an edge, so
    each axis spans FLIGHT_COVER_SIGMAS envelope widths (the wider of start
    and end) beyond both the start and the end center.  Free flight
    multiplies the wave's Fourier transform by a phase, so the spectrum of
    the wave at time 0 holds for the whole flight: the counts are
    oracles.spectral_counts for a sampled wave (period pi).  The lab-frame
    wave of the image_vs_fft check, carrier k sigma = 40, needs 441 x 150;
    the check flies its carrier-free envelope instead, which stays put and
    needs 37 x 37.
    """
    (c0, s0), (c1, s1) = wave.envelope(), wave.free_evolve(t).envelope()
    sx, sX = max(s0[0], s1[0]), max(s0[1], s1[1])
    x_lo = min(c0[0], c1[0]) - FLIGHT_COVER_SIGMAS * sx
    x_hi = max(c0[0], c1[0]) + FLIGHT_COVER_SIGMAS * sx
    X_lo = min(c0[1], c1[1]) - FLIGHT_COVER_SIGMAS * sX
    X_hi = max(c0[1], c1[1]) + FLIGHT_COVER_SIGMAS * sX
    nx, nX = spectral_counts(wave.A, wave.b, math.pi, (x_hi - x_lo, X_hi - X_lo))
    return GridSpec(x_min=x_lo, x_max=x_hi, X_min=X_lo, X_max=X_hi, nx=nx, nX=nX)


def image_term(wave: GaussianWave2D, t: float) -> GaussianWave2D:
    """The image term of the hard-wall propagator applied to wave for time t:
    the u-mirrored wave, freely evolved and negated.

    Added to the direct term wave.free_evolve(t) it vanishes on the wall
    line u = 0; once incoming and outgoing packets have separated it is the
    whole reflected wave.
    """
    return wave.mirror_u().free_evolve(t).negated()


def fft_free_evolve(psi: np.ndarray, grid: GridSpec, m: float, M: float,
                    t: float) -> np.ndarray:
    """Free evolution of grid samples by an exact kinetic step in k-space.

    Independent of the Gaussian algebra above; accuracy is set purely by the
    grid (the packet must stay inside it for the whole evolution).

    One spectrum array is allocated and everything after the first transform
    runs in place on it: the transforms go axis by axis with out= (numpy's
    ifft2 allocates two full-grid intermediates even with out=), and the
    kinetic phase exp(-i t (kx^2/2m + kX^2/2M)) is applied as its two 1-D
    factors.  psi is left untouched.
    """
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, d=grid.dx)
    kX = 2.0 * np.pi * np.fft.fftfreq(grid.nX, d=grid.dX)
    spec = np.fft.fft(psi, axis=-1)
    np.fft.fft(spec, axis=-2, out=spec)
    spec *= np.exp(-1j * t * kx**2 / (2.0 * m))[None, :]
    spec *= np.exp(-1j * t * kX**2 / (2.0 * M))[:, None]
    np.fft.ifft(spec, axis=-2, out=spec)
    return np.fft.ifft(spec, axis=-1, out=spec)


def phase_aligned_l2(candidate: np.ndarray, reference: np.ndarray,
                     grid: GridSpec) -> float:
    """Relative L2 distance after optimizing away the global phase: the
    candidate is rotated by the theta that maximizes
    Re<reference | candidate e^{-i theta}>.  The 2-D trapezoid rule is the
    product of the two 1-D rules, applied as wX @ f @ wx.
    """
    wX = _trapezoid_weights(grid.nX, grid.dX)
    wx = _trapezoid_weights(grid.nx, grid.dx)
    ip = wX @ (np.conj(reference) * candidate) @ wx
    theta = float(np.angle(ip))
    diff = candidate * np.exp(-1j * theta)
    diff -= reference
    num = math.sqrt(float(wX @ (np.abs(diff) ** 2) @ wx))
    del diff
    den = math.sqrt(float(wX @ (np.abs(reference) ** 2) @ wx))
    return num / den
