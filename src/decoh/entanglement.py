"""Entanglement of the post-collision state via its reduced kernel.

Tracing the wall coordinate out of the bounced two-body Gaussian gives the
integral kernel

    F(x', x) = int dX Psi_F*(x', X) Psi_F(x, X)
             = sqrt(2 omega Omega / pi D)
               exp{-(x^2 + x'^2) omega Omega / D - (x - x')^2 E^2 / D
                   + i k (1 - 2 gamma)(x - x')},

    D   = Omega (gamma - delta)^2 + 4 omega gamma^2,
    rho = |(gamma - delta)(Omega delta - omega gamma)|,
    E^2 = 2 rho^2.

Completing the square in X fixes the off-diagonal coefficient at 2 rho^2;
the quadrature oracle confirms it pointwise.  Up to the irrelevant phase,
F is a Mehler (oscillator) kernel, so its spectrum is geometric:

    F_n = (1 - e^{-u}) e^{-n u},   sinh(u/2) = sqrt(omega Omega) / (2 rho).

The degree of entanglement is 1 - F_0 = z^2 with z = e^{-u/2}.  It vanishes
exactly when rho = 0: either equal masses, or matched spreads
Omega delta = omega gamma, i.e. Sigma^2/sigma^2 = delta/gamma.
"""

from __future__ import annotations

import math

from . import _Record, _positive
from .kinematics import CollisionParams, PostCollisionState

__all__ = [
    "KernelParams",
    "kernel_params",
    "reduced_kernel_eval",
    "largest_eigenvalue",
    "spectrum_values",
    "oscillator_kernel",
    "oscillator_kernel_spectrum",
    "optimal_spreads",
]

# rho below this fraction of sqrt(omega*Omega) counts as exactly matched;
# the corresponding 1 - F0 would be < 1e-24, far below double precision.
MATCHED_RTOL = 1e-12


class KernelParams(_Record):
    """Invariants of the reduced kernel.

    w = sqrt(omega Omega)/rho sets the spectrum through sinh(u/2) = w/2 and
    z = e^{-u/2}.  The matched flag marks the degenerate rho = 0 case, where
    w is infinite and the state is an exact product; u and z are then set to
    inf and 0 rather than fed through the formulas, and the spectrum, its
    tail e^{-n u} and 1 - F0 = z^2 take their product-state values as they are.
    """

    D: float
    rho: float
    w: float
    u: float
    z: float
    matched: bool


def kernel_params(s: PostCollisionState) -> KernelParams:
    """Compute D, rho and the spectral parameters w, u, z for a state."""
    g_minus_d = s.gamma - s.delta
    D = s.Omega * g_minus_d**2 + 4.0 * s.omega * s.gamma**2
    rho = abs(g_minus_d * (s.Omega * s.delta - s.omega * s.gamma))
    root_ww = math.sqrt(s.omega * s.Omega)
    if rho <= MATCHED_RTOL * root_ww:
        return KernelParams(D=D, rho=rho, w=math.inf, u=math.inf, z=0.0, matched=True)
    w = root_ww / rho
    u = _exponent(w)
    # z = sqrt(w^2/4 + 1) - w/2, rationalized to avoid cancellation at large w
    z = 1.0 / (math.sqrt(0.25 * w * w + 1.0) + 0.5 * w)
    return KernelParams(D=D, rho=rho, w=w, u=u, z=z, matched=False)


def reduced_kernel_eval(s: PostCollisionState, x, x_prime):
    """Closed form of F(x', x).  Broadcasts over x and x_prime.

    Hermitian by construction: F(x', x) = conj(F(x, x')).  The momentum
    enters only through the pure phase e^{iqx} e^{-iqx'}, q = k (1-2 gamma),
    which cannot move the eigenvalues; built as two factors, it stays a
    unitary similarity on a grid, where rounding q (x - x') would not.
    """
    import numpy as np

    kp = kernel_params(s)
    pref = np.sqrt(2.0 * s.omega * s.Omega / (np.pi * kp.D))
    diff = x - x_prime
    expo = (-(x * x + x_prime * x_prime) * (s.omega * s.Omega / kp.D)
            - diff * diff * (2.0 * kp.rho**2 / kp.D))
    q = s.k * (1.0 - 2.0 * s.gamma)
    return pref * np.exp(expo) * np.exp(1j * q * x) * np.exp(-1j * q * x_prime)


def _exponent(w: float) -> float:
    """u = 2 arcsinh(w/2), inf at w = inf, unless w is NaN or negative."""
    w = float(w)
    if math.isnan(w) or w < 0.0:
        raise ValueError(f"w must be non-negative, got {w}")
    return 2.0 * math.asinh(0.5 * w)


def largest_eigenvalue(w: float) -> float:
    """Largest kernel eigenvalue F0 = 1 - z^2 as a function of w.

    Evaluated as -expm1(-u) with u = 2 arcsinh(w/2), which keeps full
    precision in the small-w regime where F0 ~ w.  w = inf gives 1.
    """
    return -math.expm1(-_exponent(w))


def spectrum_values(w: float, n: int = 64) -> list[float]:
    """First n eigenvalues F_k = (1 - e^{-u}) e^{-k u}, k = 0..n-1, as floats.

    The eigenvalues form a geometric sequence summing to 1; the truncation
    tail is exactly e^{-n u}.  w = 0 has no normalizable spectrum and
    raises; w = inf returns the matched limit (1, 0, 0, ...).
    """
    if n < 1:
        raise ValueError(f"need at least one eigenvalue, got n={n}")
    u = _exponent(w)
    if u == 0.0:
        raise ValueError("w = 0 is degenerate: u = 0 gives no normalizable spectrum")
    if math.isinf(u):
        return [1.0] + [0.0] * (n - 1)
    F0 = -math.expm1(-u)
    values = []
    for k in range(n):
        factor = math.exp(-k * u)
        if factor == 0.0:  # and so is e^{-k u} at every later k
            break
        values.append(F0 * factor)
    return values + [0.0] * (n - len(values))


def oscillator_kernel(beta: float, u: float):
    """Evaluator for the oscillator (Mehler) kernel

        G(x, y) = sqrt(beta / (pi sinh u))
                  exp[-(beta/sinh u) ((x^2 + y^2) cosh u - 2 x y)].
    """
    beta, u = _positive("beta", beta), _positive("u", u)
    import numpy as np

    pref = np.sqrt(beta / (np.pi * np.sinh(u)))
    coef = beta / np.sinh(u)
    ch = np.cosh(u)

    def kernel(x, y):
        return pref * np.exp(-coef * ((x * x + y * y) * ch - 2.0 * x * y))

    return kernel


def oscillator_kernel_spectrum(u: float, n: int = 16):
    """Spectrum G_k = e^{-u (k + 1/2)} of the oscillator kernel, the same
    for every beta, which only rescales the eigenfunctions."""
    u = _positive("u", u)
    if n < 1:
        raise ValueError(f"need at least one eigenvalue, got n={n}")
    import numpy as np

    return np.exp(-u * (np.arange(n) + 0.5))


def optimal_spreads(sigma: float, p: CollisionParams) -> float:
    """Wall spread Sigma = sigma sqrt(delta/gamma) that kills entanglement.

    With this Sigma the post-collision state stays a product for any k, and
    the k = 0 overlap with the fixed-wall idealization is exactly 1.
    """
    return _positive("particle spread", sigma) * math.sqrt(p.delta / p.gamma)

