"""Two-body kinematics of an elastic particle-wall collision.

A light particle (mass m, coordinate x) bounces off a heavy but fully
quantum wall (mass M, coordinate X).  Both start in Gaussian packets,

    Psi_I(x, X) = sqrt(N) exp(-X^2/4Sigma^2) exp(-x^2/4sigma^2 + i k x),

with N = 1/(2 pi sigma Sigma).  A hard-wall elastic collision reverses the
relative coordinate u = x - X while leaving the center of mass
R = (m x + M X)/(M + m) untouched, which entangles the two coordinates:

    Psi_F(x, X) = sqrt(N) exp{-Omega [X(1-2d) + 2d x]^2
                              -omega [x(1-2g) + 2g X]^2
                              + i k [x(1-2g) + 2g X]},

with Omega = 1/4Sigma^2, omega = 1/4sigma^2 and mass fractions
d = m/(M+m), g = M/(M+m).  Natural units, hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CollisionParams",
    "GaussianProductState",
    "PostCollisionState",
    "IdealReflectedState",
    "collision_params",
    "collision_params_from_delta",
    "initial_state",
    "post_collision_state",
    "ideal_reflected_state",
]


@dataclass(frozen=True)
class CollisionParams:
    """Masses of the particle-wall pair and the derived mass fractions.

    delta = m/(M+m) and gamma = M/(M+m) add to 1 by construction.
    """

    m: float
    M: float
    delta: float
    gamma: float


def collision_params(m: float, M: float) -> CollisionParams:
    """Build :class:`CollisionParams` from the two masses.

    Raises ValueError for non-positive or non-finite masses, or a sum that
    overflows.  m > M is allowed; nothing below assumes the wall is the
    heavier body.
    """
    m = float(m)
    M = float(M)
    if not (math.isfinite(m) and m > 0.0):
        raise ValueError(f"particle mass must be positive and finite, got {m}")
    if not (math.isfinite(M) and M > 0.0):
        raise ValueError(f"wall mass must be positive and finite, got {M}")
    total = m + M
    if not math.isfinite(total):
        raise ValueError(f"total mass must be finite, got {m} + {M}")
    return CollisionParams(m=m, M=M, delta=m / total, gamma=M / total)


def collision_params_from_delta(delta: float) -> CollisionParams:
    """Params with a prescribed mass fraction delta, using total mass 1."""
    delta = float(delta)
    if not (0.0 < delta < 1.0):
        raise ValueError(f"mass fraction must lie in (0, 1), got {delta}")
    return collision_params(delta, 1.0 - delta)


def _check_spread(name: str, s: float) -> float:
    """The wall's or the particle's spread s as a float, unless it or the
    exponent's coefficient 1/4s^2 is not a positive finite number."""
    s = float(s)
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError(f"{name} spread must be positive and finite, got {s}")
    if not (0.0 < s * s < math.inf and 0.25 / (s * s) < math.inf):
        raise ValueError(f"{name} spread {s:g} is out of range: 1/(4 {name} spread^2) "
                         "is not a positive finite number")
    return s


def _product_sample(s, x, X):
    """sqrt(N) exp(-X^2/4Sigma^2 - x^2/4sigma^2 + i k x) for a product state s,
    as exp(-X^2/4Sigma^2) times sqrt(N) exp(-x^2/4sigma^2 + i k x): on a
    grid's broadcast axes each exp is 1-D and one multiply builds the N^2
    samples."""
    import numpy as np

    wall = np.exp(-(X * X) / (4.0 * s.Sigma**2))
    return wall * (np.sqrt(s.norm) * np.exp(-(x * x) / (4.0 * s.sigma**2) + 1j * s.k * x))


@dataclass(frozen=True)
class GaussianProductState:
    """Pre-collision product state Gamma(X) Phi(x).

    Sigma and sigma are the position spreads of wall and particle, k is the
    particle wavenumber, norm is N = 1/(2 pi sigma Sigma) so that
    |Psi|^2 integrates to 1 over the plane.
    """

    Sigma: float
    sigma: float
    k: float
    norm: float

    def __call__(self, x, X):
        """Sample the state; broadcasts over x, X.  Built from its one-body
        factors (_product_sample), so on a grid every exp is 1-D."""
        return _product_sample(self, x, X)

    def envelope(self):
        """(centers, spreads, wavenumbers), each an (x, X) pair: the grid box
        covers the centers +- spreads; the wavenumbers are the carrier's."""
        return (0.0, 0.0), (self.sigma, self.Sigma), (abs(self.k), 0.0)

    def quadratic_form(self):
        """(A, b) with psi ~ exp(-z^T A z + b^T z), z = (x, X), for grid sizing."""
        import numpy as np

        A = np.diag([0.25 / self.sigma**2, 0.25 / self.Sigma**2])
        return A, np.array([1j * self.k, 0.0])


def initial_state(Sigma: float, sigma: float, k: float = 0.0) -> GaussianProductState:
    """Centered Gaussian product state with wall/particle spreads and momentum k."""
    Sigma, sigma = _check_spread("wall", Sigma), _check_spread("particle", sigma)
    return GaussianProductState(
        Sigma=Sigma, sigma=sigma, k=float(k), norm=1.0 / (2.0 * math.pi * sigma * Sigma)
    )


@dataclass(frozen=True)
class PostCollisionState:
    """Wave function after the elastic bounce, parameterized as in the module
    docstring.  Omega = 1/4Sigma^2 and omega = 1/4sigma^2 carry the spreads;
    norm is N = (2/pi) sqrt(Omega omega), identical to the initial norm.
    """

    Omega: float
    omega: float
    delta: float
    gamma: float
    k: float
    norm: float

    def __call__(self, x, X):
        """Sample the state; broadcasts over x, X.  The envelope is one real
        exp of -(a^2 + b^2), with sqrt(Omega) and sqrt(omega) folded into
        the coefficients of the wall and particle arguments a and b.  The
        carrier e^{i k b} is built as its two one-body factors: on a grid
        it is then a diagonal unitary on each side, which leaves the
        singular values alone at any k, where rounding k b on the full grid
        would not, and costs only 1-D exps."""
        import numpy as np

        rO, ro = np.sqrt(self.Omega), np.sqrt(self.omega)
        a = X * (rO * (1.0 - 2.0 * self.delta)) + x * (rO * 2.0 * self.delta)  # wall argument
        b = x * (ro * (1.0 - 2.0 * self.gamma)) + X * (ro * 2.0 * self.gamma)  # particle argument
        a *= a
        b *= b
        a += b
        a *= -1.0
        env = np.exp(a)
        del a, b  # free the two N^2 arguments before the complex sample is built
        psi = env * (np.sqrt(self.norm) * np.exp(1j * self.k * (1.0 - 2.0 * self.gamma) * x))
        psi *= np.exp(2j * self.gamma * self.k * X)
        return psi

    def covariance(self):
        """Position covariance matrix of |Psi_F|^2 in (x, X).

        |Psi_F|^2 is a product of Gaussians of spreads Sigma and sigma in
        (a, b) = B (x, X), B = [[2 delta, 1 - 2 delta], [1 - 2 gamma, 2 gamma]],
        so the covariance is B^{-1} diag(Sigma^2, sigma^2) B^{-T}.  det B =
        2 (gamma + delta) - 1 = 1 gives B^{-1} in closed form, with no matrix
        inverse to go singular when one spread dwarfs the other.
        """
        import numpy as np

        B_inv = np.array([[2.0 * self.gamma, -(1.0 - 2.0 * self.delta)],
                          [-(1.0 - 2.0 * self.gamma), 2.0 * self.delta]])
        return (B_inv * [0.25 / self.Omega, 0.25 / self.omega]) @ B_inv.T

    def envelope(self):
        """(centers, spreads, wavenumbers), each an (x, X) pair: the grid box
        covers the centers +- spreads; the wavenumbers are the carrier's, k
        times the particle argument's coefficients."""
        cov = self.covariance()
        return ((0.0, 0.0), (math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])),
                (abs(self.k * (1.0 - 2.0 * self.gamma)), abs(2.0 * self.gamma * self.k)))

    def quadratic_form(self):
        """(A, b) with psi ~ exp(-z^T A z + b^T z), z = (x, X), for grid sizing:
        Omega and omega times the outer squares of the wall and particle
        arguments' coefficients, and i k times the particle's."""
        import numpy as np

        wall = np.array([2.0 * self.delta, 1.0 - 2.0 * self.delta])
        particle = np.array([1.0 - 2.0 * self.gamma, 2.0 * self.gamma])
        A = self.Omega * np.outer(wall, wall) + self.omega * np.outer(particle, particle)
        return A, 1j * self.k * particle


def post_collision_state(s: GaussianProductState, p: CollisionParams) -> PostCollisionState:
    """Entangled state after the collision (relative coordinate reversed)."""
    Omega = 1.0 / (4.0 * s.Sigma**2)
    omega = 1.0 / (4.0 * s.sigma**2)
    return PostCollisionState(
        Omega=Omega,
        omega=omega,
        delta=p.delta,
        gamma=p.gamma,
        k=s.k,
        norm=(2.0 / math.pi) * math.sqrt(Omega * omega),
    )


@dataclass(frozen=True)
class IdealReflectedState(GaussianProductState):
    """Fixed-wall idealization Gamma(X) Phi(-x).

    This is what the outgoing wave would be if the wall were a static
    potential instead of a dynamical body: the particle packet is mirrored,
    the wall factor untouched.  The mirrored Gaussian packet is the product
    packet with wavenumber -k, which is what k holds here.
    """

    def __call__(self, x, X):
        """Sample as the product state does; not inherited, because
        perfbench/tracer.py wraps each state class's own __call__."""
        return _product_sample(self, x, X)


def ideal_reflected_state(s: GaussianProductState) -> IdealReflectedState:
    """Mirror the particle factor of a product state: k becomes -k."""
    return IdealReflectedState(Sigma=s.Sigma, sigma=s.sigma, k=-s.k, norm=s.norm)
