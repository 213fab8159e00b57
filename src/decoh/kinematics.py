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

from . import _Record, _positive

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


class CollisionParams(_Record):
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
    m = _positive("particle mass", m)
    M = _positive("wall mass", M)
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
    s = _positive(f"{name} spread", s)
    if not (0.0 < s * s < math.inf and 0.25 / (s * s) < math.inf):
        raise ValueError(f"{name} spread {s:g} is out of range: 1/(4 {name} spread^2) "
                         "is not a positive finite number")
    return s


class GaussianProductState(_Record):
    """Pre-collision product state Gamma(X) Phi(x).

    Sigma and sigma are the position spreads of wall and particle, k is the
    particle wavenumber, norm is N = 1/(2 pi sigma Sigma) so that
    |Psi|^2 integrates to 1 over the plane.
    """

    Sigma: float
    sigma: float
    k: float
    norm: float

    # a product state is its one-body factors: it has no two-body envelope
    two_body_envelope = None

    def one_body_factors(self, x, X):
        """(sqrt(N) exp(-x^2/4sigma^2 + i k x), exp(-X^2/4Sigma^2)): the
        particle factor of x and the wall factor of X, whose product is the
        state.  Elementwise, so 1-D nodes give 1-D factors."""
        import numpy as np

        wall = np.exp(-(X * X) / (4.0 * self.Sigma**2))
        return np.sqrt(self.norm) * np.exp(-(x * x) / (4.0 * self.sigma**2) + 1j * self.k * x), wall

    def __call__(self, x, X):
        """Sample the state, wall factor times particle factor; broadcasts
        over x, X, so on a grid's axes every exp is 1-D."""
        particle, wall = self.one_body_factors(x, X)
        return wall * particle

    def envelope(self):
        """(centers, spreads), each an (x, X) pair: the center and standard
        deviations of |psi|^2, which set a grid's box."""
        return (0.0, 0.0), (self.sigma, self.Sigma)

    def quadratic_form(self):
        """(A, b) with psi ~ exp(-z^T A z + b^T z), z = (x, X), for grid
        sizing; A = (a, c, d) stands for [[a, c], [c, d]] (decoh.gaussian)."""
        return (0.25 / self.sigma**2, 0.0, 0.25 / self.Sigma**2), (1j * self.k, 0.0)


def initial_state(Sigma: float, sigma: float, k: float = 0.0) -> GaussianProductState:
    """Centered Gaussian product state with wall/particle spreads and momentum k."""
    Sigma, sigma, k = _check_spread("wall", Sigma), _check_spread("particle", sigma), float(k)
    if not math.isfinite(k):
        raise ValueError(f"particle wavenumber must be finite, got {k}")
    return GaussianProductState(
        Sigma=Sigma, sigma=sigma, k=k, norm=1.0 / (2.0 * math.pi * sigma * Sigma)
    )


class PostCollisionState(_Record):
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

    def two_body_envelope(self, x, X):
        """The real envelope exp(-(a^2 + b^2)); broadcasts over x, X.
        sqrt(Omega) and sqrt(omega) are folded into the coefficients of the
        wall and particle arguments a and b."""
        import numpy as np

        rO, ro = np.sqrt(self.Omega), np.sqrt(self.omega)
        a = X * (rO * (1.0 - 2.0 * self.delta)) + x * (rO * 2.0 * self.delta)  # wall argument
        b = x * (ro * (1.0 - 2.0 * self.gamma)) + X * (ro * 2.0 * self.gamma)  # particle argument
        a *= a
        b *= b
        a += b
        a *= -1.0
        return np.exp(a)

    def one_body_factors(self, x, X):
        """(sqrt(N) e^{i k (1 - 2 gamma) x}, e^{2 i gamma k X}): the carrier
        e^{i k b} with sqrt(N) as its particle factor of x and its wall
        factor of X.  Elementwise, so 1-D nodes give 1-D factors."""
        import numpy as np

        return (np.sqrt(self.norm) * np.exp(1j * self.k * (1.0 - 2.0 * self.gamma) * x),
                np.exp(2j * self.gamma * self.k * X))

    def __call__(self, x, X):
        """Sample the state, envelope times particle factor times wall
        factor; broadcasts over x, X.  With the carrier built as its two
        one-body factors it is, on a grid, a diagonal unitary on each side,
        which leaves the singular values alone at any k, where rounding
        k b on the full grid would not, and costs only 1-D exps."""
        particle, wall = self.one_body_factors(x, X)
        psi = self.two_body_envelope(x, X) * particle
        psi *= wall
        return psi

    def envelope(self):
        """(centers, spreads), each an (x, X) pair: the center and standard
        deviations of |psi|^2, which set a grid's box.

        |Psi_F|^2 is a product of Gaussians of spreads Sigma and sigma in
        (a, b) = B (x, X), B = [[2 delta, 1 - 2 delta], [1 - 2 gamma, 2 gamma]],
        so the variances are the diagonal of B^{-1} diag(Sigma^2, sigma^2)
        B^{-T}.  det B = 2 (gamma + delta) - 1 = 1 gives B^{-1} = [[2 gamma,
        -(1 - 2 delta)], [-(1 - 2 gamma), 2 delta]] in closed form, with no
        matrix inverse to go singular when one spread dwarfs the other.
        """
        g, d = 2.0 * self.gamma, 2.0 * self.delta
        W, w = 0.25 / self.Omega, 0.25 / self.omega
        spreads = (math.sqrt(g * (g * W) + (1.0 - d) * ((1.0 - d) * w)),
                   math.sqrt((1.0 - g) * ((1.0 - g) * W) + d * (d * w)))
        return (0.0, 0.0), spreads

    def quadratic_form(self):
        """(A, b) with psi ~ exp(-z^T A z + b^T z), z = (x, X), for grid sizing:
        Omega and omega times the outer squares of the wall and particle
        arguments' coefficients, and i k times the particle's."""
        wall = (2.0 * self.delta, 1.0 - 2.0 * self.delta)
        particle = (1.0 - 2.0 * self.gamma, 2.0 * self.gamma)
        A = tuple(self.Omega * (wall[i] * wall[j]) + self.omega * (particle[i] * particle[j])
                  for i, j in ((0, 0), (0, 1), (1, 1)))
        return A, tuple(1j * self.k * v for v in particle)


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
        particle, wall = self.one_body_factors(x, X)
        return wall * particle


def ideal_reflected_state(s: GaussianProductState) -> IdealReflectedState:
    """Mirror the particle factor of a product state: k becomes -k."""
    return IdealReflectedState(Sigma=s.Sigma, sigma=s.sigma, k=-s.k, norm=s.norm)
