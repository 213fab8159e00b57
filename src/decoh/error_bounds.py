"""Overlap error between the true outgoing wave and the fixed-wall ideal.

The overlap amplitude of the bounced two-body state with the idealized
reflection Gamma(X) Phi(-x) has the closed form

    A^{-2} = [gamma^2 + delta^2 + gamma^2 lam + delta^2/lam]
             * exp(4 (k sigma)^2 lam / (1 + lam)),      lam = Sigma^2/sigma^2.

Using delta + gamma = 1 the bracket equals 1 + (gamma sqrt(lam) -
delta/sqrt(lam))^2, which is the form evaluated here (exact, and stable
near the optimum where A -> 1).

At k = 0 the optimum lam = delta/gamma gives A = 1: no error at all.  For
k != 0 the optimized error is of order delta:

    small k sigma:  lam_max ~ delta/gamma,     1 - A ~ 2 delta (k sigma)^2
    large k sigma:  lam_max ~ delta/(2 k sigma), 1 - A ~ 2 delta k sigma

and the two branches mesh near k sigma ~ 1, where 1 - A ~ 1.24 delta.
"""

from __future__ import annotations

import math
import numbers

from . import _Record
from .kinematics import CollisionParams

__all__ = [
    "ConvergenceError",
    "Optimum",
    "overlap_error",
    "overlap_amplitude",
    "overlap_log_inverse_sq",
    "optimal_lambda",
    "error_asymptotic",
    "mismatch_penalty",
    "classify_regime",
    "golden_section_minimize",
]

# optimizer bracket for ln(lam) and termination width
_BRACKET_LO_FACTOR = 1e-3
_BRACKET_HI = 1e3
_LN_LAMBDA_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """Raised when the bracketed scalar search fails to reach tolerance."""


def overlap_log_inverse_sq(lam, k_sigma: float, p: CollisionParams):
    """ln(A^{-2}) as a function of the spread ratio lam = Sigma^2/sigma^2.

    A real lam gives a float, through math; an array gives an array, through
    numpy.  The bracket is evaluated as log1p((gamma sqrt(lam) -
    delta/sqrt(lam))^2) so the value stays accurate when A is within
    rounding of 1.
    """
    if isinstance(lam, numbers.Real):
        lam = float(lam)
        if not 0.0 < lam < math.inf:
            raise ValueError("spread ratio lambda must be positive and finite")
        return _log_inverse_sq(lam, p.gamma, p.delta, 4.0 * k_sigma**2)
    import numpy as np

    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0.0) or not np.all(np.isfinite(lam)):
        raise ValueError("spread ratio lambda must be positive and finite")
    return _log_inverse_sq(lam, p.gamma, p.delta, 4.0 * k_sigma**2, np)


def _log_inverse_sq(lam, gamma: float, delta: float, c4: float, xp=math):
    """ln(A^{-2}) for lam already known to be positive and finite, with
    c4 = 4 (k sigma)^2 and the mass fractions taken once per caller: a float
    through xp = math, an array through xp = numpy."""
    root = xp.sqrt(lam)
    mismatch = gamma * root - delta / root
    return xp.log1p(mismatch * mismatch) + c4 * lam / (1.0 + lam)


def overlap_error(lam: float, k_sigma: float, p: CollisionParams) -> tuple[float, float]:
    """(A, 1 - A) for spread ratio lam and momentum k sigma.

    1 - A is evaluated as -expm1(-ln(A^{-2})/2), so it keeps full precision
    where A is within rounding of 1.
    """
    half_log = -0.5 * float(overlap_log_inverse_sq(lam, k_sigma, p))
    return math.exp(half_log), -math.expm1(half_log)


def overlap_amplitude(lam: float, k_sigma: float, p: CollisionParams) -> float:
    """Overlap amplitude A in (0, 1] for spread ratio lam and momentum k sigma."""
    return overlap_error(lam, k_sigma, p)[0]


def golden_section_minimize(fn, a: float, b: float, tol: float = 1e-10, max_iter: int = 200):
    """Golden-section search for the minimum of a unimodal scalar function.

    Returns (x_min, f_min, iterations).  Raises :class:`ConvergenceError`
    with the residual bracket width if max_iter steps cannot shrink the
    bracket below tol.
    """
    if not b > a:
        raise ValueError(f"invalid bracket [{a}, {b}]")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    h = b - a
    c = a + invphi2 * h
    d = a + invphi * h
    fc = fn(c)
    fd = fn(d)
    iterations = 0
    while h > tol:
        if iterations >= max_iter:
            raise ConvergenceError(
                f"bracket width {h:.3e} still above tol {tol:.1e} "
                f"after {max_iter} iterations on [{a}, {b}]"
            )
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + invphi2 * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + invphi * h
            fd = fn(d)
        iterations += 1
    x = 0.5 * (a + b)
    return x, fn(x), iterations


def classify_regime(k_sigma: float) -> str:
    """Label a momentum as small-ksigma, crossover or large-ksigma."""
    if k_sigma < 0.3:
        return "small-ksigma"
    if k_sigma > 3.0:
        return "large-ksigma"
    return "crossover"


class Optimum(_Record):
    """Result of maximizing A over the spread ratio at fixed k sigma."""

    lambda_max: float
    A_max: float
    one_minus_A: float
    regime: str
    iterations: int


def optimal_lambda(k_sigma: float, p: CollisionParams) -> Optimum:
    """Maximize the overlap amplitude over the spread ratio.

    Minimizes ln(A^{-2}) over ln(lam) by golden section on the bracket
    [delta^2 * 1e-3, 1e3], which spans both asymptotic optima, to a width
    of 1e-10 in ln(lam).  k sigma = 0 returns the exact matched ratio
    delta/gamma with A = 1.  Above it, a delta so small (below about 5e-161)
    that the bracket's low end underflows to 0 raises ValueError.
    """
    k_sigma = float(k_sigma)
    if k_sigma < 0.0 or not math.isfinite(k_sigma):
        raise ValueError(f"k sigma must be non-negative and finite, got {k_sigma}")
    if k_sigma == 0.0:
        return Optimum(
            lambda_max=p.delta / p.gamma,
            A_max=1.0,
            one_minus_A=0.0,
            regime=classify_regime(0.0),
            iterations=0,
        )
    lo = p.delta**2 * _BRACKET_LO_FACTOR
    if lo == 0.0:
        raise ValueError(f"mass fraction {p.delta:g} is too small for the optimum's bracket: "
                         f"delta^2 * {_BRACKET_LO_FACTOR:g} underflows to 0")
    lo = math.log(lo)
    hi = math.log(_BRACKET_HI)
    gamma, delta, c4 = p.gamma, p.delta, 4.0 * k_sigma**2

    def objective(t: float) -> float:
        # exp of a finite bracket point is positive and finite: skip the checks
        return _log_inverse_sq(math.exp(t), gamma, delta, c4)

    t_min, f_min, iterations = golden_section_minimize(objective, lo, hi, tol=_LN_LAMBDA_TOL)
    return Optimum(
        lambda_max=math.exp(t_min),
        A_max=math.exp(-0.5 * f_min),
        one_minus_A=-math.expm1(-0.5 * f_min),
        regime=classify_regime(k_sigma),
        iterations=iterations,
    )


def error_asymptotic(k_sigma: float, delta: float, regime: str):
    """Asymptotic (lambda_max, 1 - A) for the small or large momentum branch.

    small: (delta/gamma, 2 delta (k sigma)^2)
    large: (delta/(2 k sigma), 2 delta k sigma); undefined at k sigma = 0.
    """
    k_sigma = float(k_sigma)
    delta = float(delta)
    if not 0.0 <= k_sigma < math.inf:
        raise ValueError(f"k sigma must be non-negative and finite, got {k_sigma}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"mass fraction must lie in (0, 1), got {delta}")
    if regime == "small":
        gamma = 1.0 - delta
        return delta / gamma, 2.0 * delta * k_sigma**2
    if regime == "large":
        if k_sigma == 0.0:
            raise ValueError("large-ksigma branch diverges at k sigma = 0")
        return delta / (2.0 * k_sigma), 2.0 * delta * k_sigma
    raise ValueError(f"regime must be 'small' or 'large', got {regime!r}")


def mismatch_penalty(y, k_sigma: float):
    """Error budget (1 - A)/delta for a mismatched spread ratio.

    With Sigma^2/sigma^2 = delta e^y and delta small,

        (1 - A)/delta = cosh(y) - 1 + 2 (k sigma)^2 e^y + O(delta).

    The cosh(y) - 1 term vanishes at the matched point y = 0, where the k = 0
    error is of higher order in delta; it grows like e^{|y|}/2 for a badly
    mismatched ratio either way.  Valid while the total error stays small
    (penalty * delta well below 0.1); beyond that use the exact amplitude.
    Vectorized over y.
    """
    import numpy as np

    y = np.asarray(y, dtype=float)
    # cosh(y) - 1 via sinh(y/2) to keep precision near the matched point
    half = np.sinh(0.5 * y)
    return 2.0 * half * half + 2.0 * k_sigma**2 * np.exp(y)
