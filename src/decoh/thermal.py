"""Thermal packet sizing and multi-collision amplitude budgets.

If every object of mass mu settles into the decoherence-minimizing packet
size, dimensional analysis with temperature as the only extra scale gives

    sigma_mu = hbar / sqrt(mu k_B T),

the geometric mean of the reduced Compton wavelength hbar/(mu c) and the
thermal length hbar c / (k_B T) (about 0.229 cm at 1 K).  With the momentum
set by 1-D equipartition, hbar^2 k^2 / 2 mu = k_B T / 2, the product
k sigma is exactly 1 under these conventions, independent of temperature
and mass.  All outputs are order-of-magnitude estimates: the proportionality
constant is taken as 1.

SI units throughout this module; CODATA 2018 constants to 12 digits.  A
length, or a product behind one (mu k_B T, mu c, k_B T), that is not a
normal positive float raises ValueError naming it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "HBAR",
    "K_B",
    "C_LIGHT",
    "ELECTRON_MASS",
    "CollisionBudget",
    "thermal_spread",
    "thermal_k_sigma",
    "compton_wavelength",
    "thermal_length",
    "amplitude_budget",
]

HBAR = 1.05457181765e-34        # J s
K_B = 1.380649e-23              # J / K (exact)
C_LIGHT = 2.99792458e8          # m / s (exact)
ELECTRON_MASS = 9.1093837015e-31  # kg


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _normal(name: str, value: float) -> float:
    """value, unless it is not a normal positive float."""
    if not sys.float_info.min <= value <= sys.float_info.max:
        raise ValueError(f"{name} = {value:g}, not a normal positive float")
    return value


def thermal_spread(mu: float, T: float) -> float:
    """Packet size sigma_mu = hbar / sqrt(mu k_B T) in meters."""
    mu = _check_positive("mass", mu)
    T = _check_positive("temperature", T)
    return _normal("sigma_mu", HBAR / math.sqrt(_normal("mu k_B T", mu * K_B * T)))


def compton_wavelength(mu: float) -> float:
    """Reduced Compton wavelength hbar/(mu c) in meters."""
    mu = _check_positive("mass", mu)
    return _normal("hbar/(mu c)", HBAR / _normal("mu c", mu * C_LIGHT))


def thermal_length(T: float) -> float:
    """Thermal length hbar c / (k_B T) in meters; 2.29e-3 m at 1 K."""
    T = _check_positive("temperature", T)
    return _normal("hbar c/(k_B T)", HBAR * C_LIGHT / _normal("k_B T", K_B * T))


def thermal_k_sigma(mu: float, T: float) -> float:
    """Product k sigma with equipartition momentum and thermal packet size.

    k = sqrt(mu k_B T)/hbar cancels sigma_mu exactly, so the value is 1 for
    every mass and temperature under the adopted constants.
    """
    sigma_mu = thermal_spread(mu, T)
    return math.sqrt(mu * K_B * T) / HBAR * sigma_mu


@dataclass(frozen=True)
class CollisionBudget:
    """Unentangled amplitude surviving a run of identical wall collisions."""

    amplitude: float
    n_half: float


def amplitude_budget(f0: float, n: int) -> CollisionBudget:
    """Surviving amplitude sqrt(F0)^n after n collisions of largest eigenvalue F0.

    ln amplitude = n ln F0 / 2 in closed form at any n.  Also reports the
    collision count that halves the amplitude, n_half = ln(1/2)/ln(sqrt(F0));
    infinite when F0 is 1.
    """
    if n < 0:
        raise ValueError(f"collision count must be non-negative, got {n}")
    if n > sys.float_info.max:
        raise ValueError(f"collision count must be at most {sys.float_info.max:g}")
    f0 = float(f0)
    if not 0.0 < f0 <= 1.0:
        raise ValueError(f"F0 must lie in (0, 1], got {f0}")
    half_log = 0.5 * math.log(f0)
    n_half = math.inf if half_log == 0.0 else math.log(0.5) / half_log
    return CollisionBudget(amplitude=math.exp(int(n) * half_log), n_half=n_half)
