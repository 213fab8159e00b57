import json
import math
import re

import numpy as np
import pytest

from decoh import cli
from decoh.error_bounds import optimal_lambda
from decoh.kinematics import collision_params, collision_params_from_delta
from decoh.thermal import (
    ELECTRON_MASS,
    amplitude_budget,
    compton_wavelength,
    thermal_k_sigma,
    thermal_length,
    thermal_spread,
)


def test_thermal_length_anchor():
    # hbar c / k_B = 2.2898845e-3 m K, i.e. about 0.2 cm at 1 K
    L = thermal_length(1.0)
    assert L == pytest.approx(2.28988452062e-3, rel=1e-9)
    assert abs(L / 2.0e-3 - 1.0) < 0.15


def test_electron_spread_at_room_temperature():
    assert thermal_spread(ELECTRON_MASS, 300.0) == pytest.approx(1.7168e-9, rel=1e-4)


def test_spread_scaling_laws():
    base = thermal_spread(1e-27, 10.0)
    assert thermal_spread(4e-27, 10.0) == pytest.approx(base / 2.0, rel=1e-12)
    assert thermal_spread(1e-27, 40.0) == pytest.approx(base / 2.0, rel=1e-12)
    assert thermal_spread(2e-27, 10.0) < base
    assert thermal_spread(1e-27, 20.0) < base


def test_thermal_inputs_validated():
    with pytest.raises(ValueError):
        thermal_spread(0.0, 1.0)
    with pytest.raises(ValueError):
        thermal_spread(1e-27, -5.0)
    with pytest.raises(ValueError):
        thermal_length(0.0)


@pytest.mark.parametrize("fn, args, name", [
    (thermal_spread, (1e-320, 300.0), "mu k_B T"),
    (thermal_length, (1e-320,), "k_B T"),
    (compton_wavelength, (1e300,), "mu c"),
    (thermal_spread, (1e300, 1e300), "mu k_B T"),
    (thermal_k_sigma, (1e300, 1e300), "mu k_B T"),
])
def test_products_outside_the_normal_range_raise_naming_them(fn, args, name):
    """A product that underflows or overflows raises ValueError, not a
    ZeroDivisionError, a length of 0.0 or a k sigma of nan."""
    message = rf"^{re.escape(name)} = \S+, not a normal positive float$"
    with pytest.raises(ValueError, match=message):
        fn(*args)


def test_geometric_mean_identity():
    for mu, T in [(ELECTRON_MASS, 300.0), (1e-26, 0.1), (2.5e-20, 77.0)]:
        sigma = thermal_spread(mu, T)
        geo = math.sqrt(compton_wavelength(mu) * thermal_length(T))
        assert sigma == pytest.approx(geo, rel=1e-12)


def test_thermal_k_sigma_is_unity_and_temperature_free():
    values = [thermal_k_sigma(ELECTRON_MASS, T) for T in (0.01, 1.0, 77.0, 300.0)]
    for v in values:
        assert v == pytest.approx(1.0, rel=1e-12)
    assert max(values) - min(values) < 1e-12
    assert thermal_k_sigma(2e-26, 100.0) == pytest.approx(
        thermal_k_sigma(4e-26, 50.0), rel=1e-12
    )


def test_error_at_thermal_momentum():
    """k sigma = 1 gives an optimized error close to 1.2 delta."""
    delta = 1e-4
    opt = optimal_lambda(1.0, collision_params_from_delta(delta))
    assert opt.one_minus_A == pytest.approx(1.2 * delta, rel=0.10)


def test_thermal_command_reports_the_geometric_mean(capsys):
    """The thermal command and a T sweep report sigma_mu as the geometric
    mean of the two lengths they print beside it, with k sigma = 1."""
    code = cli.main(["thermal", "--mu-kg", str(ELECTRON_MASS), "--T", "300",
                     "--format", "json"])
    res = json.loads(capsys.readouterr().out)["results"]
    assert code == 0
    assert res["k_sigma_est"] == pytest.approx(1.0, rel=1e-11)
    assert res["sigma_mu"] == pytest.approx(
        math.sqrt(res["compton_wavelength"] * res["thermal_length"]), rel=1e-11
    )
    code = cli.main(["sweep", "--parameter", "T", "--start", "1", "--stop", "300",
                     "--points", "3", "--mu-kg", str(ELECTRON_MASS), "--format", "json"])
    rows = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert code == 0
    for T, sigma_mu, length, k_sigma in rows:
        assert sigma_mu == pytest.approx(thermal_spread(ELECTRON_MASS, T), rel=1e-11)
        assert length == pytest.approx(thermal_length(T), rel=1e-11)
        assert k_sigma == pytest.approx(1.0, rel=1e-11)


def test_amplitude_budget_examples():
    assert amplitude_budget(1.0, n=7).amplitude == 1.0
    assert amplitude_budget(0.99, n=2).amplitude == pytest.approx(0.99, rel=1e-15)
    b = amplitude_budget(0.9, n=1)
    assert b.n_half == pytest.approx(13.158, abs=2e-3)
    assert amplitude_budget(0.999, n=100).amplitude == pytest.approx(0.999**50, rel=1e-12)


def test_amplitude_budget_cross_checked_by_repeated_product():
    direct = amplitude_budget(0.9, n=13).amplitude
    manual = 1.0
    for _ in range(13):
        manual *= math.sqrt(0.9)
    assert direct == pytest.approx(manual, rel=1e-12)
    assert amplitude_budget(0.9, n=13).amplitude > 0.5 > amplitude_budget(0.9, n=14).amplitude


def test_amplitude_budget_multiplicative():
    a = [0.99, 0.95, 0.9]
    b = [0.8, 0.999]
    combined = amplitude_budget(a + b).amplitude
    assert combined == pytest.approx(
        amplitude_budget(a).amplitude * amplitude_budget(b).amplitude, rel=1e-14
    )


def test_amplitude_budget_monotone_in_n():
    amps = [amplitude_budget(0.95, n=n).amplitude for n in range(6)]
    assert all(b <= a for a, b in zip(amps, amps[1:]))


def test_amplitude_budget_validation():
    with pytest.raises(ValueError):
        amplitude_budget(1.2, n=3)
    with pytest.raises(ValueError):
        amplitude_budget([0.9, 0.0])
    with pytest.raises(ValueError):
        amplitude_budget(0.9)  # scalar without n
    with pytest.raises(ValueError):
        amplitude_budget([0.9, 0.8], n=3)
    with pytest.raises(ValueError, match="at most 1.79769e"):
        amplitude_budget(0.9, n=10**400)  # ln amplitude = n ln F0 / 2 needs a float n


def test_amplitude_budget_takes_numpy_scalars():
    """A numpy F0 is one collision's eigenvalue, not a sequence, even where
    it is no float subclass (float32); a numpy integer n is a count."""
    for f0 in (np.float32(0.9), np.float64(0.9)):
        b = amplitude_budget(f0, n=np.int64(4))
        assert b.n == 4 and type(b.n) is int
        assert b.amplitude == pytest.approx(float(f0) ** 2, rel=1e-15)
    with pytest.raises(ValueError, match="needs a collision count"):
        amplitude_budget(np.float32(0.9))


def test_backaction_equals_matched_spread_ratio():
    """The back-action ratio sqrt(m/M) and sqrt(delta/gamma) are the same
    number, and both equal the square root of the zero-momentum optimal
    spread ratio."""
    p = collision_params(3.0, 17.0)
    backaction = math.sqrt(3.0 / 17.0)
    assert backaction == pytest.approx(math.sqrt(p.delta / p.gamma), rel=1e-12)
    opt = optimal_lambda(0.0, p)
    assert backaction == pytest.approx(math.sqrt(opt.lambda_max), rel=1e-12)


def test_amplitude_budget_of_a_huge_count_is_closed_form():
    """10^11 collisions need no per-collision array: ln amplitude is
    n ln F0 / 2 and the result has the collision count it was given."""
    n = 10**11
    f0 = 1.0 - 1e-12
    b = amplitude_budget(f0, n=n)
    assert b.n == n
    assert b.amplitude == pytest.approx(f0 ** (0.5 * n), rel=1e-9)
    assert b.n_half == pytest.approx(math.log(0.5) / (0.5 * math.log(f0)), rel=1e-12)
    assert amplitude_budget(1.0, n=n).amplitude == 1.0
