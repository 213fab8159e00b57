import json
import math

import numpy as np
import pytest

from decoh import checks, cli
from decoh.entanglement import (
    kernel_params,
    largest_eigenvalue,
    optimal_spreads,
    oscillator_kernel,
    oscillator_kernel_spectrum,
    reduced_kernel_eval,
    spectrum_values,
)
from decoh.kinematics import (
    collision_params,
    initial_state,
    post_collision_state,
)


def test_kernel_params_equal_spreads(state_equal_spreads):
    kp = kernel_params(state_equal_spreads)
    Omega = state_equal_spreads.Omega
    assert kp.D == pytest.approx(4.8808 * Omega, rel=1e-12)
    assert kp.rho == pytest.approx(0.9604 * Omega, rel=1e-12)
    assert kp.w == pytest.approx(1.0412328196584757, rel=1e-12)
    assert not kp.matched


def test_kernel_params_equal_masses_matched():
    p = collision_params(2.0, 2.0)
    sf = post_collision_state(initial_state(0.3, 1.7, 2.0), p)
    kp = kernel_params(sf)
    assert kp.matched and kp.rho == 0.0
    assert largest_eigenvalue(kp.w) == 1.0


def test_kernel_params_matched_spreads(params_1_99):
    Sigma = optimal_spreads(1.0, params_1_99)
    sf = post_collision_state(initial_state(Sigma, 1.0, 5.0), params_1_99)
    kp = kernel_params(sf)
    assert kp.matched
    assert kp.z * kp.z == 0.0


def test_spectral_identities_across_w():
    """z^2 = e^{-u} with sinh(u/2) = w/2, and w = 2 sinh(u/2)."""
    for w in np.geomspace(1e-6, 1e6, 121):
        kp_u = 2.0 * np.arcsinh(0.5 * w)
        z = 1.0 / (np.sqrt(0.25 * w * w + 1.0) + 0.5 * w)
        assert z * z == pytest.approx(np.exp(-kp_u), rel=1e-12)
        assert 2.0 * np.sinh(0.5 * kp_u) == pytest.approx(w, rel=1e-12)


def test_largest_eigenvalue_limits():
    assert largest_eigenvalue(0.0) == 0.0
    assert largest_eigenvalue(np.inf) == 1.0
    assert largest_eigenvalue(1.0412328196584757) == pytest.approx(0.6318, abs=5e-5)
    with pytest.raises(ValueError):
        largest_eigenvalue(-0.1)


def test_largest_eigenvalue_small_w_linear():
    w = 1e-4
    assert largest_eigenvalue(w) / w == pytest.approx(1.0, abs=1e-4)


def test_largest_eigenvalue_large_w_tail():
    w = 1e3
    assert 1.0 - largest_eigenvalue(w) == pytest.approx(1.0 / w**2, rel=1e-2)


def test_spectrum_values():
    values = spectrum_values(1.0412328196584757, n=8)
    assert values[0] == pytest.approx(0.6318, abs=5e-5)
    assert values[1] == pytest.approx(0.2326, abs=5e-5)
    u = 2.0 * np.arcsinh(0.5 * 1.0412328196584757)
    assert u == pytest.approx(0.99915, abs=1e-5)


def test_spectrum_partial_sum_and_ratio():
    w = 1.0412328196584757
    u = 2.0 * np.arcsinh(0.5 * w)
    values = np.array(spectrum_values(w, n=64))
    assert values.sum() == pytest.approx(1.0 - np.exp(-64 * u), abs=1e-12)
    ratios = values[1:21] / values[:20]
    np.testing.assert_allclose(ratios, np.exp(-u), rtol=1e-12)


def test_spectrum_degenerate_and_matched():
    with pytest.raises(ValueError):
        spectrum_values(0.0)
    matched = spectrum_values(np.inf, n=4)
    np.testing.assert_allclose(matched, [1.0, 0.0, 0.0, 0.0])


def test_spectrum_values_past_the_underflow_are_zero():
    """The list stops evaluating e^{-k u} once it underflows to 0: every
    value is still F0 e^{-k u}, as floats."""
    w, n = 3.87, 1000
    u = 2.0 * math.asinh(0.5 * w)
    values = spectrum_values(w, n)
    assert len(values) == n and all(type(v) is float for v in values)
    assert values == [largest_eigenvalue(w) * math.exp(-k * u) for k in range(n)]
    assert values[-1] == 0.0 < values[0]
    assert spectrum_values(np.inf, 3) == [1.0, 0.0, 0.0]


def test_oscillator_spectrum_value():
    assert oscillator_kernel_spectrum(1.0, 1)[0] == pytest.approx(np.exp(-0.5), rel=1e-15)
    with pytest.raises(ValueError):
        oscillator_kernel_spectrum(0.0)


def test_oscillator_trace_identity():
    """Gaussian integral of G(x, x) equals the geometric eigenvalue sum,
    both 1/(2 sinh(u/2))."""
    beta, u = 0.8, 0.9
    G = oscillator_kernel(beta, u)
    x = np.linspace(-30.0, 30.0, 20001)
    trace = np.trapezoid(G(x, x), x=x)
    geom = np.exp(-u / 2.0) / (1.0 - np.exp(-u))
    assert trace == pytest.approx(geom, rel=1e-10)
    assert geom == pytest.approx(1.0 / (2.0 * np.sinh(u / 2.0)), rel=1e-14)


def test_entanglement_measure_examples(state_equal_spreads):
    kp = kernel_params(state_equal_spreads)
    assert kp.z * kp.z == pytest.approx(0.3682, abs=5e-5)
    p_eq = collision_params(1.0, 1.0)
    sf = post_collision_state(initial_state(0.2, 3.0, 1.0), p_eq)
    assert kernel_params(sf).z == 0.0


def _entangle_results(capsys, *argv):
    code = cli.main(["entangle", "--m", "1", "--M", "99", "--sigma", "1", *argv,
                     "--format", "json"])
    assert code == 0
    return json.loads(capsys.readouterr().out)["results"]


def test_entangle_spectrum_and_tail_sum_to_one(capsys, state_equal_spreads):
    """entangle reports F0, 1 - F0 and a 16-term spectrum whose tail bound
    is exactly the mass the listed eigenvalues miss."""
    res = _entangle_results(capsys, "--Sigma", "1", "--n-spectrum", "16")
    kp = kernel_params(state_equal_spreads)
    assert res["F0"] == pytest.approx(largest_eigenvalue(kp.w), rel=1e-11)
    assert res["measure"] == pytest.approx(1.0 - res["F0"], rel=1e-11)
    assert res["spectrum_tail_bound"] == pytest.approx(np.exp(-16 * kp.u), rel=1e-11)
    assert len(res["spectrum"]) == 16
    assert sum(res["spectrum"]) + res["spectrum_tail_bound"] == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("n", [1, 8, 64])
def test_matched_report_is_the_product_state(capsys, n):
    res = _entangle_results(capsys, "--Sigma", "auto", "--k", "2", "--n-spectrum", str(n))
    assert res["matched"] and res["F0"] == 1.0 and res["measure"] == 0.0
    assert res["spectrum_tail_bound"] == 0.0
    assert res["spectrum"] == [1.0] + [0.0] * (n - 1)


def test_optimal_spreads_values():
    p_eq = collision_params(4.0, 4.0)
    assert optimal_spreads(1.0, p_eq) == pytest.approx(1.0, rel=1e-15)
    # delta/gamma = m/M exactly, so M = 100 m gives Sigma = sigma/10
    p100 = collision_params(1.0, 100.0)
    assert optimal_spreads(1.0, p100) == pytest.approx(0.1, rel=1e-14)
    p99 = collision_params(1.0, 99.0)
    assert optimal_spreads(1.0, p99) == pytest.approx(np.sqrt(1.0 / 99.0), rel=1e-14)


def test_optimal_spreads_disentangle(params_1_99):
    Sigma = optimal_spreads(2.0, params_1_99)
    sf = post_collision_state(initial_state(Sigma, 2.0, 0.0), params_1_99)
    assert largest_eigenvalue(kernel_params(sf).w) == pytest.approx(1.0, abs=1e-12)


def test_reduced_kernel_hermitian(state_equal_spreads, rng):
    sf = post_collision_state(
        initial_state(1.0, 1.0, 2.0), collision_params(1.0, 99.0)
    )
    for _ in range(10):
        x, xp = rng.normal(size=2)
        assert reduced_kernel_eval(sf, x=x, x_prime=xp) == pytest.approx(
            np.conj(reduced_kernel_eval(sf, x=xp, x_prime=x)), rel=1e-12
        )


def test_reduced_kernel_origin_and_trace(state_equal_spreads):
    s = state_equal_spreads
    kp = kernel_params(s)
    expected = np.sqrt(2.0 * s.omega * s.Omega / (np.pi * kp.D))
    assert reduced_kernel_eval(s, 0.0, 0.0) == pytest.approx(expected, rel=1e-14)
    x = np.linspace(-15.0, 15.0, 4001)
    trace = np.trapezoid(reduced_kernel_eval(s, x, x).real, x=x)
    assert trace == pytest.approx(1.0, abs=1e-10)


def test_k_independence_check():
    assert checks.check_k_independence(256).passed
