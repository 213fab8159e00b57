"""Acceptance suite: every headline result at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run) and then asserts, so a red criterion is
both greppable and a test failure.
"""

import json
import math
import time

import numpy as np

from decoh import cli
from decoh.entanglement import (
    kernel_params,
    largest_eigenvalue,
    optimal_spreads,
    oscillator_kernel,
    oscillator_kernel_spectrum,
    reduced_kernel_eval,
    spectrum_values,
)
from decoh.error_bounds import (
    golden_section_minimize,
    mismatch_penalty,
    optimal_lambda,
    overlap_amplitude,
    overlap_log_inverse_sq,
)
from decoh.kinematics import (
    collision_params,
    collision_params_from_delta,
    ideal_reflected_state,
    initial_state,
    post_collision_state,
)
from decoh.oracles import (
    grid_for_state,
    hermitian_kernel_eigenvalues,
    kernel_eigensolve,
    oscillator_grid,
    quadrature_overlap,
    schmidt_decompose,
)
from decoh.checks import check_image_vs_fft


def _report(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_zero_error_matching():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst_closed = 0.0
    worst_quad = 0.0
    for _ in range(100):
        m, M = np.exp(rng.uniform(-2.0, 2.0, size=2))
        p = collision_params(m, M)
        worst_closed = max(worst_closed,
                           abs(overlap_amplitude(p.delta / p.gamma, 0.0, p) - 1.0))
        s0 = initial_state(optimal_spreads(1.0, p), 1.0, 0.0)
        sf = post_collision_state(s0, p)
        t = ideal_reflected_state(s0)
        res = quadrature_overlap(t, sf, grid=grid_for_state(t, sf, n=256))
        worst_quad = max(worst_quad, abs(abs(res.value) - 1.0))
    elapsed = time.time() - t0
    ok = worst_closed < 1e-12 and worst_quad < 1e-8 and elapsed < 10.0
    _report(1, ok,
            f"100 matched pairs: closed dev {worst_closed:.2e} (tol 1e-12), "
            f"quadrature dev {worst_quad:.2e} (tol 1e-8), {elapsed:.1f}s (< 10 s)")


def test_criterion_02_small_ksigma_law():
    delta = 1e-3
    p = collision_params_from_delta(delta)
    ratios = []
    for ks in (1e-3, 1e-2):
        opt = optimal_lambda(ks, p)
        ratios.append(opt.one_minus_A / (2.0 * delta * ks**2))
    ok = all(0.95 <= r <= 1.05 for r in ratios)
    _report(2, ok, f"(1-A)/(2 delta (k sigma)^2) = {ratios[0]:.4f}, {ratios[1]:.4f} "
                   "in [0.95, 1.05]")


def test_criterion_03_large_ksigma_law():
    delta = 1e-6
    p = collision_params_from_delta(delta)
    err_ratios, lam_ratios = [], []
    for ks in (50.0, 100.0):
        opt = optimal_lambda(ks, p)
        err_ratios.append(opt.one_minus_A / (2.0 * delta * ks))
        lam_ratios.append(opt.lambda_max / (delta / (2.0 * ks)))
    ok = all(0.95 <= r <= 1.05 for r in err_ratios) and all(
        0.9 <= r <= 1.1 for r in lam_ratios
    )
    _report(3, ok,
            f"(1-A)/(2 delta k sigma) = {err_ratios[0]:.4f}, {err_ratios[1]:.4f}; "
            f"lambda_max/(delta/2 k sigma) = {lam_ratios[0]:.4f}, {lam_ratios[1]:.4f}")


def test_criterion_04_crossover_anchor():
    delta = 1e-4
    opt = optimal_lambda(1.0, collision_params_from_delta(delta))
    ratio = opt.one_minus_A / (1.2 * delta)
    ok = 0.9 <= ratio <= 1.1
    _report(4, ok, f"optimized 1-A at k sigma = 1 is {ratio:.4f} x 1.2 delta "
                   "(tol 10%)")


def test_criterion_05_mismatch_penalty():
    delta = 1e-5
    p = collision_params_from_delta(delta)
    worst = 0.0
    for ks in (0.0, 0.5, 1.0):
        for y in np.linspace(-3.0, 3.0, 60):
            predicted = float(mismatch_penalty(y, ks)) * delta
            exact = 1.0 - overlap_amplitude(delta * math.exp(y), ks, p)
            worst = max(worst, abs(predicted - exact) / exact)
    ok = worst < 0.05
    _report(5, ok, f"penalty*delta vs exact amplitude: worst relative "
                   f"{worst:.2e} over y in [-3, 3], k sigma in (0, 0.5, 1) (tol 5%)")


def test_criterion_06_spectrum_identity():
    worst_id = 0.0
    for w in np.geomspace(1e-6, 1e6, 241):
        u = 2.0 * np.arcsinh(0.5 * w)
        z = 1.0 / (np.sqrt(0.25 * w * w + 1.0) + 0.5 * w)
        worst_id = max(worst_id, abs(z * z - np.exp(-u)) / np.exp(-u))
    worst_sum = 0.0
    for w in (1e-3, 0.3, 1.0412328196584757, 12.0, 1e3):
        u = 2.0 * np.arcsinh(0.5 * w)
        worst_sum = max(worst_sum, abs(math.fsum(spectrum_values(w, 64)) - (1.0 - np.exp(-64 * u))))
    ok = worst_id < 1e-12 and worst_sum < 1e-12
    _report(6, ok, f"z^2 = e^-u to {worst_id:.2e} across w in [1e-6, 1e6]; "
                   f"64-term sum to {worst_sum:.2e} (tol 1e-12)")


def test_criterion_07_oracle_equivalence_f0():
    rng = np.random.default_rng(707)
    t0 = time.time()
    worst_svd = worst_eig = worst_ratio = 0.0
    accepted = 0
    while accepted < 20:
        delta = float(np.exp(rng.uniform(np.log(5e-3), np.log(0.3))))
        sigma = float(np.exp(rng.uniform(-0.7, 0.7)))
        Sigma = sigma * float(np.exp(rng.uniform(-1.2, 1.2)))
        k = float(rng.uniform(0.0, 3.0)) / sigma
        p = collision_params_from_delta(delta)
        sf = post_collision_state(initial_state(Sigma, sigma, k), p)
        kp = kernel_params(sf)
        if kp.matched or not (0.2 <= kp.w <= 4.0):
            continue
        accepted += 1
        f0 = largest_eigenvalue(kp.w)
        sv = schmidt_decompose(sf, n=512).singular_values
        eig = kernel_eigensolve(sf, n=512).eigenvalues
        worst_svd = max(worst_svd, abs(sv[0] ** 2 - f0))
        worst_eig = max(worst_eig, abs(eig[0] - f0))
        ratios = sv[1:5] ** 2 / sv[0:4] ** 2
        worst_ratio = max(worst_ratio, float(np.max(np.abs(ratios - np.exp(-kp.u)))))
    elapsed = time.time() - t0
    ok = worst_svd < 1e-6 and worst_eig < 1e-6 and worst_ratio < 1e-4 and elapsed < 120.0
    _report(7, ok,
            f"20 random states: SVD dev {worst_svd:.2e}, eigensolve dev "
            f"{worst_eig:.2e} (tol 1e-6), ratio dev {worst_ratio:.2e} (tol 1e-4), "
            f"{elapsed:.0f}s (< 120 s)")


def test_criterion_08_matched_disentanglement_with_momentum():
    p = collision_params_from_delta(0.01)
    sigma = 1.0
    sf = post_collision_state(
        initial_state(optimal_spreads(sigma, p), sigma, 10.0 / sigma), p
    )
    sv = schmidt_decompose(sf, n=512).singular_values
    f0 = sv[0] ** 2
    ok = f0 >= 1.0 - 1e-6
    _report(8, ok, f"SVD F0 = {f0:.9f} >= 1 - 1e-6 at matched spreads, k = 10/sigma")


def test_criterion_09_oscillator_kernel_lemma():
    u = 0.7
    expected = oscillator_kernel_spectrum(u, 5)
    spectra = []
    for beta in (0.1, 10.0):
        nodes = oscillator_grid(beta, u, n=512)
        spectra.append(hermitian_kernel_eigenvalues(oscillator_kernel(beta, u), nodes)[:5])
    dev_exact = max(float(np.max(np.abs(s - expected))) for s in spectra)
    dev_cross = float(np.max(np.abs(spectra[0] - spectra[1])))
    ok = dev_exact < 1e-6 and dev_cross < 1e-8
    _report(9, ok, f"eigensolve vs e^-u(n+1/2): dev {dev_exact:.2e} (tol 1e-6); "
                   f"cross-beta {dev_cross:.2e} (tol 1e-8)")


def test_criterion_10_e2_reconstruction():
    p = collision_params_from_delta(0.01)
    sf = post_collision_state(initial_state(1.0, 1.0, 0.7), p)
    kp = kernel_params(sf)
    _, (sx, sX) = sf.envelope()
    Xs = np.linspace(-8.0 * sX, 8.0 * sX, 2048)
    xs = np.linspace(-2.0 * sx, 2.0 * sx, 5)
    numeric = np.empty((5, 5), dtype=complex)
    for i, xp in enumerate(xs):
        numeric[i] = np.trapezoid(
            np.conj(sf(xp, Xs)) * sf(xs[:, None], Xs[None, :]), x=Xs, axis=1
        )
    closed = reduced_kernel_eval(sf, x=xs[None, :], x_prime=xs[:, None])
    dev = float(np.max(np.abs(numeric - closed)))
    alt_devs = []
    for c in (0.0, 1.0, 3.0, 4.0):
        alt = closed * np.exp(
            -((xs[None, :] - xs[:, None]) ** 2) * (c - 2.0) * kp.rho**2 / kp.D
        )
        alt_devs.append(float(np.max(np.abs(numeric - alt))))
    ok = dev < 1e-8 and all(d >= 1e-3 for d in alt_devs)
    _report(10, ok,
            f"off-diagonal coefficient 2 rho^2: dev {dev:.2e} (tol 1e-8); "
            f"alternatives fail by >= {min(alt_devs):.2e} (>= 1e-3)")


def test_criterion_11_image_propagator_consistency():
    check = check_image_vs_fft(None)
    _report(11, check.passed, f"evolved reflected wave vs FFT route: L2 "
                              f"{check.deviation:.2e} (tol 1e-3)")


def test_criterion_12_thermal_anchor():
    from decoh.thermal import compton_wavelength, thermal_length, thermal_spread

    L_cm_K = thermal_length(1.0) * 100.0
    anchor_ok = abs(L_cm_K - 0.229) / 0.229 < 1e-3 and abs(L_cm_K / 0.2 - 1.0) < 0.15
    worst_geo = 0.0
    for mu, T in [(9.1093837015e-31, 300.0), (1.7e-27, 4.2), (1e-25, 0.05)]:
        geo = math.sqrt(compton_wavelength(mu) * thermal_length(T))
        worst_geo = max(worst_geo, abs(thermal_spread(mu, T) / geo - 1.0))
    ok = anchor_ok and worst_geo < 1e-12
    _report(12, ok, f"hbar c/k_B = {L_cm_K:.6f} cm K (0.229, within 15% of 0.2); "
                    f"geometric-mean identity to {worst_geo:.2e} (tol 1e-12)")


def test_criterion_13_argmax_coincidence():
    rng = np.random.default_rng(1313)
    worst = 0.0
    for _ in range(10):
        m, M = np.exp(rng.uniform(-1.5, 1.5, size=2))
        p = collision_params(m, M)
        target = p.delta / p.gamma
        lo, hi = math.log(p.delta**2 * 1e-3), math.log(1e3)

        def overlap_objective(t):
            return float(overlap_log_inverse_sq(math.exp(t), 0.0, p))

        def f0_objective(t):
            sf = post_collision_state(initial_state(math.sqrt(math.exp(t)), 1.0, 0.0), p)
            kp = kernel_params(sf)
            return kp.z * kp.z

        t_a, _, _ = golden_section_minimize(overlap_objective, lo, hi, tol=1e-11)
        t_f, _, _ = golden_section_minimize(f0_objective, lo, hi, tol=1e-11)
        worst = max(worst, abs(math.exp(t_a) / target - 1.0),
                    abs(math.exp(t_f) / target - 1.0))
    ok = worst < 1e-8
    _report(13, ok, f"numeric argmax of A and of F0 both at delta/gamma to "
                    f"{worst:.2e} relative (tol 1e-8), 10 mass pairs")


def test_criterion_14_cli_contract(capsys, monkeypatch):
    code = cli.main(["verify", "--format", "json"])
    out = capsys.readouterr().out
    verify_ok = code == 0 and json.loads(out)["results"]["all_passed"] is True

    argv = ["sweep", "--parameter", "k_sigma", "--start", "1e-2", "--stop", "1e2",
            "--points", "31", "--scale", "log", "--delta", "1e-4"]
    outputs = []
    for threads in ("1", "3", "1"):
        monkeypatch.setenv("DECOH_NUM_THREADS", threads)
        assert cli.main(list(argv)) == 0
        outputs.append(capsys.readouterr().out)
    identical = outputs[0] == outputs[1] == outputs[2]
    ok = verify_ok and identical
    _report(14, ok, f"verify exit 0: {verify_ok}; golden sweep byte-identical "
                    f"across runs and thread counts: {identical}")
