"""Independent reference for every workload call, and the per-call checker.

The reference is written from the paper's formulas, not from the package:

* overlap error: A^{-2} = [gamma^2 + delta^2 + gamma^2 lam + delta^2/lam]
  * exp(4 (k sigma)^2 lam / (1 + lam)).  With delta + gamma = 1 the
  bracket is 1 + (gamma lam - delta)^2 / lam, evaluated here without square
  roots (the package uses gamma sqrt(lam) - delta/sqrt(lam)).
* optimum: d ln A^{-2} / d lam = 0 is the quartic
  P(lam) = (gamma^2 lam^2 - delta^2)(1 + lam)^2
           + 4 kappa^2 lam (gamma^2 lam^2 + (gamma^2 + delta^2) lam + delta^2),
  whose unique positive root lies in (0, delta/gamma]; it is found by
  bisection on the sign of P (the package runs a golden-section search on
  a fixed bracket).
* entanglement: D, rho and w = sqrt(omega Omega)/rho from the spreads, and
  F0 = -expm1(-2 asinh(w/2)), F_n = F0 e^{-n u}.
* thermal: sigma_mu = hbar/sqrt(mu k_B T) from the exact SI constants.

:func:`check` compares one call's exit code and output with the reference
and returns the reasons it failed, empty when it passed.  Reasons that
match a defect already recorded in ROADMAP.md carry a ``known:`` prefix so
that a new failure is told apart from them; both count as failed calls.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import Call, SWEEP_POINTS

REL_TOL = 1e-9
# slack for the inequalities A <= A_max and A_max >= A(candidate)
ORDER_SLACK = 1e-12

# SI constants: h, k_B and c are exact in the 2019 SI
H_PLANCK = 6.62607015e-34
HBAR = H_PLANCK / (2.0 * math.pi)
K_B = 1.380649e-23
C_LIGHT = 299792458.0

# the package's golden-section bracket starts at delta^2 * 1e-3; an optimum
# below it comes back pinned to that edge (ROADMAP item 1)
KNOWN_BRACKET_EDGE = 1e-3
KNOWN_ITEM1 = "known:item1-optimum-pinned-to-bracket-edge"
KNOWN_ITEM5 = "known:item5-grid-1-traceback"

SWEEP_HEADERS = {
    "lambda": ["lambda", "k_sigma", "A", "one_minus_A", "F0", "measure"],
    "k_sigma": ["k_sigma", "lambda_max", "A_max", "one_minus_A",
                "asymptotic_small", "asymptotic_large", "regime"],
    "delta": ["delta", "lambda_max", "A_max", "one_minus_A"],
    "w": ["w", "u", "F0", "measure"],
    "T": ["T", "sigma_mu", "thermal_length", "k_sigma_est"],
}


# ------------------------------------------------------------ formulas


def mass_fractions(m, M):
    total = m + M
    return m / total, M / total


def fractions_from_inputs(inputs: dict):
    if "delta" in inputs:
        return mass_fractions(inputs["delta"], 1.0 - inputs["delta"])
    return mass_fractions(inputs["m"], inputs["M"])


def log_inverse_sq(lam, kappa, delta, gamma):
    """ln A^{-2}; broadcasts over every argument."""
    lam = np.asarray(lam, dtype=float)
    bracket_minus_one = (gamma * lam - delta) ** 2 / lam
    return np.log1p(bracket_minus_one) + 4.0 * kappa**2 * lam / (1.0 + lam)


def amplitude(lam, kappa, delta, gamma):
    return np.exp(-0.5 * log_inverse_sq(lam, kappa, delta, gamma))


def one_minus_amplitude(lam, kappa, delta, gamma):
    return -np.expm1(-0.5 * log_inverse_sq(lam, kappa, delta, gamma))


def _quartic(lam, kappa, delta, gamma):
    g2, d2 = gamma * gamma, delta * delta
    return ((g2 * lam * lam - d2) * (1.0 + lam) ** 2
            + 4.0 * kappa**2 * lam * (g2 * lam * lam + (g2 + d2) * lam + d2))


def optimal_lambda(kappa, delta, gamma):
    """Unique positive root of the quartic; broadcasts.  kappa = 0 gives
    delta/gamma exactly, where A = 1."""
    kappa, delta, gamma = np.broadcast_arrays(
        np.asarray(kappa, float), np.asarray(delta, float), np.asarray(gamma, float))
    hi = np.log(delta / gamma)
    lo = hi - 80.0  # P < 0 there for every kappa <= 1e3
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = _quartic(np.exp(mid), kappa, delta, gamma) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.where(kappa == 0.0, delta / gamma, np.exp(0.5 * (lo + hi)))


def regime(kappa: float) -> str:
    if kappa < 0.3:
        return "small-ksigma"
    if kappa > 3.0:
        return "large-ksigma"
    return "crossover"


def kernel(delta, gamma, Sigma, sigma):
    """(D, rho, w) of the reduced kernel; broadcasts."""
    Omega = 1.0 / (4.0 * np.asarray(Sigma, float) ** 2)
    omega = 1.0 / (4.0 * np.asarray(sigma, float) ** 2)
    D = Omega * (gamma - delta) ** 2 + 4.0 * omega * gamma**2
    rho = np.abs((gamma - delta) * (Omega * delta - omega * gamma))
    with np.errstate(divide="ignore"):
        w = np.sqrt(omega * Omega) / rho
    return D, rho, w


def largest_eigenvalue(w):
    return -np.expm1(-2.0 * np.arcsinh(0.5 * np.asarray(w, float)))


def thermal_spread(mu, T):
    return HBAR / np.sqrt(mu * K_B * T)


def thermal_length(T):
    return HBAR * C_LIGHT / (K_B * np.asarray(T, float))


# ------------------------------------------------------------ comparison


class Failures:
    """Collects (reason, detail) pairs for one call."""

    def __init__(self):
        self.items: list[tuple[str, str]] = []

    def add(self, reason: str, detail: str = "") -> None:
        self.items.append((reason, detail))

    def close(self, name: str, got, ref, rel: float = REL_TOL, floor: float = 1e-300):
        """got must match ref to rel; JSON null stands for a non-finite ref.
        Returns the elementwise pass mask."""
        got_a = np.asarray(np.nan if got is None else got, dtype=float)
        ref_a = np.asarray(ref, dtype=float)
        both_nonfinite = ~np.isfinite(got_a) & ~np.isfinite(ref_a)
        diff = np.abs(got_a - ref_a)
        scale = np.maximum(np.abs(got_a), np.abs(ref_a))
        ok = both_nonfinite | (diff <= rel * scale + floor)
        if not np.all(ok):
            bad = np.flatnonzero(~np.atleast_1d(ok))
            i = int(bad[0])
            g = np.atleast_1d(got_a)[min(i, got_a.size - 1)]
            r = np.atleast_1d(ref_a)[min(i, ref_a.size - 1)]
            self.add(f"value:{name}", f"{len(bad)} off, first got {g!r} ref {r!r}")
        return ok

    def at_least(self, name: str, big, small):
        """big >= small within ORDER_SLACK, elementwise; returns the pass mask."""
        big, small = np.asarray(big, float), np.asarray(small, float)
        bad = big < small * (1.0 - ORDER_SLACK) - 1e-300
        if np.any(bad):
            i = int(np.flatnonzero(np.atleast_1d(bad))[0])
            self.add(f"order:{name}", f"{int(np.sum(bad))} rows, first "
                     f"{np.broadcast_to(big, bad.shape).flat[i]!r} < "
                     f"{np.broadcast_to(small, bad.shape).flat[i]!r}")
        return ~bad


def _optimum_checks(f: Failures, lam_max, A_max, one_minus, kappa, delta, gamma,
                    A_at_lambda=None) -> None:
    """Checks on reported optima (one per row); flags the item-1 signature.

    lambda_max itself is checked through the amplitude it reaches: the
    optimum is flat, so lambda is determined only to about 1e-8 while A is
    determined to full precision.  A failing row whose lambda_max sits on
    the package's lower bracket edge while the true optimum lies below it
    is the known item-1 defect; any other failing row is a new failure.
    """
    lam_ref = optimal_lambda(kappa, delta, gamma)
    A_ref = amplitude(lam_ref, kappa, delta, gamma)
    one_minus_ref = one_minus_amplitude(lam_ref, kappa, delta, gamma)
    inner = Failures()
    ok = inner.close("A_max", A_max, A_ref)
    ok = ok & inner.close("one_minus_A_max", one_minus, one_minus_ref)
    ok = ok & inner.close("one_minus_A(lambda_max)",
                          one_minus_amplitude(lam_max, kappa, delta, gamma), one_minus_ref)
    if A_at_lambda is not None:
        ok = ok & inner.at_least("A_max>=A", A_max, A_at_lambda)
    ok = ok & inner.at_least("A_max>=A(delta/gamma)", A_max,
                             amplitude(delta / gamma, kappa, delta, gamma))
    kappa_pos = np.maximum(kappa, 1e-300)
    ok = ok & inner.at_least("A_max>=A(delta/2ksigma)", A_max,
                             amplitude(delta / (2.0 * kappa_pos), kappa, delta, gamma))
    if not inner.items:
        return
    edge = delta**2 * KNOWN_BRACKET_EDGE
    pinned = (np.abs(np.asarray(lam_max, float) / edge - 1.0) <= 1e-9) & (lam_ref < edge)
    bad = ~ok
    known = bad & pinned
    if np.any(known):
        f.add(KNOWN_ITEM1, f"{int(np.sum(known))} rows; first check: {inner.items[0][0]}")
    if np.any(bad & ~pinned):
        f.items.extend(inner.items)


# ------------------------------------------------------------ per kind


def _json(out: str, f: Failures):
    try:
        return json.loads(out)
    except ValueError as exc:
        f.add("output:not-json", str(exc))
        return None


def _check_error(call: Call, doc: dict, f: Failures) -> None:
    inp = call.inputs
    delta, gamma = fractions_from_inputs(inp)
    sigma = inp.get("sigma", 1.0)
    kappa = inp["ksigma"] if "ksigma" in inp else abs(inp["k"]) * sigma
    res, par = doc["results"], doc["params"]
    f.close("delta", par["delta"], delta)
    f.close("gamma", par["gamma"], gamma)
    f.close("k_sigma", par["k_sigma"], kappa)
    if "lambda" in inp:
        lam = inp["lambda"]
    elif inp.get("Sigma") == "auto":
        lam = delta / gamma
    elif "Sigma" in inp:
        lam = (inp["Sigma"] / sigma) ** 2
    else:
        lam = None  # the optimum itself
    if lam is not None:
        f.close("lambda", res["lambda"], lam)
    else:
        f.close("lambda=lambda_max", res["lambda"], res["lambda_max"], rel=0.0)
    lam_used = res["lambda"] if lam is None else lam
    f.close("A", res["A"], amplitude(lam_used, kappa, delta, gamma))
    f.close("one_minus_A", res["one_minus_A"], one_minus_amplitude(lam_used, kappa, delta, gamma))
    _optimum_checks(f, res["lambda_max"], res["A_max"], res["one_minus_A_max"],
                    kappa, delta, gamma, A_at_lambda=res["A"])
    if res["regime"] != regime(kappa):
        f.add("value:regime", f"{res['regime']} vs {regime(kappa)}")
    if "grid" in inp:
        aq = res.get("A_quadrature")
        if aq is None or not math.isfinite(aq):
            f.add("value:A_quadrature", repr(aq))
        else:
            f.close("A_quadrature_deviation", res["A_quadrature_deviation"],
                    abs(aq - res["A"]), rel=1e-9, floor=2e-12)


def _check_entangle(call: Call, doc: dict, f: Failures) -> None:
    inp = call.inputs
    delta, gamma = fractions_from_inputs(inp)
    sigma = inp["sigma"]
    if inp.get("Sigma") == "auto":
        Sigma = sigma * math.sqrt(delta / gamma)
    elif "Sigma" in inp:
        Sigma = inp["Sigma"]
    else:
        Sigma = sigma * math.sqrt(inp["lambda"])
    res, par = doc["results"], doc["params"]
    f.close("Sigma", par["Sigma"], Sigma)
    f.close("k", par["k"], inp.get("k", 0.0))
    D, rho, w = (float(v) for v in kernel(delta, gamma, Sigma, sigma))
    f.close("D", res["D"], D)
    scale = math.sqrt(1.0 / (16.0 * Sigma**2 * sigma**2))  # sqrt(omega Omega)
    f.close("rho", res["rho"], rho, floor=1e-13 * scale)
    if res["matched"]:
        # a product state: 1 - F0 must be beyond double precision
        if not w >= 1e10:
            f.add("value:matched", f"reported matched, reference w = {w!r}")
        expected = {"F0": 1.0, "measure": 0.0, "spectrum_tail_bound": 0.0}
        for key, val in expected.items():
            f.close(key, res[key], val, rel=0.0, floor=0.0)
        f.close("spectrum", res["spectrum"], [1.0] + [0.0] * (len(res["spectrum"]) - 1),
                rel=0.0, floor=0.0)
        if res["w"] is not None or res["u"] is not None:
            f.add("value:w", "matched state must report w = u = null")
    else:
        u = 2.0 * math.asinh(0.5 * w)
        F0 = float(largest_eigenvalue(w))
        f.close("w", res["w"], w)
        f.close("u", res["u"], u)
        f.close("F0", res["F0"], F0)
        f.close("measure", res["measure"], math.exp(-u))
        n = len(res["spectrum"])
        f.close("spectrum", res["spectrum"], F0 * np.exp(-u * np.arange(n)))
        f.close("spectrum_tail_bound", res["spectrum_tail_bound"], math.exp(-n * u))
    measure = res["measure"]
    if measure is None or not 0.0 <= measure < 1.0:
        f.add("range:1-F0", repr(measure))
    if "grid" in inp:
        sv = res.get("F0_svd")
        if sv is None or not math.isfinite(sv):
            f.add("value:F0_svd", repr(sv))
        else:
            f.close("F0_svd_deviation", res["F0_svd_deviation"], abs(sv - res["F0"]),
                    rel=1e-9, floor=2e-12)


def _check_thermal(call: Call, doc: dict, f: Failures) -> None:
    inp = call.inputs
    res = doc["results"]
    T = inp["T"]
    f.close("thermal_length", res["thermal_length"], thermal_length(T))
    delta_ref = inp.get("delta", 1e-6)
    d, g = mass_fractions(delta_ref, 1.0 - delta_ref)
    lam = optimal_lambda(1.0, d, g)
    f.close("error_per_collision_over_delta", res["error_per_collision_over_delta"],
            one_minus_amplitude(lam, 1.0, d, g) / delta_ref)
    if "mu_kg" in inp:
        mu = inp["mu_kg"]
        f.close("sigma_mu", res["sigma_mu"], thermal_spread(mu, T))
        f.close("compton_wavelength", res["compton_wavelength"], HBAR / (mu * C_LIGHT))
        f.close("k_sigma_est", res["k_sigma_est"], 1.0)
    if "collisions" in inp:
        n, F0 = inp["collisions"], inp["F0"]
        f.close("amplitude", res["amplitude"], F0 ** (0.5 * n))
        n_half = math.log(0.5) / (0.5 * math.log(F0)) if F0 < 1.0 else math.inf
        f.close("n_half", res["n_half"], n_half)


def parse_csv(text: str):
    """(header, rows as lists of strings) of an emitted CSV."""
    header, rows = None, []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows


def _check_sweep(call: Call, out: str, f: Failures) -> int:
    inp = call.inputs
    parameter = inp["parameter"]
    header, rows = parse_csv(out)
    if header != SWEEP_HEADERS[parameter]:
        f.add("output:header", repr(header))
        return len(rows)
    if len(rows) != SWEEP_POINTS:
        f.add("output:rows", f"{len(rows)} rows")
        return len(rows)
    text_cols = {"regime"}
    cols = {name: [r[i] for r in rows] for i, name in enumerate(header)}
    num = {name: np.array(v, dtype=float) for name, v in cols.items() if name not in text_cols}
    x = np.geomspace(inp["start"], inp["stop"], inp["points"])
    f.close(parameter, num[parameter], x)
    if parameter in ("k_sigma", "lambda"):
        delta, gamma = fractions_from_inputs(inp)
    if parameter == "k_sigma":
        _optimum_checks(f, num["lambda_max"], num["A_max"], num["one_minus_A"], x, delta, gamma)
        f.close("asymptotic_small", num["asymptotic_small"], 2.0 * delta * x**2)
        f.close("asymptotic_large", num["asymptotic_large"], 2.0 * delta * x)
        expected = [regime(k) for k in x]
        if cols["regime"] != expected:
            f.add("value:regime", "regime column differs")
    elif parameter == "lambda":
        kappa = inp["ksigma"]
        f.close("k_sigma", num["k_sigma"], np.full_like(x, kappa))
        f.close("A", num["A"], amplitude(x, kappa, delta, gamma))
        f.close("one_minus_A", num["one_minus_A"], one_minus_amplitude(x, kappa, delta, gamma))
        A_max_ref = amplitude(optimal_lambda(kappa, delta, gamma), kappa, delta, gamma)
        f.at_least("A_max>=A", np.full_like(x, A_max_ref), num["A"])
        _, _, w = kernel(delta, gamma, np.sqrt(x), 1.0)
        F0 = largest_eigenvalue(w)
        f.close("F0", num["F0"], F0)
        f.close("measure", num["measure"], 1.0 - F0)
    elif parameter == "delta":
        kappa = inp["ksigma"]
        delta, gamma = mass_fractions(x, 1.0 - x)
        _optimum_checks(f, num["lambda_max"], num["A_max"], num["one_minus_A"],
                        kappa, delta, gamma)
    elif parameter == "w":
        u = 2.0 * np.arcsinh(0.5 * x)
        F0 = largest_eigenvalue(x)
        f.close("u", num["u"], u)
        f.close("F0", num["F0"], F0)
        f.close("measure", num["measure"], 1.0 - F0)
        if np.any((num["measure"] < 0.0) | (num["measure"] >= 1.0)):
            f.add("range:1-F0", "measure outside [0, 1)")
    elif parameter == "T":
        mu = inp["mu_kg"]
        f.close("sigma_mu", num["sigma_mu"], thermal_spread(mu, x))
        f.close("thermal_length", num["thermal_length"], thermal_length(x))
        f.close("k_sigma_est", num["k_sigma_est"], np.ones_like(x))
    return len(rows)


def _check_verify(doc: dict, f: Failures) -> None:
    res = doc["results"]
    if not res.get("all_passed"):
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        f.add("verify:all_passed", f"failed checks: {failed}")
    if res.get("n_checks") != len(doc["checks"]) or len(doc["checks"]) != 12:
        f.add("verify:n_checks", f"{res.get('n_checks')} checks")


def check(call: Call, code, out: str, err: str, exc: str | None):
    """Failure reasons of one call (empty when it passed) and its result rows.

    code is main()'s return value or SystemExit code; exc names an exception
    that escaped main, if any.
    """
    f = Failures()
    rows = 0
    if exc is not None:
        if call.kind == "malformed" and "--grid" in call.argv and exc.startswith("ZeroDivisionError"):
            f.add(KNOWN_ITEM5, exc)
        else:
            f.add("exception", exc)
        return f.items, rows
    if call.kind == "malformed":
        if code != 2:
            f.add("exit:malformed", f"exit {code!r}, expected 2")
        if not err.strip():
            f.add("stderr:malformed", "no message on stderr")
        return f.items, rows
    if code != 0:
        f.add("exit", f"exit {code!r}, stderr {err.strip()[-200:]!r}")
        return f.items, rows
    try:
        if call.kind == "sweep":
            rows = _check_sweep(call, out, f)
        else:
            doc = _json(out, f)
            if doc is not None:
                rows = len(doc["checks"]) if call.kind == "verify" else 1
                if call.kind == "error":
                    _check_error(call, doc, f)
                elif call.kind == "entangle":
                    _check_entangle(call, doc, f)
                elif call.kind == "thermal":
                    _check_thermal(call, doc, f)
                elif call.kind == "verify":
                    _check_verify(doc, f)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        f.add("output:malformed", f"{type(e).__name__}: {e}")
    return f.items, rows


def is_known(reason: str) -> bool:
    return reason.startswith("known:")
