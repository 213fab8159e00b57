"""Command-line front end.

Subcommands: error, entangle, sweep, verify, thermal.  Exit codes: 0 on
success, 1 when a verification check fails, 2 for usage or domain errors.
Output is human-readable text by default; --format csv or json switches to
machine-readable forms with 12 significant digits.  A sweep runs on
min(8, CPU count) threads.

Every command reads its inputs one way and writes its output one way.  Each
key=value line of a --config file becomes a --key=value option spliced into
argv right after the subcommand, so the one argument parser checks it like
any flag and a flag given on the command line wins.  Every command hands
its params, results, CSV header and text lines to _render, which writes the
chosen format.

The argument parser is built once per process and reused by every call to
main, so callers that run many commands in one process (tests, notebooks,
a benchmark loop) pay for it once.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from . import entanglement as ent
from . import error_bounds as eb
from . import oracles
from . import thermal as th
from .checks import run_verification
from .kinematics import (
    CollisionParams,
    _check_spread,
    collision_params,
    collision_params_from_delta,
    ideal_reflected_state,
    initial_state,
    post_collision_state,
)

# per sweep parameter: what --start and --stop must do, its test, and the
# row's columns; each domain is an interval, so it holds every point between the ends
_SWEEPS = {
    "lambda": ("be positive and finite", lambda v: 0.0 < v < math.inf,
               ["lambda", "k_sigma", "A", "one_minus_A", "F0", "measure"]),
    "k_sigma": ("be non-negative with a finite square",
                lambda v: v >= 0.0 and math.isfinite(v * v),
                ["k_sigma", "lambda_max", "A_max", "one_minus_A",
                 "asymptotic_small", "asymptotic_large", "regime"]),
    "delta": ("lie in (0, 1)", lambda v: 0.0 < v < 1.0,
              ["delta", "lambda_max", "A_max", "one_minus_A"]),
    "w": ("be non-negative and finite", lambda v: 0.0 <= v < math.inf,
          ["w", "u", "F0", "measure"]),
    "T": ("be positive and finite", lambda v: 0.0 < v < math.inf,
          ["T", "sigma_mu", "thermal_length", "k_sigma_est"]),
}
SWEEP_PARAMETERS = tuple(_SWEEPS)
# most eigenvalues entangle lists: the spectrum is built as one array
MAX_N_SPECTRUM = 1_000_000
# most rows a sweep takes: every row is held until the table is written
MAX_POINTS = 1_000_000


def _sig12(value):
    """Round floats to 12 significant digits; map non-finite to None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        return float(f"{value:.12g}")
    return value


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    return _sig12(obj)


def format_json(params: dict, results: dict, checks: list[dict]) -> str:
    doc = {"params": _jsonify(params), "results": _jsonify(results),
           "checks": _jsonify(checks)}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def format_csv(params: dict, header: list[str], rows: list[list]) -> str:
    lines = [f"# version={__version__}"]
    for key in sorted(params):
        lines.append(f"# {key}={params[key]}")
    lines.append(",".join(header))
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(f"{v:.12g}")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _render(args, params: dict, results: dict, header: list[str], rows=None,
            lines: list[str] | None = None, checks=()) -> None:
    """Write a command's output in args.format to args.out or stdout.

    rows defaults to the one row of header's values, looked up in results
    and then params; a command without text lines prints CSV for text.
    """
    if args.format == "json":
        text = format_json(params, results, checks)
    elif args.format == "csv" or lines is None:
        if rows is None:
            rows = [[results[h] if h in results else params[h] for h in header]]
        text = format_csv(params, header, rows)
    else:
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_options(path: str, options) -> list[str]:
    """--key=value for each key=value line of a config file, in file order;
    each key must spell out one of options other than --config."""
    lines = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep:
                raise ValueError(f"config line is not key=value: {raw.strip()!r}")
            option = "--" + key.replace("_", "-")
            if option not in options or option == "--config":
                raise ValueError(f"unknown config key {key!r}")
            lines.append(f"{option}={value}")
    return lines


def _with_config(argv: list[str]) -> list[str]:
    """argv with its --config file's options spliced in right after the
    subcommand, so that flags given on the command line override them.

    --config is found the way the subcommand's parser finds it, abbreviations
    included, and the last one wins; the argument after it is its path.
    """
    options = _parser()[1].get(argv[0]) if argv else None
    if options is None:
        return argv
    path, rest = None, iter(argv[1:])
    for arg in rest:
        name, sep, value = arg.partition("=")
        # --config, or an abbreviation of it that names no other option
        if "--config".startswith(name) and sum(o.startswith(name) for o in options) == 1:
            path = value if sep else next(rest, None)
            # argparse reads an argument that looks like an option as no path
            if not sep and path and re.fullmatch(r"-(?!\d+$|\d*\.\d+$)[^ ]+", path):
                return argv  # for the parser to report
    return argv if path is None else argv[:1] + _config_options(path, options) + argv[1:]


def _build_params(args) -> CollisionParams:
    if args.delta is not None:
        if args.m is not None or args.M is not None:
            raise ValueError("give either --delta or --m/--M, not both")
        return _params_from_delta(args.delta)
    if args.m is None or args.M is None:
        raise ValueError("masses are required: --m and --M (or --delta)")
    m, M = _positive("--m", args.m), _positive("--M", args.M)
    if not math.isfinite(m + M):
        raise ValueError(f"--m and --M must have a finite sum, got {m:g} + {M:g}")
    return collision_params(m, M)


def _mass_flags(args) -> str:
    """The flags that _build_params read the mass fraction from."""
    return "--delta" if args.delta is not None else "--m and --M"


def _params_from_delta(delta: float) -> CollisionParams:
    """Params for --delta, which must lie in (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"--delta must lie in (0, 1), got {delta}")
    return collision_params_from_delta(delta)


def _positive(flag: str, value: float | None) -> float | None:
    """value, unless it is given and not positive and finite."""
    if value is not None and not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{flag} must be positive and finite, got {value}")
    return value


def _finite_square(label: str, value: float) -> float:
    """value, unless its square overflows or it is nan."""
    if not math.isfinite(value * value):
        raise ValueError(f"{label} must have a finite square, got {value:g}")
    return value


def _named(flags: str, fn, *args):
    """fn(*args), its ValueError named by flags: the library words a float
    outside the normal range (decoh.thermal), a spread out of range
    (decoh.kinematics) or a mass fraction too small for the optimum's
    bracket (decoh.error_bounds) in its own terms, not by a flag."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"{flags} out of range: {exc}") from None


def _thermal_spread(flag: str, mu: float, T: float) -> float:
    """sigma_mu, unless mu k_B, mu k_B T or sigma_mu is not a normal float."""
    _named("--mu-kg", th._normal, "mu k_B", mu * th.K_B)
    return _named(f"--mu-kg and {flag}", th.thermal_spread, mu, T)


def _initial_state(wall_flags: str, Sigma: float, sigma: float, k: float):
    """initial_state(Sigma, sigma, k), a spread out of range named by the
    flags it came from: --sigma for sigma, wall_flags for Sigma."""
    _named("--sigma", _check_spread, "particle", sigma)
    _named(wall_flags, _check_spread, "wall", Sigma)
    return initial_state(Sigma, sigma, k)


def _resolve_state(args, p: CollisionParams):
    """(Sigma, sigma, lambda, k, k sigma) from the flags.

    sigma defaults to 1 and --Sigma auto applies spread matching; Sigma and
    lambda are None when their flag is not given.  Each spread and lambda
    must be positive and finite, and lambda a normal float.  --ksigma beats
    --k; k is signed, k sigma is |k| sigma and must have a finite square.
    """
    if args.grid is not None and args.grid <= 0:
        raise ValueError(f"--grid must be positive, got {args.grid}")
    sigma = _positive("--sigma", args.sigma if args.sigma is not None else 1.0)
    Sigma = args.Sigma
    if Sigma is not None and Sigma.strip().lower() == "auto":
        Sigma = ent.optimal_spreads(sigma, p)
    elif Sigma is not None:
        try:
            value = float(Sigma)
        except ValueError:
            raise ValueError(f"--Sigma must be a number or 'auto', got {Sigma!r}") from None
        Sigma = _positive("--Sigma", value)
    if args.ksigma is not None:
        k_sigma = args.ksigma
        k = k_sigma / sigma
    else:
        k = args.k if args.k is not None else 0.0
        k_sigma = abs(k) * sigma
    lam = _positive("--lambda", args.lambda_)
    if lam is not None:
        _named("--lambda", th._normal, "lambda", lam)
    return Sigma, sigma, lam, k, _finite_square("k sigma", k_sigma)


def cmd_error(args) -> int:
    p = _build_params(args)
    Sigma, sigma, lam, _, k_sigma = _resolve_state(args, p)
    if k_sigma < 0.0:
        raise ValueError(f"--ksigma must be non-negative, got {k_sigma}")
    if lam is None and Sigma is not None:
        flags = "(--Sigma/--sigma)^2"
        lam = _named(flags, th._normal, "lambda",
                     _positive(flags, (Sigma / sigma) * (Sigma / sigma)))
    opt = _named(_mass_flags(args), eb.optimal_lambda, k_sigma, p)
    if lam is None:
        lam = opt.lambda_max
    A, one_minus_A = eb.overlap_error(lam, k_sigma, p)
    params = {"delta": p.delta, "gamma": p.gamma, "lambda": lam, "k_sigma": k_sigma}
    results = {"A": A, "one_minus_A": one_minus_A,
               "lambda": lam, "lambda_max": opt.lambda_max,
               "A_max": opt.A_max, "one_minus_A_max": opt.one_minus_A,
               "regime": opt.regime}
    lines = [
        f"overlap error (delta={p.delta:.6g}, k sigma={k_sigma:.6g})",
        f"  lambda      = {lam:.12g}",
        f"  A           = {A:.12g}",
        f"  1 - A       = {one_minus_A:.12g}",
        f"  lambda_max  = {opt.lambda_max:.12g}",
        f"  A_max       = {opt.A_max:.12g}",
        f"  regime      = {opt.regime}",
    ]
    if args.grid:
        # cross-check the closed form on a quadrature grid of the given size
        wall = ("--sigma and --lambda" if args.lambda_ is not None
                else "--Sigma" if Sigma is not None else "--sigma")
        s0 = _initial_state(wall, sigma * math.sqrt(lam), sigma, k_sigma / sigma)
        sf = post_collision_state(s0, p)
        quad = oracles.quadrature_overlap(
            ideal_reflected_state(s0), sf,
            grid=oracles.grid_for_state(sf, n=args.grid),
        )
        results["A_quadrature"] = abs(quad.value)
        results["A_quadrature_deviation"] = abs(abs(quad.value) - A)
        lines.append(f"  A quadrature = {results['A_quadrature']:.12g} "
                     f"(deviation {results['A_quadrature_deviation']:.3e})")
    if args.verbose:
        lines.append(f"  optimizer: {opt.iterations} golden-section steps, "
                     f"1 - A_max = {opt.one_minus_A:.12g}")
    header = ["lambda", "k_sigma", "A", "one_minus_A", "lambda_max", "A_max", "regime"]
    _render(args, params, results, header, lines=lines)
    return 0


def cmd_entangle(args) -> int:
    p = _build_params(args)
    Sigma, sigma, lam, k, _ = _resolve_state(args, p)
    if args.grid == 1:
        raise ValueError("--grid must be at least 2 on entangle, got 1")
    wall = "--Sigma" if Sigma is not None else "--sigma and --lambda"
    if Sigma is None and lam is not None:
        Sigma = sigma * math.sqrt(lam)
    if Sigma is None:
        raise ValueError("wall spread is required: --Sigma (or --lambda)")
    sf = post_collision_state(_initial_state(wall, Sigma, sigma, k), p)
    kp = ent.kernel_params(sf)
    n_spec = args.n_spectrum if args.n_spectrum is not None else 8
    if n_spec < 1:
        raise ValueError(f"--n-spectrum must be at least 1, got {n_spec}")
    if n_spec > MAX_N_SPECTRUM:
        raise ValueError(f"--n-spectrum must be at most {MAX_N_SPECTRUM}, got {n_spec}")
    F0 = ent.largest_eigenvalue(kp.w)
    spectrum = ent.spectrum(kp.w, n_spec).tolist()
    # the eigenvalues past the first n sum to e^{-n u}, 0 on a matched state
    tail = float(np.exp(-n_spec * kp.u))
    params = {"delta": p.delta, "gamma": p.gamma, "Sigma": Sigma,
              "sigma": sigma, "k": k}
    results = {"D": kp.D, "rho": kp.rho, "w": kp.w, "u": kp.u,
               "F0": F0, "measure": kp.z * kp.z, "matched": kp.matched,
               "spectrum": spectrum, "spectrum_tail_bound": tail}
    w_str = "inf (matched)" if kp.matched else f"{kp.w:.12g}"
    lines = [
        f"entanglement (delta={p.delta:.6g}, Sigma={Sigma:.6g}, sigma={sigma:.6g}, k={k:.6g})",
        f"  D        = {kp.D:.12g}",
        f"  rho      = {kp.rho:.12g}",
        f"  w        = {w_str}",
        f"  u        = {kp.u:.12g}",
        f"  F0       = {F0:.12g}",
        f"  1 - F0   = {results['measure']:.12g}",
        f"  spectrum = {', '.join(f'{v:.6g}' for v in spectrum)}",
    ]
    if args.grid:
        sv = oracles.schmidt_decompose(sf, n=args.grid).singular_values
        results["F0_svd"] = float(sv[0] ** 2)
        results["F0_svd_deviation"] = abs(float(sv[0] ** 2) - F0)
        # the sampled norm sum s_i^2 is 1 only where the grid resolves the state
        results["svd_norm"] = float(np.sum(sv**2))
        if abs(results["svd_norm"] - 1.0) > 1e-6:
            print(f"warning: the SVD oracle's sampled norm is {results['svd_norm']:.6g}, "
                  f"not 1: the {args.grid} x {args.grid} grid does not resolve the state",
                  file=sys.stderr)
        lines.append(f"  F0 (SVD oracle) = {results['F0_svd']:.12g} "
                     f"(deviation {results['F0_svd_deviation']:.3e})")
    if args.verbose:
        lines.append(f"  spectrum tail bound = {tail:.3e}")
    header = ["D", "rho", "w", "u", "F0", "measure", "matched"]
    _render(args, params, results, header, lines=lines)
    return 0


def _sweep_row(parameter: str, value: float, args, p: CollisionParams | None):
    if parameter == "lambda":
        lam, k_sigma = value, (args.ksigma or 0.0)
        A, one_minus_A = eb.overlap_error(lam, k_sigma, p)
        sf = post_collision_state(initial_state(math.sqrt(lam), 1.0, 0.0), p)
        f0 = ent.largest_eigenvalue(ent.kernel_params(sf).w)
        return [lam, k_sigma, A, one_minus_A, f0, 1.0 - f0]
    if parameter == "k_sigma":
        opt = eb.optimal_lambda(value, p)
        err_small = eb.error_asymptotic(value, p.delta, "small")[1]
        err_large = (eb.error_asymptotic(value, p.delta, "large")[1] if value > 0.0
                     else math.nan)
        return [value, opt.lambda_max, opt.A_max, opt.one_minus_A,
                err_small, err_large, opt.regime]
    if parameter == "delta":
        opt = eb.optimal_lambda(args.ksigma or 0.0, collision_params_from_delta(value))
        return [value, opt.lambda_max, opt.A_max, opt.one_minus_A]
    if parameter == "w":
        f0 = ent.largest_eigenvalue(value)
        u = 2.0 * math.asinh(0.5 * value)
        return [value, u, f0, 1.0 - f0]
    # parameter is T, the last of SWEEP_PARAMETERS
    return [value, th.thermal_spread(args.mu_kg, value), th.thermal_length(value),
            th.thermal_k_sigma(args.mu_kg, value)]


def cmd_sweep(args) -> int:
    if args.parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"sweep parameter must be one of {SWEEP_PARAMETERS}, "
                         f"got {args.parameter!r}")
    if args.points < 2:
        raise ValueError("a sweep needs --points >= 2")
    if args.points > MAX_POINTS:
        raise ValueError(f"--points must be at most {MAX_POINTS}, got {args.points}")
    if args.scale == "log" and (args.start <= 0.0 or args.stop <= 0.0):
        raise ValueError("log scale requires positive start and stop")
    if args.ksigma is not None:
        _finite_square("--ksigma", args.ksigma)
        if args.ksigma < 0.0:
            raise ValueError(f"--ksigma must be non-negative, got {args.ksigma}")
    p = _build_params(args) if args.parameter in ("lambda", "k_sigma") else None
    if args.parameter == "T":
        if args.mu_kg is None:
            raise ValueError("a T sweep needs --mu-kg")
        _positive("--mu-kg", args.mu_kg)
    rule, inside, header = _SWEEPS[args.parameter]
    ends = (("--start", args.start), ("--stop", args.stop))
    for flag, value in ends:
        if not inside(value):
            raise ValueError(f"{flag} must {rule} for a {args.parameter} sweep, got {value}")
    # each rule below holds on an interval of the parameter, so the two ends
    # bound every row
    for flag, value in ends:
        if args.parameter == "lambda":
            _named(flag, th._normal, "lambda", value)
        elif args.parameter == "T":
            _thermal_spread(flag, args.mu_kg, value)
            _named(flag, th.thermal_length, value)
        elif args.parameter == "delta":
            _named(flag, eb.optimal_lambda, args.ksigma or 0.0,
                   collision_params_from_delta(value))
        elif args.parameter == "k_sigma":
            _named(_mass_flags(args), eb.optimal_lambda, value, p)
    # built after the domain checks: numpy warns on an infinite --start or --stop
    space = np.geomspace if args.scale == "log" else np.linspace
    values = space(args.start, args.stop, args.points)

    with ThreadPoolExecutor(max_workers=min(8, os.cpu_count() or 1)) as pool:
        rows = list(pool.map(lambda v: _sweep_row(args.parameter, float(v), args, p), values))

    params = {"parameter": args.parameter, "start": args.start, "stop": args.stop,
              "points": args.points, "scale": args.scale}
    if p is not None:
        params["delta"] = p.delta
    _render(args, params, {"columns": header, "rows": rows}, header, rows)
    return 0


def cmd_verify(args) -> int:
    results = run_verification(grid_n=args.grid)
    ok = all(c.passed for c in results)

    params = {"grid": args.grid}
    checks = [
        {"name": c.name, "tolerance": c.tolerance, "deviation": c.deviation,
         "passed": c.passed, "detail": c.detail}
        for c in results
    ]
    summary = {"n_checks": len(results), "n_passed": sum(c.passed for c in results),
               "all_passed": ok}
    lines = []
    for c in results:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{status}  {c.name:<24} deviation={c.deviation:.3e}  "
            f"tol={c.tolerance:.1e}  ({c.detail})"
        )
    lines.append(f"{summary['n_passed']}/{summary['n_checks']} checks passed")
    header = ["name", "tolerance", "deviation", "passed"]
    _render(args, params, summary, header, [[c[h] for h in header] for c in checks],
            lines, checks)
    return 0 if ok else 1


def cmd_thermal(args) -> int:
    if args.T is None:
        raise ValueError("temperature is required: --T")
    if args.mu_kg is None and not args.report_length_scale:
        raise ValueError("mass is required: --mu-kg (or use --report-length-scale)")
    mu = _positive("--mu-kg", args.mu_kg)
    if mu is not None:
        _positive("--T", args.T)

    # optimized per-collision error coefficient at the thermal momentum
    delta_ref = args.delta if args.delta is not None else 1e-6
    opt = _named("--delta", eb.optimal_lambda, 1.0, _params_from_delta(delta_ref))
    coeff = opt.one_minus_A / delta_ref

    if args.F0 is not None and not 0.0 < args.F0 <= 1.0:
        raise ValueError(f"--F0 must lie in (0, 1], got {args.F0}")
    budget = None
    if args.collisions is not None:
        if args.collisions < 0:
            raise ValueError(f"--collisions must be non-negative, got {args.collisions}")
        if args.collisions > sys.float_info.max:
            raise ValueError(f"--collisions must be at most {sys.float_info.max:g}")
        f0 = args.F0 if args.F0 is not None else 1.0
        budget = th.amplitude_budget(f0, n=args.collisions)

    params = {"mu_kg": args.mu_kg, "T": args.T, "delta": args.delta,
              "collisions": args.collisions, "F0": args.F0}
    # without a mass the temperature is first checked here, after --delta
    T = _positive("--T", args.T)
    results: dict = {"thermal_length": _named("--T", th.thermal_length, T),
                     "error_per_collision_over_delta": coeff}
    lines = [f"thermal design (T={args.T:.6g} K)",
             f"  hbar c / k_B T        = {results['thermal_length']:.12g} m"]
    if mu is not None:
        results["compton_wavelength"] = _named("--mu-kg", th.compton_wavelength, mu)
        results["sigma_mu"] = _thermal_spread("--T", mu, T)
        results["k_sigma_est"] = th.thermal_k_sigma(mu, T)
        lines += [f"  sigma_mu              = {results['sigma_mu']:.12g} m",
                  f"  compton wavelength    = {results['compton_wavelength']:.12g} m",
                  f"  k sigma estimate      = {results['k_sigma_est']:.12g}"]
    if budget is not None:
        results.update({"amplitude": budget.amplitude, "n_half": budget.n_half})
    lines.append(f"  (1-A)/delta at ksigma=1 = {coeff:.6g}")
    if budget is not None:
        lines.append(f"  amplitude after {budget.n} collisions = {budget.amplitude:.12g}")
        lines.append(f"  collisions to half amplitude = {budget.n_half:.6g}")
    _render(args, params, results, sorted(results), lines=lines)
    return 0


def _add_common(sub: argparse.ArgumentParser, state: bool) -> None:
    """The mass flags, --ksigma and the output flags; with state, also the
    flags of the packets and the oracle grid, which a sweep does not read:
    its packet has sigma = 1 and its momentum is --ksigma."""
    sub.add_argument("--m", type=float, help="particle mass")
    sub.add_argument("--M", type=float, help="wall mass")
    sub.add_argument("--delta", type=float, help="mass fraction m/(M+m) in place of masses")
    if state:
        sub.add_argument("--sigma", type=float, help="particle position spread")
        sub.add_argument("--Sigma", help="wall position spread, or 'auto' for spread matching")
        sub.add_argument("--k", type=float, help="particle wavenumber")
        sub.add_argument("--lambda", dest="lambda_", type=float,
                         help="spread ratio Sigma^2/sigma^2")
    sub.add_argument("--ksigma", type=float, help="dimensionless momentum k*sigma")
    if state:
        sub.add_argument("--grid", type=int,
                         help="also run the matching numeric oracle on exactly N x N points")
    _add_output(sub)
    if state:
        sub.add_argument("-v", "--verbose", action="store_true",
                         help="include extra diagnostics in text output")


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub.add_argument("--out", help="write output to this path instead of stdout")
    sub.add_argument("--config", help="key=value config file; flags override it")


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, frozenset[str]]]:
    """The argument parser and the option strings of each subcommand."""
    parser = argparse.ArgumentParser(
        prog="decoh",
        description="decoherence and error bounds for a particle bouncing off a quantum wall",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_err = subs.add_parser("error", help="overlap error against the fixed-wall ideal")
    _add_common(p_err, state=True)

    p_ent = subs.add_parser("entangle", help="reduced-kernel entanglement report")
    _add_common(p_ent, state=True)
    p_ent.add_argument("--n-spectrum", type=int,
                       help=f"eigenvalues to list (default 8, at least 1, "
                            f"at most {MAX_N_SPECTRUM})")

    p_sw = subs.add_parser("sweep", help="parameter sweep to CSV/JSON")
    _add_common(p_sw, state=False)
    p_sw.add_argument("--parameter", required=True,
                      help=f"one of {', '.join(SWEEP_PARAMETERS)}")
    p_sw.add_argument("--start", type=float, required=True)
    p_sw.add_argument("--stop", type=float, required=True)
    p_sw.add_argument("--points", type=int, required=True)
    p_sw.add_argument("--scale", choices=("linear", "log"), default="linear")
    p_sw.add_argument("--mu-kg", dest="mu_kg", type=float, help="mass for T sweeps")
    p_sw.set_defaults(format="csv")

    p_ver = subs.add_parser("verify", help="run every oracle-vs-closed-form check")
    p_ver.add_argument("--grid", type=int,
                       help="run each oracle on exactly N x N points (image_f0 and "
                            "image_vs_fft size their own grids)")
    _add_output(p_ver)

    p_th = subs.add_parser("thermal", help="thermal packet size and collision budget")
    p_th.add_argument("--mu-kg", dest="mu_kg", type=float, help="object mass in kg")
    p_th.add_argument("--T", type=float, help="temperature in kelvin")
    p_th.add_argument("--delta", type=float, help="mass fraction for the error coefficient")
    p_th.add_argument("--collisions", type=int, help="collision count for the budget")
    p_th.add_argument("--F0", type=float, help="per-collision largest eigenvalue")
    p_th.add_argument("--report-length-scale", action="store_true",
                      help="report hbar c/k_B T without needing a mass")
    _add_output(p_th)
    # argparse takes "-1e3" for an option, so "--k -1e3" would lack its value;
    # match every argument that starts like a negative number (as Python 3.13
    # does), none of the options here being one
    for p in (parser, *subs.choices.values()):
        p._negative_number_matcher = re.compile(r"^-\.?\d")
    # argparse keeps no public list of a parser's options
    return parser, {name: frozenset(sub._option_string_actions)
                    for name, sub in subs.choices.items()}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it;
    callers must not modify it."""
    return _parser()[0]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        # looked up per call, so a command replaced on the module is the one run
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
