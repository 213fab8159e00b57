"""Command-line front end.

Subcommands: error, entangle, sweep, verify, thermal.  Exit codes: 0 on
success, 1 when a verification check fails, 2 for usage or domain errors.
Output is human-readable text by default; --format csv or json switches to
machine-readable forms with 12 significant digits.  A sweep runs on
min(8, CPU count) threads.  Commands import their oracle modules, and
numpy, when they run: error, entangle and thermal without --grid load neither.

Every command reads its inputs one way and writes its output one way.  Each
key=value line of a --config file becomes a --key=value option spliced into
argv right after the subcommand, so the one argument parser checks it like
any flag, against the flag's DOMAINS entry, and a flag given on the command
line wins; a rule that joins flags is the command's.  Every command hands
its params, results, CSV header and text lines to _render.

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

from . import __version__
from . import entanglement as ent
from . import error_bounds as eb
from . import thermal as th
from .kinematics import (
    CollisionParams,
    _check_spread,
    collision_params,
    collision_params_from_delta,
    ideal_reflected_state,
    initial_state,
    post_collision_state,
)

# each sweep parameter's row columns; its two ends must lie in its DOMAINS entry
_SWEEPS = {
    "lambda": ["lambda", "k_sigma", "A", "one_minus_A", "F0", "measure"],
    "k_sigma": ["k_sigma", "lambda_max", "A_max", "one_minus_A",
                "asymptotic_small", "asymptotic_large", "regime"],
    "delta": ["delta", "lambda_max", "A_max", "one_minus_A"],
    "w": ["w", "u", "F0", "measure"],
    "T": ["T", "sigma_mu", "thermal_length", "k_sigma_est"],
}
SWEEP_PARAMETERS = tuple(_SWEEPS)
# most eigenvalues entangle lists: the spectrum is built as one array
MAX_N_SPECTRUM = 1_000_000
# most rows a sweep takes: every row is held until the table is written
MAX_POINTS = 1_000_000

_POSITIVE = ("be positive and finite", lambda v: 0.0 < v < math.inf)
# per quantity a flag or a sweep end takes: what its value must do, and the
# test of it; each domain is an interval, so a sweep's ends bound every row
DOMAINS = {
    "m": _POSITIVE,
    "M": _POSITIVE,
    "delta": ("lie in (0, 1)", lambda v: 0.0 < v < 1.0),
    "sigma": _POSITIVE,
    "Sigma": ("be positive and finite, or auto", lambda v: v == "auto" or 0.0 < v < math.inf),
    "lambda": ("be a normal positive float",
               lambda v: sys.float_info.min <= v <= sys.float_info.max),
    "k_sigma": ("be non-negative with a finite square",
                lambda v: v >= 0.0 and math.isfinite(v * v)),
    "signed k_sigma": ("have a finite square", lambda v: math.isfinite(v * v)),
    "w": ("be non-negative and finite", lambda v: 0.0 <= v < math.inf),
    "T": _POSITIVE,
    "mu_kg": _POSITIVE,
    "grid": ("be positive", lambda n: n > 0),
    "SVD grid": ("be at least 2", lambda n: n >= 2),
    "n_spectrum": (f"be at least 1 and at most {MAX_N_SPECTRUM}",
                   lambda n: 1 <= n <= MAX_N_SPECTRUM),
    "points": (f"be at least 2 and at most {MAX_POINTS}", lambda n: 2 <= n <= MAX_POINTS),
    "collisions": (f"be non-negative and at most {sys.float_info.max:g}",
                   lambda n: 0 <= n <= sys.float_info.max),
    "F0": ("lie in (0, 1]", lambda v: 0.0 < v <= 1.0),
}
# an argument that starts like a negative number, such as -1e3 or -.5, is a
# value to argparse (as in Python 3.13), none of the options here being one
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def _typed(quantity: str, kind=float):
    """An argparse type= that holds a kind to DOMAINS[quantity], so argparse
    names the flag, on the command line and on a --config line alike."""
    phrase, inside = DOMAINS[quantity]

    def parse(text: str):
        value = kind(text)
        if not inside(value):
            raise argparse.ArgumentTypeError(f"must {phrase}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid float value: 'x'"
    return parse


def _float_or_auto(text: str):
    return "auto" if text.strip().lower() == "auto" else float(text)


_float_or_auto.__name__ = "float or 'auto'"  # "invalid float or 'auto' value: 'abc'"


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
    included, and the last one wins; the argument after it is its path,
    unless that parser reads it as an option.
    """
    sub = _parser()[1].get(argv[0]) if argv else None
    if sub is None:
        return argv
    options = sub._option_string_actions
    path, rest = None, iter(argv[1:])
    for arg in rest:
        name, sep, value = arg.partition("=")
        # --config, or an abbreviation of it that names no other option
        if "--config".startswith(name) and sum(o.startswith(name) for o in options) == 1:
            path = value if sep else next(rest, None)
            # an argument the subcommand's parser reads as an option, or "--",
            # is no path: argparse then finds --config without its argument
            if not sep and path is not None and (
                    path == "--" or sub._parse_optional(path) is not None):
                return argv  # for the parser to report
    return argv if path is None else argv[:1] + _config_options(path, options) + argv[1:]


def _build_params(args) -> CollisionParams:
    if args.delta is not None:
        if args.m is not None or args.M is not None:
            raise ValueError("give either --delta or --m/--M, not both")
        return collision_params_from_delta(args.delta)
    if args.m is None or args.M is None:
        raise ValueError("masses are required: --m and --M (or --delta)")
    if not math.isfinite(args.m + args.M):
        raise ValueError(f"--m and --M must have a finite sum, got {args.m:g} + {args.M:g}")
    return collision_params(args.m, args.M)


def _mass_flags(args) -> str:
    """The flags that _build_params read the mass fraction from."""
    return "--delta" if args.delta is not None else "--m and --M"


def _named(flags: str, fn, *args):
    """fn(*args), its ValueError named by flags: the library words a float
    outside the normal range (decoh.thermal), a spread out of range
    (decoh.kinematics), a mass fraction too small for the optimum's
    bracket (decoh.error_bounds) or a sample over the oracles' byte cap
    (decoh.oracles) in its own terms, not by a flag."""
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

    --Sigma auto applies spread matching; Sigma and lambda are None when
    their flag is not given.  --ksigma beats --k; k is signed, and k sigma
    from --k is |k| sigma, which must have a finite square.
    """
    sigma = args.sigma
    Sigma = ent.optimal_spreads(sigma, p) if args.Sigma == "auto" else args.Sigma
    if args.ksigma is not None:
        return Sigma, sigma, args.lambda_, args.ksigma / sigma, args.ksigma
    k_sigma = abs(args.k) * sigma
    if not math.isfinite(k_sigma * k_sigma):
        raise ValueError(f"k sigma must have a finite square, got {k_sigma:g}")
    return Sigma, sigma, args.lambda_, args.k, k_sigma


def cmd_error(args) -> int:
    p = _build_params(args)
    Sigma, sigma, lam, _, k_sigma = _resolve_state(args, p)
    if lam is None and Sigma is not None:
        lam = _named("(--Sigma/--sigma)^2", th._normal, "lambda",
                     (Sigma / sigma) * (Sigma / sigma))
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
        from . import oracles

        wall = ("--sigma and --lambda" if args.lambda_ is not None
                else "--Sigma" if Sigma is not None else "--sigma")
        s0 = _initial_state(wall, sigma * math.sqrt(lam), sigma, k_sigma / sigma)
        sf = post_collision_state(s0, p)
        quad = _named("--grid", oracles.quadrature_overlap, ideal_reflected_state(s0), sf,
                      oracles.grid_for_state(sf, n=args.grid))
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
    wall = "--Sigma" if Sigma is not None else "--sigma and --lambda"
    if Sigma is None and lam is not None:
        Sigma = sigma * math.sqrt(lam)
    if Sigma is None:
        raise ValueError("wall spread is required: --Sigma (or --lambda)")
    sf = post_collision_state(_initial_state(wall, Sigma, sigma, k), p)
    kp = ent.kernel_params(sf)
    F0 = ent.largest_eigenvalue(kp.w)
    spectrum = ent.spectrum_values(kp.w, args.n_spectrum)
    # the eigenvalues past the first n sum to e^{-n u}, 0 on a matched state
    tail = math.exp(-args.n_spectrum * kp.u)
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
        from . import oracles

        sv = _named("--grid", oracles.schmidt_decompose, sf, args.grid).singular_values
        results["F0_svd"] = float(sv[0] ** 2)
        results["F0_svd_deviation"] = abs(float(sv[0] ** 2) - F0)
        # the sampled norm sum s_i^2 is 1 only where the grid resolves the state
        results["svd_norm"] = float((sv**2).sum())
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
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    if args.scale == "log" and (args.start <= 0.0 or args.stop <= 0.0):
        raise ValueError("log scale requires positive start and stop")
    p = _build_params(args) if args.parameter in ("lambda", "k_sigma") else None
    if args.parameter == "T" and args.mu_kg is None:
        raise ValueError("a T sweep needs --mu-kg")
    rule, inside = DOMAINS[args.parameter]
    ends = (("--start", args.start), ("--stop", args.stop))
    for flag, value in ends:
        if not inside(value):
            raise ValueError(f"{flag} must {rule} for a {args.parameter} sweep, got {value}")
    # each rule below holds on an interval of the parameter, so the two ends
    # bound every row
    for flag, value in ends:
        if args.parameter == "T":
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
    header = _SWEEPS[args.parameter]
    _render(args, params, {"columns": header, "rows": rows}, header, rows)
    return 0


def cmd_verify(args) -> int:
    from . import oracles
    from .checks import run_verification

    if args.grid is not None:
        # run_verification refuses this too, in the library's words
        _named("--grid", oracles._check_sample_bytes, args.grid, args.grid)
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

    # optimized per-collision error coefficient at the thermal momentum
    delta_ref = args.delta if args.delta is not None else 1e-6
    opt = _named("--delta", eb.optimal_lambda, 1.0, collision_params_from_delta(delta_ref))
    coeff = opt.one_minus_A / delta_ref

    budget = None
    if args.collisions is not None:
        f0 = args.F0 if args.F0 is not None else 1.0
        budget = th.amplitude_budget(f0, args.collisions)

    params = {"mu_kg": args.mu_kg, "T": args.T, "delta": args.delta,
              "collisions": args.collisions, "F0": args.F0}
    results: dict = {"thermal_length": _named("--T", th.thermal_length, args.T),
                     "error_per_collision_over_delta": coeff}
    lines = [f"thermal design (T={args.T:.6g} K)",
             f"  hbar c / k_B T        = {results['thermal_length']:.12g} m"]
    if args.mu_kg is not None:
        results["compton_wavelength"] = _named("--mu-kg", th.compton_wavelength, args.mu_kg)
        results["sigma_mu"] = _thermal_spread("--T", args.mu_kg, args.T)
        results["k_sigma_est"] = th.thermal_k_sigma(args.mu_kg, args.T)
        lines += [f"  sigma_mu              = {results['sigma_mu']:.12g} m",
                  f"  compton wavelength    = {results['compton_wavelength']:.12g} m",
                  f"  k sigma estimate      = {results['k_sigma_est']:.12g}"]
    if budget is not None:
        results.update({"amplitude": budget.amplitude, "n_half": budget.n_half})
    lines.append(f"  (1-A)/delta at ksigma=1 = {coeff:.6g}")
    if budget is not None:
        lines.append(f"  amplitude after {args.collisions} collisions = {budget.amplitude:.12g}")
        lines.append(f"  collisions to half amplitude = {budget.n_half:.6g}")
    _render(args, params, results, sorted(results), lines=lines)
    return 0


def _add_common(sub: argparse.ArgumentParser, command: str) -> None:
    """The mass flags, --ksigma and the output flags; on error and entangle,
    also the flags of the packets and the oracle grid, which a sweep does not
    read: its packet has sigma = 1 and its momentum is --ksigma.  entangle's
    k sigma is signed, and its SVD needs a grid of at least 2 x 2."""
    state, entangle = command != "sweep", command == "entangle"
    sub.add_argument("--m", type=_typed("m"), help="particle mass")
    sub.add_argument("--M", type=_typed("M"), help="wall mass")
    sub.add_argument("--delta", type=_typed("delta"),
                     help="mass fraction m/(M+m) in place of masses")
    if state:
        sub.add_argument("--sigma", type=_typed("sigma"), default=1.0,
                         help="particle position spread")
        sub.add_argument("--Sigma", type=_typed("Sigma", _float_or_auto),
                         help="wall position spread, or 'auto' for spread matching")
        sub.add_argument("--k", type=float, default=0.0, help="particle wavenumber")
        sub.add_argument("--lambda", dest="lambda_", type=_typed("lambda"),
                         help="spread ratio Sigma^2/sigma^2")
    sub.add_argument("--ksigma", type=_typed("signed k_sigma" if entangle else "k_sigma"),
                     help="dimensionless momentum k*sigma")
    if state:
        sub.add_argument("--grid", type=_typed("SVD grid" if entangle else "grid", int),
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
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and the parser of each subcommand."""
    parser = argparse.ArgumentParser(
        prog="decoh",
        description="decoherence and error bounds for a particle bouncing off a quantum wall",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_err = subs.add_parser("error", help="overlap error against the fixed-wall ideal")
    _add_common(p_err, "error")

    p_ent = subs.add_parser("entangle", help="reduced-kernel entanglement report")
    _add_common(p_ent, "entangle")
    p_ent.add_argument("--n-spectrum", type=_typed("n_spectrum", int), default=8,
                       help=f"eigenvalues to list (default 8, at least 1, "
                            f"at most {MAX_N_SPECTRUM})")

    p_sw = subs.add_parser("sweep", help="parameter sweep to CSV/JSON")
    _add_common(p_sw, "sweep")
    p_sw.add_argument("--parameter", required=True, choices=SWEEP_PARAMETERS)
    p_sw.add_argument("--start", type=float, required=True)
    p_sw.add_argument("--stop", type=float, required=True)
    p_sw.add_argument("--points", type=_typed("points", int), required=True)
    p_sw.add_argument("--scale", choices=("linear", "log"), default="linear")
    p_sw.add_argument("--mu-kg", dest="mu_kg", type=_typed("mu_kg"), help="mass for T sweeps")
    p_sw.set_defaults(format="csv")

    p_ver = subs.add_parser("verify", help="run every oracle-vs-closed-form check")
    p_ver.add_argument("--grid", type=int,
                       help="run each oracle on exactly N x N points (image_f0 and "
                            "image_vs_fft size their own grids)")
    _add_output(p_ver)

    p_th = subs.add_parser("thermal", help="thermal packet size and collision budget")
    p_th.add_argument("--mu-kg", dest="mu_kg", type=_typed("mu_kg"), help="object mass in kg")
    p_th.add_argument("--T", type=_typed("T"), help="temperature in kelvin")
    p_th.add_argument("--delta", type=_typed("delta"),
                      help="mass fraction for the error coefficient")
    p_th.add_argument("--collisions", type=_typed("collisions", int),
                      help="collision count for the budget")
    p_th.add_argument("--F0", type=_typed("F0"), help="per-collision largest eigenvalue")
    p_th.add_argument("--report-length-scale", action="store_true",
                      help="report hbar c/k_B T without needing a mass")
    _add_output(p_th)
    # argparse takes "-1e3" for an option, so "--k -1e3" would lack its value
    for p in (parser, *subs.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser, subs.choices


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
