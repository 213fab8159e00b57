"""Command-line front end.

Subcommands: error, entangle, sweep, verify, thermal.  Exit codes: 0 on
success, 1 when a verification check fails, 2 for usage or domain errors.
Output is human-readable text by default; --format csv or json switches to
machine-readable forms with 12 significant digits.  A sweep runs on
min(8, CPU count) threads.  Commands import their oracle modules, and
numpy, when they run: error, entangle and thermal without --grid load neither.
No command loads dataclasses: every frozen type is a decoh._Record.

Every command reads its inputs one way and writes its output one way.  Each
key=value line of a --config file becomes a --key=value option spliced into
argv right after the subcommand, so the one argument parser checks it like any
flag, against the flag's DOMAINS entry, and the same flag given on the command
line wins.  Every flag a command accepts is read: argparse refuses two flags
that set one input (--Sigma and --lambda, --k and --ksigma, --mu-kg and
--report-length-scale), a sweep refuses each flag its parameter does not read,
error a --sigma beside --ksigma that neither lambda nor a --grid packet rests
on, and thermal --F0 without --collisions; any other rule that joins flags is
the command's.  Each default is resolved once, and params hold the values the
numbers used.  A command only computes its params and results; _render writes
them through the command's text lines in _TEXT and CSV columns in _CSV, each
printed when every field it names is present, and a -v line only with -v.

The argument parser is built once per process and reused by every call to
main, so callers that run many commands in one process (tests, notebooks,
a benchmark loop) pay for it once.  The arguments after a known subcommand
go to that subcommand's parser alone, and any it leaves over are reported in
the top-level parser's words, as argparse reports them.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _json_string

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

# each sweep parameter's row columns, and the flags its rows read (cmd_sweep
# refuses the others); its two ends must lie in its DOMAINS entry
_SWEEPS = {
    "lambda": (["lambda", "k_sigma", "A", "one_minus_A", "F0", "measure"],
               ("--m", "--M", "--delta", "--ksigma")),
    "k_sigma": (["k_sigma", "lambda_max", "A_max", "one_minus_A",
                 "asymptotic_small", "asymptotic_large", "regime"], ("--m", "--M", "--delta")),
    "delta": (["delta", "lambda_max", "A_max", "one_minus_A"], ("--ksigma",)),
    "w": (["w", "u", "F0", "measure"], ()),
    "T": (["T", "sigma_mu", "thermal_length", "k_sigma_est"], ("--mu-kg",)),
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


def _json_value(v, pad: str) -> str:
    """v as json.dumps(v, indent=2, sort_keys=True) writes it at indent pad,
    each float rounded to 12 significant digits and a non-finite one null."""
    if isinstance(v, float):
        return repr(float(f"{v:.12g}")) if math.isfinite(v) else "null"
    if isinstance(v, str):
        return _json_string(v)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    inner = pad + "  "
    if isinstance(v, dict):
        items = [f"{inner}{_json_string(k)}: {_json_value(v[k], inner)}" for k in sorted(v)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}" if items else "{}"
    if isinstance(v, (list, tuple)):
        items = [inner + _json_value(x, inner) for x in v]
        return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def format_json(params: dict, results: dict, checks: list[dict]) -> str:
    return _json_value({"params": params, "results": results, "checks": checks}, "") + "\n"


def format_csv(params: dict, header: list[str], rows: list[list]) -> str:
    def cell(v):
        return f"{v:.12g}" if isinstance(v, float) else str(v)
    lines = [f"# version={__version__}", *(f"# {key}={cell(params[key])}" for key in sorted(params)
                                           if params[key] is not None), ",".join(header)]
    lines += [",".join(map(cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


# Each command's text lines: format strings over its params, its results and
# the text-only values (_TEXT_ONLY, and those the command hands to _render).
# verify prints them for each check, then for its summary.
_TEXT = {
    "error": """\
overlap error (delta={delta:.6g}, k sigma={k_sigma:.6g})
  lambda      = {lambda:.12g}
  A           = {A:.12g}
  1 - A       = {one_minus_A:.12g}
  lambda_max  = {lambda_max:.12g}
  A_max       = {A_max:.12g}
  regime      = {regime}
  A quadrature = {A_quadrature:.12g} (deviation {A_quadrature_deviation:.3e})
-v  optimizer: {iterations} golden-section steps, 1 - A_max = {one_minus_A_max:.12g}""",
    "entangle": """\
entanglement (delta={delta:.6g}, Sigma={Sigma:.6g}, sigma={sigma:.6g}, k={k:.6g})
  D        = {D:.12g}
  rho      = {rho:.12g}
  w        = {w_text}
  u        = {u:.12g}
  F0       = {F0:.12g}
  1 - F0   = {measure:.12g}
  spectrum = {spectrum_text}
  F0 (SVD oracle) = {F0_svd:.12g} (deviation {F0_svd_deviation:.3e})
-v  spectrum tail bound = {spectrum_tail_bound:.3e}""",
    "verify": """\
{status}  {name:<24} deviation={deviation:.3e}  tol={tolerance:.1e}  ({detail})
{n_passed}/{n_checks} checks passed""",
    "thermal": """\
thermal design (T={T:.6g} K)
  hbar c / k_B T        = {thermal_length:.12g} m
  sigma_mu              = {sigma_mu:.12g} m
  compton wavelength    = {compton_wavelength:.12g} m
  k sigma estimate      = {k_sigma_est:.12g}
  (1-A)/delta at ksigma=1 = {error_per_collision_over_delta:.6g}
  amplitude after {collisions} collisions = {amplitude:.12g}
  collisions to half amplitude = {n_half:.6g}""",
}
# Each command's CSV columns, in order: one row per check, or else one row
# of the params and results.  A sweep's columns are its _SWEEPS entry.
_CSV = {
    "error": ("lambda", "k_sigma", "A", "one_minus_A", "lambda_max", "A_max", "regime",
              "A_quadrature", "A_quadrature_deviation"),
    "entangle": ("D", "rho", "w", "u", "F0", "measure", "matched",
                 "F0_svd", "F0_svd_deviation", "svd_norm"),
    "verify": ("name", "tolerance", "deviation", "passed"),
    "thermal": ("amplitude", "compton_wavelength", "error_per_collision_over_delta",
                "k_sigma_est", "n_half", "sigma_mu", "thermal_length"),
}
# values only text prints, each made from the others when a line names it
_TEXT_ONLY = {
    "w_text": lambda v: "inf (matched)" if v["matched"] else f"{v['w']:.12g}",
    "spectrum_text": lambda v: ", ".join(f"{x:.6g}" for x in v["spectrum"]),
    "status": lambda v: "PASS" if v["passed"] else "FAIL",
}
# the fields a text line names, text-only values aside, found once per line
_fields = functools.cache(lambda line: set(re.findall(r"\{(\w+)", line)) - _TEXT_ONLY.keys())


class _Values(dict):
    """A command's values by name, each _TEXT_ONLY value made on lookup."""

    def __missing__(self, key):
        return _TEXT_ONLY[key](self)


def _render(args, params: dict, results: dict, header=None, rows=None, checks=(),
            **text_only) -> None:
    """Write a command's output in args.format to args.out or stdout.

    JSON holds params, results and checks.  Text and CSV print the command's
    _TEXT lines and _CSV columns (a sweep's header and rows; CSV for text if
    the command has no lines), each where every field it names is present,
    and a line that starts with -v only with -v.
    """
    if args.format == "json":
        text = format_json(params, results, checks)
    else:
        values = _Values(params, **results, **text_only)
        if args.format == "text" and args.command in _TEXT:
            text = "".join(line.removeprefix("-v").format_map(record) + "\n"
                           for record in [*map(_Values, checks), values]
                           for line in _TEXT[args.command].split("\n")
                           if (not line.startswith("-v") or args.verbose)
                           and record.keys() >= _fields(line))
        else:
            table = checks or [values]
            header = header or [h for h in _CSV[args.command] if h in table[0]]
            text = format_csv(params, header, rows or [[r[h] for h in header] for r in table])
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


def _build_params(args) -> tuple[CollisionParams, str]:
    """(params, flags): the collision params and the flags they were read from."""
    if args.delta is not None:
        if args.m is not None or args.M is not None:
            raise ValueError("give either --delta or --m/--M, not both")
        return collision_params_from_delta(args.delta), "--delta"
    if args.m is None or args.M is None:
        raise ValueError("masses are required: --m and --M (or --delta)")
    if not math.isfinite(args.m + args.M):
        raise ValueError(f"--m and --M must have a finite sum, got {args.m:g} + {args.M:g}")
    return collision_params(args.m, args.M), "--m and --M"


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
    """(sigma, Sigma, wall, k, k sigma) from the flags: sigma is --sigma, 1
    without it; the wall spread from --Sigma (auto for spread matching) or
    sigma sqrt(--lambda), None with neither, and wall, the flags it came from
    (--sigma with neither).  k is --ksigma / sigma or --k, signed, and k sigma
    from --k is |k| sigma, which must have a finite square."""
    sigma = 1.0 if args.sigma is None else args.sigma
    if args.lambda_ is not None:
        Sigma, wall = sigma * math.sqrt(args.lambda_), "--sigma and --lambda"
    else:
        Sigma = ent.optimal_spreads(sigma, p) if args.Sigma == "auto" else args.Sigma
        wall = "--sigma" if Sigma is None else "--Sigma"
    if args.ksigma is not None:
        return sigma, Sigma, wall, args.ksigma / sigma, args.ksigma
    k_sigma = abs(args.k) * sigma
    if not math.isfinite(k_sigma * k_sigma):
        raise ValueError(f"k sigma must have a finite square, got {k_sigma:g}")
    return sigma, Sigma, wall, args.k, k_sigma


def cmd_error(args) -> int:
    p, mass = _build_params(args)
    # A rests on lambda and k sigma alone: with --ksigma, no numeric --Sigma
    # and no grid's packet, sigma sets neither
    if (args.sigma is not None and args.ksigma is not None and args.grid is None
            and args.Sigma in (None, "auto")):
        raise ValueError("--sigma is read only with --k, a numeric --Sigma or --grid")
    sigma, Sigma, wall, k, k_sigma = _resolve_state(args, p)
    lam = args.lambda_
    if lam is None and Sigma is not None:
        lam = _named("(--Sigma/--sigma)^2", th._normal, "lambda",
                     (Sigma / sigma) * (Sigma / sigma))
    opt = _named(mass, eb.optimal_lambda, k_sigma, p)
    if lam is None:
        lam = opt.lambda_max
    A, one_minus_A = eb.overlap_error(lam, k_sigma, p)
    params = {"delta": p.delta, "gamma": p.gamma, "lambda": lam, "k_sigma": k_sigma}
    results = {"A": A, "one_minus_A": one_minus_A,
               "lambda": lam, "lambda_max": opt.lambda_max,
               "A_max": opt.A_max, "one_minus_A_max": opt.one_minus_A,
               "regime": opt.regime}
    if args.grid:
        # cross-check the closed form on a quadrature grid of the given size
        from . import oracles

        # a given --Sigma (auto too) is the wall spread itself: sigma sqrt(lambda)
        # of the lambda it set can differ from it by an ulp
        wall_spread = Sigma if Sigma is not None else sigma * math.sqrt(lam)
        s0 = _initial_state(wall, wall_spread, sigma, k)
        sf = post_collision_state(s0, p)
        quad = _named("--grid", oracles.quadrature_overlap, ideal_reflected_state(s0), sf,
                      oracles.grid_for_state(sf, n=args.grid))
        results["A_quadrature"] = abs(quad.value)
        results["A_quadrature_deviation"] = abs(abs(quad.value) - A)
        # two normalized states overlap by at most 1 (Cauchy-Schwarz)
        if results["A_quadrature"] > 1.0 + 1e-6:
            print(f"warning: the quadrature oracle's overlap is {results['A_quadrature']:.6g}, "
                  f"above 1: the {args.grid} x {args.grid} grid does not resolve the states",
                  file=sys.stderr)
    _render(args, params, results, iterations=opt.iterations)
    return 0


def cmd_entangle(args) -> int:
    p, _ = _build_params(args)
    if args.n_spectrum is not None and args.format == "csv":
        raise ValueError("--n-spectrum is not read with --format csv, which prints no spectrum")
    n_spectrum = 8 if args.n_spectrum is None else args.n_spectrum
    sigma, Sigma, wall, k, _ = _resolve_state(args, p)
    if Sigma is None:
        raise ValueError("wall spread is required: --Sigma (or --lambda)")
    sf = post_collision_state(_initial_state(wall, Sigma, sigma, k), p)
    kp = ent.kernel_params(sf)
    F0 = ent.largest_eigenvalue(kp.w)
    params = {"delta": p.delta, "gamma": p.gamma, "Sigma": Sigma, "sigma": sigma, "k": k}
    results = {"D": kp.D, "rho": kp.rho, "w": kp.w, "u": kp.u,
               "F0": F0, "measure": kp.z * kp.z, "matched": kp.matched,
               "spectrum": ent.spectrum_values(kp.w, n_spectrum),
               # the eigenvalues past the first n sum to e^{-n u}, 0 on a matched state
               "spectrum_tail_bound": math.exp(-n_spectrum * kp.u)}
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
    _render(args, params, results)
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

    header, reads = _SWEEPS[args.parameter]
    for flag in ("--m", "--M", "--delta", "--ksigma", "--mu-kg"):
        if flag not in reads and getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ValueError(f"a {args.parameter} sweep does not read {flag}")
    if args.scale == "log" and (args.start <= 0.0 or args.stop <= 0.0):
        raise ValueError("log scale requires positive start and stop")
    p, mass = _build_params(args) if "--delta" in reads else (None, None)
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
            _named(mass, eb.optimal_lambda, value, p)
    # built after the domain checks: numpy warns on an infinite --start or --stop
    space = np.geomspace if args.scale == "log" else np.linspace
    values = space(args.start, args.stop, args.points)

    with ThreadPoolExecutor(max_workers=min(8, os.cpu_count() or 1)) as pool:
        rows = list(pool.map(lambda v: _sweep_row(args.parameter, float(v), args, p), values))

    # the params key, and the value the rows use, of each flag they may read
    used = {"--delta": ("delta", p and p.delta), "--ksigma": ("k_sigma", args.ksigma or 0.0),
            "--mu-kg": ("mu_kg", args.mu_kg)}
    params = {"parameter": args.parameter, "start": args.start, "stop": args.stop,
              "points": args.points, "scale": args.scale,
              **dict(used[flag] for flag in reads if flag in used)}
    _render(args, params, {"columns": header, "rows": rows}, header, rows)
    return 0


def cmd_verify(args) -> int:
    from .checks import run_verification

    checks = [vars(c) for c in _named("--grid", run_verification, args.grid)]
    n_passed = sum(c["passed"] for c in checks)
    summary = {"n_checks": len(checks), "n_passed": n_passed,
               "all_passed": n_passed == len(checks)}
    _render(args, {"grid": args.grid}, summary, checks=checks)
    return 0 if summary["all_passed"] else 1


def cmd_thermal(args) -> int:
    if args.T is None:
        raise ValueError("temperature is required: --T")
    if args.mu_kg is None and not args.report_length_scale:
        raise ValueError("mass is required: --mu-kg (or use --report-length-scale)")
    if args.F0 is not None and args.collisions is None:
        raise ValueError("--F0 is read only with --collisions")
    # a budget without --F0 loses nothing per collision
    F0 = 1.0 if args.F0 is None and args.collisions is not None else args.F0

    # optimized per-collision error coefficient at the thermal momentum
    opt = _named("--delta", eb.optimal_lambda, 1.0, collision_params_from_delta(args.delta))
    results: dict = {"thermal_length": _named("--T", th.thermal_length, args.T),
                     "error_per_collision_over_delta": opt.one_minus_A / args.delta}
    if args.mu_kg is not None:
        results["compton_wavelength"] = _named("--mu-kg", th.compton_wavelength, args.mu_kg)
        results["sigma_mu"] = _thermal_spread("--T", args.mu_kg, args.T)
        results["k_sigma_est"] = th.thermal_k_sigma(args.mu_kg, args.T)
    if args.collisions is not None:
        budget = th.amplitude_budget(F0, args.collisions)
        results.update({"amplitude": budget.amplitude, "n_half": budget.n_half})
    params = {"mu_kg": args.mu_kg, "T": args.T, "delta": args.delta,
              "collisions": args.collisions, "F0": F0}
    _render(args, params, results)
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
        sub.add_argument("--sigma", type=_typed("sigma"),
                         help="particle position spread (default 1)")
        # one wall spread and one momentum; each group's two flags are apart in
        # usage, which so prints no [--Sigma | --lambda] or [--k | --ksigma]
        wall, momentum = sub.add_mutually_exclusive_group(), sub.add_mutually_exclusive_group()
        wall.add_argument("--Sigma", type=_typed("Sigma", _float_or_auto),
                          help="wall position spread, or 'auto' for spread matching")
        momentum.add_argument("--k", type=float, default=0.0, help="particle wavenumber")
        wall.add_argument("--lambda", dest="lambda_", type=_typed("lambda"),
                          help="spread ratio Sigma^2/sigma^2")
    (momentum if state else sub).add_argument(
        "--ksigma", type=_typed("signed k_sigma" if entangle else "k_sigma"),
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
    p_ent.add_argument("--n-spectrum", type=_typed("n_spectrum", int),
                       help=f"eigenvalues to list (default 8, at least 1, "
                            f"at most {MAX_N_SPECTRUM}); not with --format csv")

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
    mass = p_th.add_mutually_exclusive_group()  # a mass, or the length scale alone
    mass.add_argument("--mu-kg", dest="mu_kg", type=_typed("mu_kg"), help="object mass in kg")
    p_th.add_argument("--T", type=_typed("T"), help="temperature in kelvin")
    p_th.add_argument("--delta", type=_typed("delta"), default=1e-6,
                      help="mass fraction for the error coefficient (default 1e-6)")
    p_th.add_argument("--collisions", type=_typed("collisions", int),
                      help="collision count for the budget")
    p_th.add_argument("--F0", type=_typed("F0"), help="per-collision largest eigenvalue")
    mass.add_argument("--report-length-scale", action="store_true",
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
        parser = build_parser()
        sub = _parser()[1].get(argv[0]) if argv else None
        # with no known command, or with --=x (ambiguous to the top-level
        # parser: --help or --version?), the top-level parser reads argv; it
        # would only hand any other list on to the subcommand's parser
        if sub is None or any(a.startswith("--=") for a in argv):
            args = parser.parse_args(_with_config(argv))
        else:
            args, extra = sub.parse_known_args(_with_config(argv)[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.command = argv[0]
        # looked up per call, so a command replaced on the module is the one run
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
