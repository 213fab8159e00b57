"""Seeded argv generators for the three benchmark workloads.

Each generator yields :class:`Call` objects: the argv handed to
``decoh.cli.main`` plus the numeric inputs the reference checker needs.
Floats are written with ``repr`` so the CLI parses back exactly the value
the checker uses.  The same seed always yields the same sequence.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterator

DEFAULT_SEED = 1
# never used while the benchmark was tuned; rerun a claim on it to recheck
HELDOUT_SEED = 20261017

WORKLOADS = ("sweep", "query", "verify")

SWEEP_POINTS = 2000
SWEEP_CYCLE = ("k_sigma", "lambda", "delta", "w", "T")

# the README's documented momentum range, and the mass-fraction range
KSIGMA_RANGE = (1e-3, 1e3)
DELTA_RANGE = (1e-4, 0.5)
# entangle --grid keeps k sigma <= 1 and Sigma^2/sigma^2 <= 10: the SVD
# grid then stays at most 343 x 343, where larger k sigma grows it past
# 3000 x 3000, too much for a small shared machine
ENTANGLE_GRID_KSIGMA_MAX = 1.0
ENTANGLE_GRID_LAMBDA_MAX = 10.0

# No usage data exists for decoh, so the query mix weights no option above
# another: error, entangle and thermal share the well-formed calls equally and
# every optional flag or mode is drawn with equal shares.  Only two shares are
# set, by the workload's definition: malformed calls and calls with --grid.
MALFORMED_FRAC = 0.05
GRID_FRAC = 0.25
QUERY_KINDS = ("error", "entangle", "thermal")
# error and entangle calls take --grid; this share of them is GRID_FRAC of all calls
GRID_SHARE = GRID_FRAC / ((1.0 - MALFORMED_FRAC) * 2 / len(QUERY_KINDS))


@dataclass(frozen=True)
class Call:
    """One CLI invocation: argv, what kind of result it must produce, and
    the inputs the reference needs (kind "malformed" expects exit 2)."""

    argv: tuple[str, ...]
    kind: str
    inputs: dict = field(default_factory=dict)


def _f(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _log_range(rng: random.Random, lo: float, hi: float, min_decades: float = 0.5):
    """Seeded (start, stop) inside [lo, hi], at least min_decades apart."""
    while True:
        a, b = sorted(_log_uniform(rng, lo, hi) for _ in range(2))
        if math.log10(b / a) >= min_decades:
            return a, b


def _masses(rng: random.Random, inputs: dict) -> list[str]:
    """Mass flags: either --delta or an equivalent --m/--M pair."""
    delta = _log_uniform(rng, *DELTA_RANGE)
    if rng.random() < 0.5:
        inputs["delta"] = delta
        return ["--delta", _f(delta)]
    m = _log_uniform(rng, 1e-2, 1e2)
    M = m * (1.0 - delta) / delta
    inputs["m"], inputs["M"] = m, M
    return ["--m", _f(m), "--M", _f(M)]


# ---------------------------------------------------------------- sweep


def sweep_call(rng: random.Random, parameter: str) -> Call:
    argv = ["sweep", "--parameter", parameter, "--points", str(SWEEP_POINTS),
            "--scale", "log", "--format", "csv"]
    inputs: dict = {"parameter": parameter, "points": SWEEP_POINTS}
    if parameter == "k_sigma":
        start, stop = _log_range(rng, *KSIGMA_RANGE)
        argv += _masses(rng, inputs)
    elif parameter == "lambda":
        start, stop = _log_range(rng, 1e-6, 1e2)
        argv += _masses(rng, inputs)
        inputs["ksigma"] = _log_uniform(rng, *KSIGMA_RANGE)
        argv += ["--ksigma", _f(inputs["ksigma"])]
    elif parameter == "delta":
        start, stop = _log_range(rng, *DELTA_RANGE)
        inputs["ksigma"] = _log_uniform(rng, *KSIGMA_RANGE)
        argv += ["--ksigma", _f(inputs["ksigma"])]
    elif parameter == "w":
        start, stop = _log_range(rng, 1e-3, 1e3)
    elif parameter == "T":
        start, stop = _log_range(rng, 1e-3, 1e4)
        inputs["mu_kg"] = _log_uniform(rng, 1e-31, 1e-20)
        argv += ["--mu-kg", _f(inputs["mu_kg"])]
    else:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    inputs["start"], inputs["stop"] = start, stop
    argv += ["--start", _f(start), "--stop", _f(stop)]
    return Call(tuple(argv), "sweep", inputs)


def sweep_calls(seed: int) -> Iterator[Call]:
    rng = random.Random(f"sweep:{seed}")
    for parameter in itertools.cycle(SWEEP_CYCLE):
        yield sweep_call(rng, parameter)


# ---------------------------------------------------------------- query


def error_call(rng: random.Random) -> Call:
    inputs: dict = {}
    argv = ["error", "--format", "json"] + _masses(rng, inputs)
    kappa = _log_uniform(rng, *KSIGMA_RANGE)
    sigma = 1.0
    if rng.random() < 0.5:
        inputs["ksigma"] = kappa
        argv += ["--ksigma", _f(kappa)]
    else:
        sigma = _log_uniform(rng, 0.1, 10.0)
        inputs["sigma"], inputs["k"] = sigma, kappa / sigma
        argv += ["--sigma", _f(sigma), "--k", _f(kappa / sigma)]
    mode = rng.choice(("lambda", "Sigma auto", "Sigma", "optimum"))
    if mode == "lambda":
        inputs["lambda"] = _log_uniform(rng, 1e-8, 1e2)
        argv += ["--lambda", _f(inputs["lambda"])]
    elif mode == "Sigma auto":
        inputs["Sigma"] = "auto"
        argv += ["--Sigma", "auto"]
    elif mode == "Sigma":
        inputs["Sigma"] = sigma * _log_uniform(rng, 1e-4, 10.0)
        argv += ["--Sigma", _f(inputs["Sigma"])]
        if "sigma" not in inputs:
            inputs["sigma"] = sigma
            argv += ["--sigma", _f(sigma)]
    if rng.random() < GRID_SHARE:
        inputs["grid"] = rng.choice((64, 128, 256, 512))
        argv += ["--grid", str(inputs["grid"])]
    return Call(tuple(argv), "error", inputs)


def entangle_call(rng: random.Random) -> Call:
    inputs: dict = {}
    argv = ["entangle", "--format", "json"] + _masses(rng, inputs)
    with_grid = rng.random() < GRID_SHARE
    k_max = ENTANGLE_GRID_KSIGMA_MAX if with_grid else KSIGMA_RANGE[1]
    lam_hi = ENTANGLE_GRID_LAMBDA_MAX if with_grid else 1e2
    sigma = _log_uniform(rng, 0.1, 10.0)
    inputs["sigma"] = sigma
    argv += ["--sigma", _f(sigma)]
    mode = rng.choice(("Sigma", "Sigma auto", "lambda"))
    if mode == "Sigma":
        inputs["Sigma"] = sigma * _log_uniform(rng, 1e-4, lam_hi) ** 0.5
        argv += ["--Sigma", _f(inputs["Sigma"])]
    elif mode == "Sigma auto":
        inputs["Sigma"] = "auto"
        argv += ["--Sigma", "auto"]
    else:
        inputs["lambda"] = _log_uniform(rng, 1e-4, lam_hi)
        argv += ["--lambda", _f(inputs["lambda"])]
    if rng.random() < 0.5:
        inputs["k"] = _log_uniform(rng, KSIGMA_RANGE[0], k_max) / sigma
        argv += ["--k", _f(inputs["k"])]
    if with_grid:
        inputs["grid"] = rng.choice((64, 128, 256))
        argv += ["--grid", str(inputs["grid"])]
    return Call(tuple(argv), "entangle", inputs)


def thermal_call(rng: random.Random) -> Call:
    inputs: dict = {}
    argv = ["thermal", "--format", "json"]
    inputs["T"] = _log_uniform(rng, 1e-3, 1e4)
    argv += ["--T", _f(inputs["T"])]
    if rng.random() < 0.5:
        argv += ["--report-length-scale"]
    else:
        inputs["mu_kg"] = _log_uniform(rng, 1e-31, 1e-20)
        argv += ["--mu-kg", _f(inputs["mu_kg"])]
    if rng.random() < 0.5:
        inputs["delta"] = _log_uniform(rng, *DELTA_RANGE)
        argv += ["--delta", _f(inputs["delta"])]
    if rng.random() < 0.5:
        inputs["collisions"] = rng.randint(1, 1000)
        inputs["F0"] = rng.uniform(0.5, 1.0)
        argv += ["--collisions", str(inputs["collisions"]), "--F0", _f(inputs["F0"])]
    return Call(tuple(argv), "thermal", inputs)


def malformed_call(rng: random.Random) -> Call:
    """Bad input: every one of these must end in exit 2 with a message."""
    bad = rng.choice((
        ["error", "--m=0", "--M", "1", "--ksigma", "1"],
        ["error", "--m", "1", f"--M={-_log_uniform(rng, 1e-2, 1e2)!r}", "--ksigma", "1"],
        ["entangle", "--delta", "0.01", f"--Sigma={-_log_uniform(rng, 1e-2, 1e2)!r}"],
        ["entangle", "--delta", "0.01", "--Sigma", "1", "--sigma=0"],
        ["error", f"--delta={rng.choice((0.0, 1.0, 1.5, -0.1))!r}", "--ksigma", "1"],
        ["sweep", "--parameter", "w", "--start", "1", "--stop", "2", "--points", "1"],
        ["thermal", "--mu-kg", "1e-27", f"--T={-_log_uniform(rng, 1e-3, 1e3)!r}"],
        ["error", "--delta", "0.01", "--ksigma", "1", "--grid", "1"],
    ))
    return Call(tuple(bad), "malformed", {})


def query_calls(seed: int) -> Iterator[Call]:
    rng = random.Random(f"query:{seed}")
    make = {"error": error_call, "entangle": entangle_call, "thermal": thermal_call}
    while True:
        if rng.random() < MALFORMED_FRAC:
            yield malformed_call(rng)
        else:
            yield make[rng.choice(QUERY_KINDS)](rng)


# ---------------------------------------------------------------- verify


def verify_calls(seed: int) -> Iterator[Call]:
    # the suite's parameters are fixed by design, so the seed is unused
    del seed
    while True:
        yield Call(("verify", "--format", "json"), "verify", {})


def calls(workload: str, seed: int) -> Iterator[Call]:
    if workload == "sweep":
        return sweep_calls(seed)
    if workload == "query":
        return query_calls(seed)
    if workload == "verify":
        return verify_calls(seed)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# Wall seconds of one cycle, its checks included, on the reference machine
# (README.md).  A run makes the whole cycles that fill its --seconds there,
# so a seed gives the same calls on any machine and at any speed.
CYCLE_SECONDS = {"sweep": 8.5, "query": 0.0075, "verify": 4.0}


def cycle_length(workload: str) -> int:
    """Calls per cycle: a run measures whole cycles, so a sweep run always
    holds each sweep parameter equally often."""
    return len(SWEEP_CYCLE) if workload == "sweep" else 1
