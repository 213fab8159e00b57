"""Tests of the benchmark itself: run with `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import decoh.cli  # noqa: E402
from decoh import entanglement as ent  # noqa: E402
from decoh import error_bounds as eb  # noqa: E402
from decoh import thermal as th  # noqa: E402
from decoh.kinematics import (  # noqa: E402
    collision_params_from_delta,
    initial_state,
    post_collision_state,
)

DIGITS_12 = 1e-11


def _first(workload, seed, n):
    return list(itertools.islice(workloads.calls(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _first(workload, 7, 50) == _first(workload, 7, 50)


@pytest.mark.parametrize("workload", ("sweep", "query"))
def test_generator_depends_on_seed(workload):
    assert _first(workload, 7, 50) != _first(workload, 8, 50)


def test_query_mix_matches_its_description():
    calls = _first("query", workloads.DEFAULT_SEED, 4000)
    kinds = {k: sum(c.kind == k for c in calls) / len(calls)
             for k in ("error", "entangle", "thermal", "malformed")}
    grid = sum("--grid" in c.argv and c.kind != "malformed" for c in calls) / len(calls)
    assert abs(kinds["malformed"] - 0.05) < 0.015
    for kind in workloads.QUERY_KINDS:
        assert abs(kinds[kind] - 0.95 / 3) < 0.03
    assert abs(grid - 0.25) < 0.03
    for c in calls:
        if c.kind == "entangle" and "grid" in c.inputs:
            assert abs(c.inputs.get("k", 0.0)) * c.inputs["sigma"] <= 1.0 * (1 + 1e-12)


# (delta, k sigma) pairs well inside the package's search bracket
SAFE_POINTS = [(1e-4, 1e-3), (1e-4, 1.0), (1e-4, 100.0), (0.01, 0.3), (0.01, 10.0),
               (0.1, 1.0), (0.3, 5.0), (0.5, 0.05)]


@pytest.mark.parametrize("delta,kappa", SAFE_POINTS)
def test_reference_matches_package_overlap_and_optimum(delta, kappa):
    p = collision_params_from_delta(delta)
    d, g = reference.mass_fractions(delta, 1.0 - delta)
    lam = np.geomspace(1e-6, 1e2, 50)
    np.testing.assert_allclose(reference.log_inverse_sq(lam, kappa, d, g),
                               eb.overlap_log_inverse_sq(lam, kappa, p), rtol=DIGITS_12)
    opt = eb.optimal_lambda(kappa, p)
    lam_ref = reference.optimal_lambda(kappa, d, g)
    assert math.isclose(reference.amplitude(lam_ref, kappa, d, g), opt.A_max, rel_tol=DIGITS_12)
    assert math.isclose(reference.one_minus_amplitude(lam_ref, kappa, d, g), opt.one_minus_A,
                        rel_tol=DIGITS_12)
    # the golden-section optimum is flat: lambda agrees only to ~1e-8
    assert math.isclose(lam_ref, opt.lambda_max, rel_tol=1e-6)


@pytest.mark.parametrize("delta,Sigma,sigma", [(1e-4, 1.0, 1.0), (0.01, 0.3, 2.0),
                                               (0.2, 5.0, 0.5), (0.45, 1.0, 0.1)])
def test_reference_matches_package_kernel(delta, Sigma, sigma):
    p = collision_params_from_delta(delta)
    d, g = reference.mass_fractions(delta, 1.0 - delta)
    kp = ent.kernel_params(post_collision_state(initial_state(Sigma, sigma, 0.7), p))
    D, rho, w = reference.kernel(d, g, Sigma, sigma)
    for got, ref in ((kp.D, D), (kp.rho, rho), (kp.w, w),
                     (ent.largest_eigenvalue(kp.w), reference.largest_eigenvalue(w))):
        assert math.isclose(got, float(ref), rel_tol=DIGITS_12)


def test_reference_matches_package_thermal():
    for mu, T in ((9.1093837015e-31, 300.0), (1e-25, 1e-3), (1e-20, 1e4)):
        assert math.isclose(reference.thermal_spread(mu, T), th.thermal_spread(mu, T),
                            rel_tol=DIGITS_12)
        assert math.isclose(reference.thermal_length(T), th.thermal_length(T),
                            rel_tol=DIGITS_12)


def _checked(call):
    return reference.check(call, *run.invoke(decoh.cli.main, call)[1:])[0]


def test_checker_tags_the_known_defects():
    pinned = workloads.Call(("error", "--format", "json", "--delta", "0.5", "--ksigma", "1000"),
                            "error", {"delta": 0.5, "ksigma": 1000.0})
    assert [r for r, _ in _checked(pinned)] == [reference.KNOWN_ITEM1]
    grid1 = workloads.Call(("error", "--delta", "0.01", "--ksigma", "1", "--grid", "1"),
                           "malformed", {})
    assert [r for r, _ in _checked(grid1)] == [reference.KNOWN_ITEM5]


def test_checker_flags_a_wrong_value_as_new():
    call = workloads.Call(("error", "--format", "json", "--delta", "0.01", "--ksigma", "1"),
                          "error", {"delta": 0.01, "ksigma": 1.0})
    _, code, out, err, exc = run.invoke(decoh.cli.main, call)
    assert reference.check(call, code, out, err, exc)[0] == []
    doc = json.loads(out)
    doc["results"]["one_minus_A"] *= 1.0 + 1e-8
    reasons = [r for r, _ in reference.check(call, code, json.dumps(doc), err, exc)[0]]
    assert reasons == ["value:one_minus_A"]


def test_tracer_leaves_outputs_unchanged_and_restores_the_package():
    calls = (_first("query", 3, 60)
             + [c for c in _first("sweep", 3, 5) if c.inputs["parameter"] in ("w", "T")]
             + [workloads.Call(("verify", "--format", "json", "--grid", "64"), "verify", {})])
    before = [run.invoke(decoh.cli.main, c)[1:] for c in calls]
    originals = dict(vars(decoh.cli))
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run.invoke(decoh.cli.main, c, tracer)[1:] for c in calls]
    finally:
        tracer.uninstall()
    assert traced == before
    assert dict(vars(decoh.cli)) == originals
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "cli.build_parser", "error_bounds.optimal_lambda",
            "oracles.quadrature_overlap.gauss-legendre", "checks.image_vs_fft",
            "kinematics.state_eval", "cli._sweep_row"} <= names
    # pool-thread rows nest under their CLI call
    rows = [s for s in tracer.spans if s.name == "cli._sweep_row"]
    assert rows and all(s.parent is not None and s.parent.name == "cli.main" for s in rows)


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    from tracer import layer_metrics

    names = set(layer_metrics(Tracer(), set())) | {
        "setup.numpy_import_ms", "setup.decoh_import_ms", "trace_overhead_frac", "failed_frac"}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        n: run.layer_unit(n) for n in names}


def test_a_run_makes_the_same_calls_at_any_speed():
    def slow_main(argv):
        time.sleep(0.002)
        return decoh.cli.main(argv)

    n_cycles = run.cycles_for("sweep", 3 * workloads.CYCLE_SECONDS["sweep"])
    assert n_cycles == 3
    calls = [c for c in _first("sweep", 3, 50) if c.inputs["parameter"] in ("w", "T")]
    fast = run.run_calls(decoh.cli.main, calls, n_cycles, 2)
    slow = run.run_calls(slow_main, calls, n_cycles, 2)
    assert [r.call for r in fast] == [r.call for r in slow] == calls[:6]
    assert [r.digest for r in fast] == [r.digest for r in slow]
