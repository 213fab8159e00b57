import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from decoh import cli
from decoh import error_bounds as eb
from decoh.kinematics import collision_params_from_delta


_NOT_NORMAL = "not a normal positive float"
_HUGE_MASSES = ["--m", "1e308", "--M", "1e308"]
_HUGE_SUM = "--m and --M must have a finite sum, got 1e+308 + 1e+308"
_OUT_OF_RANGE = "is out of range: 1/(4 {0} spread^2) is not a positive finite number"
_UNDERFLOWS = "is too small for the optimum's bracket: delta^2 * 0.001 underflows to 0"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """stderr of a call that argparse rejects with exit 2 and no output."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    return captured.err


def parse_emitted_csv(text: str):
    """Split an emitted CSV back into (comment lines, header, string rows)."""
    comments, header, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return comments, header, rows


def reemit_csv(comments: list[str], header: list[str], rows: list[list[str]]) -> str:
    """Rebuild the CSV text, rewriting each numeric cell to 12 significant digits."""
    lines = list(comments)
    lines.append(",".join(header))
    for row in rows:
        out = []
        for cell in row:
            try:
                out.append(f"{float(cell):.12g}")
            except ValueError:
                out.append(cell)
        lines.append(",".join(out))
    return "\n".join(lines) + "\n"


# minimal JSON-schema checker covering the subset schema.json uses
def _validate(instance, schema, path="$"):
    types = schema.get("type")
    if types is not None:
        if isinstance(types, str):
            types = [types]
        type_map = {
            "object": dict, "array": list, "string": str,
            "number": (int, float), "boolean": bool, "null": type(None),
        }
        if not any(
            isinstance(instance, type_map[t]) and not (t == "number" and isinstance(instance, bool))
            for t in types
        ):
            raise AssertionError(f"{path}: {instance!r} is not of type {types}")
    if isinstance(instance, dict):
        for req in schema.get("required", []):
            if req not in instance:
                raise AssertionError(f"{path}: missing required key {req}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, val in instance.items():
            if key in props:
                _validate(val, props[key], f"{path}.{key}")
            elif isinstance(extra, dict):
                _validate(val, extra, f"{path}.{key}")
            elif extra is False:
                raise AssertionError(f"{path}: unexpected key {key}")
    if isinstance(instance, list) and "items" in schema:
        for i, val in enumerate(instance):
            _validate(val, schema["items"], f"{path}[{i}]")


def _schema():
    return json.loads(resources.files("decoh").joinpath("schema.json").read_text())


def test_error_auto_matched(capsys):
    code, out, _ = run_cli(
        capsys, "error", "--m", "1", "--M", "99", "--sigma", "1", "--Sigma", "auto",
        "--k", "0", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["A"] == pytest.approx(1.0, abs=1e-12)


def test_error_explicit_lambda(capsys):
    code, out, _ = run_cli(
        capsys, "error", "--lambda", "1", "--ksigma", "0", "--delta", "0.01",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["A"] == pytest.approx(0.714212839143, rel=1e-9)
    assert doc["results"]["lambda_max"] == pytest.approx(0.01 / 0.99, rel=1e-9)


def test_error_missing_masses_exits_2(capsys):
    code, _, err = run_cli(capsys, "error", "--lambda", "1")
    assert code == 2
    assert "masses" in err


def test_error_bad_physics_exits_2(capsys):
    code, _, err = run_cli(capsys, "error", "--delta", "0.01", "--lambda", "-2")
    assert code == 2
    assert "lambda" in err or "positive" in err


def test_missing_subcommand_flag_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--parameter", "w"])  # missing --start/--stop/--points
    assert exc.value.code == 2


def test_entangle_report(capsys):
    code, out, _ = run_cli(
        capsys, "entangle", "--Sigma", "1", "--sigma", "1", "--m", "1", "--M", "99",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["F0"] == pytest.approx(0.6318, abs=1e-4)
    assert doc["results"]["matched"] is False


def test_entangle_matched_flag(capsys):
    code, out, _ = run_cli(
        capsys, "entangle", "--m", "1", "--M", "99", "--sigma", "1", "--Sigma", "auto",
        "--k", "5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["matched"] is True
    assert doc["results"]["F0"] == 1.0
    assert doc["results"]["measure"] == 0.0
    assert doc["results"]["w"] is None  # infinite w is emitted as null


def test_entangle_equal_masses(capsys):
    code, out, _ = run_cli(
        capsys, "entangle", "--m", "2", "--M", "2", "--Sigma", "0.4", "--sigma", "1.3",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["F0"] == 1.0 and doc["results"]["matched"] is True


def test_sweep_points_below_two_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--parameter", "w", "--start", "0.1", "--stop", "10",
        "--points", "1",
    )
    assert code == 2
    assert "points" in err


def test_sweep_log_requires_positive_range(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--parameter", "w", "--start", "-1", "--stop", "10",
        "--points", "5", "--scale", "log",
    )
    assert code == 2


def test_sweep_ksigma_shows_both_asymptotic_branches(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--parameter", "k_sigma", "--start", "1e-3", "--stop", "1e3",
        "--points", "61", "--scale", "log", "--delta", "1e-6",
    )
    assert code == 0
    comments, header, rows = parse_emitted_csv(out)
    assert header[0] == "k_sigma"
    ks = np.array([float(r[0]) for r in rows])
    err = np.array([float(r[3]) for r in rows])
    # left slope ~ 2, right slope ~ 1 on the log-log curve
    left = np.polyfit(np.log(ks[:10]), np.log(err[:10]), 1)[0]
    right = np.polyfit(np.log(ks[-10:]), np.log(err[-10:]), 1)[0]
    assert left == pytest.approx(2.0, abs=0.05)
    assert right == pytest.approx(1.0, abs=0.05)
    # the branches mesh near k sigma = 1
    mid = np.argmin(abs(ks - 1.0))
    assert 1.0 <= err[mid] / 1e-6 <= 1.5


def test_sweep_w_tails(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--parameter", "w", "--start", "1e-3", "--stop", "1e3",
        "--points", "41", "--scale", "log",
    )
    assert code == 0
    _, header, rows = parse_emitted_csv(out)
    w = np.array([float(r[0]) for r in rows])
    f0 = np.array([float(r[2]) for r in rows])
    measure = np.array([float(r[3]) for r in rows])
    assert f0[0] == pytest.approx(w[0], rel=1e-2)          # F0 ~ w on the left
    assert measure[-1] == pytest.approx(1.0 / w[-1] ** 2, rel=1e-2)  # 1 - F0 ~ 1/w^2


def test_sweep_csv_round_trip_idempotent(capsys):
    _, out, _ = run_cli(
        capsys, "sweep", "--parameter", "w", "--start", "0.1", "--stop", "10",
        "--points", "7", "--scale", "log",
    )
    comments, header, rows = parse_emitted_csv(out)
    assert reemit_csv(comments, header, rows) == out


def test_sweep_byte_identical_across_runs_and_threads(capsys, monkeypatch):
    argv = ["sweep", "--parameter", "k_sigma", "--start", "0.01", "--stop", "100",
            "--points", "25", "--scale", "log", "--delta", "1e-3"]
    outputs = []
    for cpus in (1, 4, 1):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code = cli.main(list(argv))
        outputs.append(capsys.readouterr().out)
        assert code == 0
    assert outputs[0] == outputs[1] == outputs[2]


def test_sweep_unknown_parameter_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--parameter", "sideways", "--start", "1", "--stop", "2",
        "--points", "3",
    )
    assert code == 2


def test_thermal_electron(capsys):
    code, out, _ = run_cli(
        capsys, "thermal", "--mu-kg", "9.109e-31", "--T", "300", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["sigma_mu"] == pytest.approx(1.717e-9, rel=1e-3)


def test_thermal_length_scale_only(capsys):
    code, out, _ = run_cli(
        capsys, "thermal", "--T", "1", "--report-length-scale", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["thermal_length"] == pytest.approx(2.2899e-3, rel=1e-4)


def test_thermal_budget(capsys):
    code, out, _ = run_cli(
        capsys, "thermal", "--T", "1", "--report-length-scale",
        "--collisions", "100", "--F0", "0.999", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["amplitude"] == pytest.approx(0.999**50, rel=1e-9)


def test_thermal_rejects_nonpositive(capsys):
    code, _, err = run_cli(capsys, "thermal", "--mu-kg", "-1", "--T", "300")
    assert code == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta=0.01\nlambda=1\nksigma=0\n")
    code, out, _ = run_cli(
        capsys, "error", "--config", str(cfg), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["results"]["A"] == pytest.approx(0.7142128, rel=1e-6)
    # explicit flag beats the file, on either side of --config
    flag = ["--lambda", "0.0101010101010101"]
    config = ["--config", str(cfg)]
    for argv in (config + flag, flag + config):
        code, out, _ = run_cli(capsys, "error", *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["A"] == pytest.approx(1.0, abs=1e-6)


def test_json_outputs_validate_against_schema(capsys, tmp_path):
    cfg_runs = [
        ["error", "--delta", "0.01", "--lambda", "1", "--format", "json"],
        ["entangle", "--delta", "0.01", "--Sigma", "1", "--sigma", "1", "--format", "json"],
        ["sweep", "--parameter", "w", "--start", "0.1", "--stop", "10", "--points", "3",
         "--format", "json"],
        ["thermal", "--T", "1", "--report-length-scale", "--format", "json"],
        ["verify", "--grid", "64", "--format", "json"],
    ]
    schema = _schema()
    for argv in cfg_runs:
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        assert code == 0, argv
        _validate(json.loads(out), schema)


def test_verify_default_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "96")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_corrupted_tolerance_exits_one(capsys, monkeypatch):
    """A failed check, here matched_overlap judged at a tolerance below any
    deviation, makes verify exit 1 with its FAIL line and all_passed false."""
    from decoh import checks

    real = checks.check_matched_overlap

    def corrupted(grid_n):
        c = real(grid_n)
        return checks._result(c.name, -1.0, c.deviation, c.detail)

    monkeypatch.setattr(checks, "_CHECKS", [corrupted, *checks._CHECKS[1:]])
    code, out, _ = run_cli(capsys, "verify", "--grid", "96")
    assert code == 1
    assert out.startswith("FAIL  matched_overlap ") and out.count("FAIL") == 1
    assert out.endswith("11/12 checks passed\n")
    code, out, _ = run_cli(capsys, "verify", "--grid", "96", "--format", "json")
    doc = json.loads(out)
    assert code == 1 and doc["results"]["all_passed"] is False
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["matched_overlap"]


def test_verify_takes_no_tolerance(capsys, tmp_path):
    """verify runs every check at its own tolerance: --tol is no flag of it
    and tol no config key, so either exits 2 before any check runs."""
    err = usage_error(capsys, "verify", "--tol", "schmidt_f0=1e-5")
    assert err.endswith("error: unrecognized arguments: --tol schmidt_f0=1e-5\n")
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("tol=schmidt_f0=1e-5\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: unknown config key 'tol'\n"


def test_verify_at_grid_64_prints_no_warning(capsys):
    """At --grid 64 dx*k exceeds the sizer's 0.3 phase step on nine grids, yet
    every deviation stays below 1e-12: verify reports the measured
    deviations and nothing else judges the grid."""
    code, out, err = run_cli(capsys, "verify", "--grid", "64")
    assert code == 0 and err == ""
    assert "warning:" not in out and out.endswith("12/12 checks passed\n")
    code, out, _ = run_cli(capsys, "verify", "--grid", "64", "--format", "json")
    assert code == 0
    assert {key for c in json.loads(out)["checks"] for key in c} == {
        "name", "tolerance", "deviation", "passed", "detail"}


def test_verify_grid_refinement_reduces_deviation(capsys):
    devs = {}
    for n in ("64", "512"):
        code = cli.main(["verify", "--grid", n, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        devs[n] = {c["name"]: c["deviation"] for c in doc["checks"]}
    assert devs["64"]["gauss_legendre_overlap"] > devs["512"]["gauss_legendre_overlap"]
    assert max(devs["512"].values()) <= max(devs["64"].values())


def test_error_grid_flag_adds_quadrature_cross_check(capsys):
    code, out, _ = run_cli(
        capsys, "error", "--delta", "0.01", "--lambda", "1", "--grid", "128",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["A_quadrature_deviation"] < 1e-8


def test_entangle_grid_flag_adds_svd_cross_check(capsys):
    code, out, err = run_cli(
        capsys, "entangle", "--delta", "0.01", "--Sigma", "1", "--sigma", "1",
        "--grid", "256", "--format", "json",
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["results"]["F0_svd_deviation"] < 1e-6
    assert doc["results"]["svd_norm"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_entangle_warns_when_the_svd_grid_loses_the_norm(capsys, fmt):
    """A 64 x 64 grid over +-8 sigma of each axis cannot resolve the thin
    ridge of Sigma = 1000 sigma: the sampled norm sum s_i^2 is about 197 and
    the SVD 'F0' 19.8, so the run says so on stderr."""
    code, out, err = run_cli(capsys, "entangle", "--delta", "0.01", "--Sigma", "1e3",
                             "--grid", "64", "--format", fmt)
    assert code == 0
    assert err == ("warning: the SVD oracle's sampled norm is 196.599, not 1: "
                   "the 64 x 64 grid does not resolve the state\n")
    if fmt == "json":
        res = json.loads(out)["results"]
        assert res["svd_norm"] == pytest.approx(196.599, rel=1e-5)
        assert res["F0_svd"] == pytest.approx(19.7591757732, rel=1e-9)


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "error", "--delta", "0.01", "--lambda", "1", "--format", "json",
        "--out", str(out_path),
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["results"]["A"] > 0.7


def test_each_optimum_is_solved_once(capsys, monkeypatch):
    """error solves its optimum once; a lambda sweep has none to solve."""
    solved = []
    solve = eb.optimal_lambda

    def counted(k_sigma, p, *args, **kwargs):
        solved.append(k_sigma)
        return solve(k_sigma, p, *args, **kwargs)

    monkeypatch.setattr(eb, "optimal_lambda", counted)
    for argv in (["--ksigma", "1"], ["--ksigma", "2", "--lambda", "0.3", "--grid", "64"]):
        solved.clear()
        code, _, _ = run_cli(capsys, "error", "--delta", "0.01", "--format", "json", *argv)
        assert code == 0 and len(solved) == 1

    solved.clear()
    code, out, _ = run_cli(capsys, "sweep", "--parameter", "lambda", "--delta", "0.01",
                           "--ksigma", "1", "--start", "0.001", "--stop", "1", "--points", "9")
    assert code == 0 and solved == []
    _, header, rows = parse_emitted_csv(out)
    p = collision_params_from_delta(0.01)
    for lam, row in zip(np.linspace(0.001, 1.0, 9), rows, strict=True):
        A, one_minus_A = eb.overlap_error(float(lam), 1.0, p)
        assert row[header.index("A")] == f"{A:.12g}"
        assert row[header.index("one_minus_A")] == f"{one_minus_A:.12g}"


def test_repeated_calls_print_the_same_bytes(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta=0.01\nksigma=2\n")
    argvs = [
        ["error", "--delta", "0.01", "--ksigma", "1", "--grid", "64", "-v"],
        ["error", "--delta", "0.01"],
        ["error", "--config", str(cfg)],
        ["error", "--delta", "0.01", "--format", "csv"],
        ["entangle", "--delta", "0.01", "--Sigma", "1", "--k", "1", "-v"],
        ["thermal", "--T", "300", "--mu-kg", "1e-25", "--format", "json"],
        ["sweep", "--parameter", "w", "--start", "0.1", "--stop", "10", "--points", "5"],
        ["error", "--lambda", "-1", "--delta", "0.01"],
    ]
    first = [run_cli(capsys, *argv) for argv in argvs]
    again = [run_cli(capsys, *argv) for argv in argvs]
    again_reversed = [run_cli(capsys, *argv) for argv in reversed(argvs)]
    assert again == first
    assert again_reversed == first[::-1]


def test_flags_and_config_do_not_leak_into_the_next_call(capsys, tmp_path):
    plain = ["error", "--delta", "0.01", "--ksigma", "1"]
    _, fresh, _ = run_cli(capsys, *plain)
    run_cli(capsys, *plain, "--grid", "64", "-v")
    _, after, _ = run_cli(capsys, *plain)
    assert after == fresh
    assert "quadrature" not in after and "optimizer" not in after

    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda=0.5\n")
    _, with_config, _ = run_cli(capsys, *plain, "--config", str(cfg))
    assert "  lambda      = 0.5\n" in with_config
    _, after, _ = run_cli(capsys, *plain)
    assert after == fresh


def test_dispatch_reads_the_command_at_call_time(capsys, monkeypatch):
    parser = cli.build_parser()
    assert cli.build_parser() is parser  # built once per process
    seen = []

    def fake_error(args):
        seen.append(args.delta)
        return 7

    monkeypatch.setattr(cli, "cmd_error", fake_error)
    code, out, _ = run_cli(capsys, "error", "--delta", "0.25")
    assert code == 7 and seen == [0.25] and out == ""


@pytest.mark.parametrize("grid", ["0", "1", "2", "4", "-3"])
def test_verify_grid_below_five_exits_2_with_a_message(capsys, grid):
    code, out, err = run_cli(capsys, "verify", "--grid", grid)
    assert code == 2 and out == ""
    assert err == (f"error: grid must have at least 5 points per axis, got {grid}: "
                   "the checks compare 5 spectrum levels\n")


def test_verify_grid_five_runs_every_check(capsys):
    code, out, err = run_cli(capsys, "verify", "--grid", "5", "--format", "json")
    assert code in (0, 1) and err == ""
    assert json.loads(out)["results"]["n_checks"] == 12


def test_entangle_honours_ksigma_over_k(capsys):
    code, out, _ = run_cli(capsys, "entangle", "--delta", "0.01", "--Sigma", "1",
                           "--ksigma", "3")
    assert code == 0 and "k=3)" in out
    code, out, _ = run_cli(capsys, "entangle", "--delta", "0.01", "--Sigma", "1",
                           "--sigma", "2", "--k", "5", "--ksigma", "3", "--format", "json")
    assert code == 0 and json.loads(out)["params"]["k"] == 1.5


def test_entangle_matched_needs_one_eigenvalue(capsys):
    code, out, err = run_cli(capsys, "entangle", "--delta", "0.01", "--Sigma", "auto",
                             "--n-spectrum", "0")
    assert code == 2 and out == ""
    assert err == "error: --n-spectrum must be at least 1, got 0\n"


def test_entangle_help_states_the_n_spectrum_range(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["entangle", "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "eigenvalues to list (default 8, at least 1, at most 1000000)" in help_text


@pytest.mark.parametrize("command", [
    ["error", "--delta", "0.01"],
    ["entangle", "--delta", "0.01", "--Sigma", "1"],
])
@pytest.mark.parametrize("grid", ["0", "-3"])
def test_grid_must_be_positive(capsys, command, grid):
    code, out, err = run_cli(capsys, *command, "--grid", grid)
    assert code == 2 and out == ""
    assert err == f"error: --grid must be positive, got {grid}\n"


@pytest.mark.parametrize("argv,flag,value", [
    (["error", "--delta", "0.01", "--Sigma", "1", "--sigma", "0"], "--sigma", "0.0"),
    (["error", "--delta", "0.01", "--Sigma", "-1"], "--Sigma", "-1.0"),
    (["entangle", "--delta", "0.01", "--lambda", "-1"], "--lambda", "-1.0"),
])
def test_spreads_and_lambda_must_be_positive(capsys, argv, flag, value):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be positive and finite, got {value}\n"


def test_config_sets_format_and_scale(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta=0.01\nksigma=1\nformat=json\n")
    code, out, _ = run_cli(capsys, "error", "--config", str(cfg))
    assert code == 0 and json.loads(out)["params"]["k_sigma"] == 1.0

    cfg.write_text("scale = log  # geometric spacing\n")
    code, out, _ = run_cli(capsys, "sweep", "--parameter", "w", "--start", "0.1",
                           "--stop", "10", "--points", "3", "--config", str(cfg))
    comments, _, rows = parse_emitted_csv(out)
    assert code == 0 and "# scale=log" in comments
    assert [row[0] for row in rows] == ["0.1", "1", "10"]


def test_config_supplies_required_sweep_flags(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("parameter=w\nstart=0.1\nstop=10\npoints=5\n")
    from_file = run_cli(capsys, "sweep", "--config", str(cfg))
    from_flags = run_cli(capsys, "sweep", "--parameter", "w", "--start", "0.1",
                         "--stop", "10", "--points", "5")
    assert from_file[0] == 0 and from_file[1:] == from_flags[1:]


@pytest.mark.parametrize("key", ["n_spectrum", "n-spectrum"])
def test_config_keys_take_dashes_or_underscores(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}=2\nSigma=1\n")
    code, out, _ = run_cli(capsys, "entangle", "--delta", "0.01", "--config", str(cfg))
    assert code == 0 and "  spectrum = 0.631808, 0.232627\n" in out


@pytest.mark.parametrize("line, message", [
    ("bogus=1", "unknown config key 'bogus'"),
    ("ks=1", "unknown config key 'ks'"),  # a key is not abbreviated like a flag
    ("config=other.cfg", "unknown config key 'config'"),
    ("=5", "unknown config key ''"),
    ("delta", "config line is not key=value: 'delta'"),
])
def test_bad_config_line_exits_2(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"delta=0.01\n{line}\n")
    code, out, err = run_cli(capsys, "error", "--config", str(cfg))
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_bad_config_value_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta=0.01\nformat=xml\n")
    err = usage_error(capsys, "error", "--config", str(cfg))
    assert "argument --format: invalid choice: 'xml'" in err


def test_config_flag_is_found_as_the_parser_finds_it(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta=0.01\nksigma=1\n")
    _, full, _ = run_cli(capsys, "error", "--config", str(cfg))
    for argv in (["--conf", str(cfg)], [f"--config={cfg}"], [f"--con={cfg}"]):
        assert run_cli(capsys, "error", *argv) == (0, full, "")
    # on thermal --co also abbreviates --collisions, so argparse refuses it
    err = usage_error(capsys, "thermal", "--T", "300", "--co", str(cfg))
    assert "ambiguous option: --co could match --collisions, --config" in err
    for argv in (["--config"], ["--config", "--ksigma", "1"]):
        err = usage_error(capsys, "error", "--delta", "0.01", *argv)
        assert "argument --config: expected one argument" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "error", "--config", str(tmp_path / "none.cfg"))
    assert code == 2 and out == ""
    assert err.startswith("error: [Errno 2] No such file or directory")


@pytest.mark.parametrize("argv, message", [
    (["error", "--delta", "0.01", "--Sigma", "1e160"],
     "(--Sigma/--sigma)^2 must be positive and finite, got inf"),
    (["error", "--delta", "0.01", "--ksigma", "1e200"],
     "k sigma must have a finite square, got 1e+200"),
    (["entangle", "--delta", "0.01", "--Sigma", "1e200"],
     f"--Sigma out of range: wall spread 1e+200 {_OUT_OF_RANGE.format('wall')}"),
    (["sweep", "--parameter", "lambda", "--start", "0.1", "--stop", "1", "--points", "3",
      "--delta", "0.01", "--ksigma", "1e200"],
     "--ksigma must have a finite square, got 1e+200"),
    (["entangle", "--delta", "0.01", "--Sigma", "1e-200"],
     f"--Sigma out of range: wall spread 1e-200 {_OUT_OF_RANGE.format('wall')}"),
    (["error", "--delta", "0.01", "--Sigma", "abc"],
     "--Sigma must be a number or 'auto', got 'abc'"),
    (["entangle", "--delta", "0.01", "--Sigma", "1", "--grid", "1"],
     "--grid must be at least 2 on entangle, got 1"),
    (["entangle", "--delta", "0.01", "--Sigma", "1", "--n-spectrum", "1000001"],
     "--n-spectrum must be at most 1000000, got 1000001"),
    (["entangle", "--delta", "0.01", "--Sigma", "1", "--n-spectrum", "100000000000"],
     "--n-spectrum must be at most 1000000, got 100000000000"),
    (["entangle", "--delta", "0.01", "--Sigma", "1", "--n-spectrum", "0"],
     "--n-spectrum must be at least 1, got 0"),
    (["entangle", "--delta", "0.01", "--Sigma", "1", "--n-spectrum", "-1"],
     "--n-spectrum must be at least 1, got -1"),
    # entangle applies error's rule to k sigma: nan ran as k sigma = nan,
    # 1e308 ended in an SVD traceback, 1e200 printed an SVD F0 of 0.909
    # beside the closed form's 0.632
    (["entangle", "--delta", "0.01", "--Sigma", "1", "--k", "nan"],
     "k sigma must have a finite square, got nan"),
    (["entangle", "--delta", "0.01", "--Sigma", "1", "--k", "1e308", "--grid", "8"],
     "k sigma must have a finite square, got 1e+308"),
    (["entangle", "--delta", "0.01", "--Sigma", "1", "--k", "1e200", "--grid", "8"],
     "k sigma must have a finite square, got 1e+200"),
    # a subnormal lambda printed numpy's overflow warning and A = 0, or the
    # library's wall spread message, which names no flag
    (["error", "--delta", "0.01", "--ksigma", "1", "--lambda", "1e-320"],
     f"--lambda out of range: lambda = 9.99989e-321, {_NOT_NORMAL}"),
    (["error", "--delta", "0.01", "--ksigma", "1", "--Sigma", "1e-160"],
     f"(--Sigma/--sigma)^2 out of range: lambda = 9.99989e-321, {_NOT_NORMAL}"),
    (["entangle", "--delta", "0.01", "--lambda", "1e-320"],
     f"--lambda out of range: lambda = 9.99989e-321, {_NOT_NORMAL}"),
    (["sweep", "--parameter", "lambda", "--start", "1e-320", "--stop", "1", "--points", "3",
      "--delta", "0.01"], f"--start out of range: lambda = 9.99989e-321, {_NOT_NORMAL}"),
    (["sweep", "--parameter", "lambda", "--start", "1", "--stop", "1e-320", "--points", "3",
      "--delta", "0.01"], f"--stop out of range: lambda = 9.99989e-321, {_NOT_NORMAL}"),
    # below about 5e-161 delta^2 * 1e-3, the low end of the optimum's
    # bracket, underflowed to 0 and ended in `math domain error`
    (["error", "--m", "1e-300", "--M", "1e10", "--ksigma", "1"],
     f"--m and --M out of range: mass fraction 1e-310 {_UNDERFLOWS}"),
    (["error", "--delta", "1e-200", "--ksigma", "1"],
     f"--delta out of range: mass fraction 1e-200 {_UNDERFLOWS}"),
    (["thermal", "--T", "1", "--report-length-scale", "--delta", "1e-200"],
     f"--delta out of range: mass fraction 1e-200 {_UNDERFLOWS}"),
    (["sweep", "--parameter", "delta", "--start", "1e-200", "--stop", "0.5", "--points", "3",
      "--ksigma", "1"], f"--start out of range: mass fraction 1e-200 {_UNDERFLOWS}"),
    (["sweep", "--parameter", "delta", "--start", "0.5", "--stop", "1e-200", "--points", "3",
      "--ksigma", "1"], f"--stop out of range: mass fraction 1e-200 {_UNDERFLOWS}"),
    (["sweep", "--parameter", "k_sigma", "--start", "1", "--stop", "2", "--points", "2",
      "--delta", "1e-200"], f"--delta out of range: mass fraction 1e-200 {_UNDERFLOWS}"),
    # a spread whose 1/(4 s^2) is no positive finite float ended in the
    # library's message, which names no flag; the particle's is checked first
    (["entangle", "--delta", "0.01", "--Sigma", "1e-160"],
     f"--Sigma out of range: wall spread 1e-160 {_OUT_OF_RANGE.format('wall')}"),
    (["entangle", "--delta", "0.01", "--Sigma", "1", "--sigma", "1e200"],
     f"--sigma out of range: particle spread 1e+200 {_OUT_OF_RANGE.format('particle')}"),
    (["entangle", "--delta", "0.01", "--Sigma", "auto", "--sigma", "1e-160"],
     f"--sigma out of range: particle spread 1e-160 {_OUT_OF_RANGE.format('particle')}"),
    (["entangle", "--delta", "1e-30", "--Sigma", "auto", "--sigma", "1e-150"],
     f"--Sigma out of range: wall spread 1e-165 {_OUT_OF_RANGE.format('wall')}"),
    (["entangle", "--delta", "0.01", "--lambda", "1e-300", "--sigma", "1e-10"],
     f"--sigma and --lambda out of range: wall spread 1e-160 {_OUT_OF_RANGE.format('wall')}"),
    (["error", "--delta", "0.01", "--ksigma", "1", "--sigma", "1e-160", "--grid", "8"],
     f"--sigma out of range: particle spread 1e-160 {_OUT_OF_RANGE.format('particle')}"),
    (["error", "--delta", "0.01", "--ksigma", "1", "--lambda", "1e-300", "--sigma", "1e-10",
      "--grid", "8"],
     f"--sigma and --lambda out of range: wall spread 1e-160 {_OUT_OF_RANGE.format('wall')}"),
    (["error", "--delta", "0.01", "--ksigma", "1", "--Sigma", "1e-160", "--sigma", "1e-150",
      "--grid", "8"], f"--Sigma out of range: wall spread 1e-160 {_OUT_OF_RANGE.format('wall')}"),
    (["error", "--delta", "1e-30", "--ksigma", "1", "--sigma", "1e-150", "--grid", "8"],
     f"--sigma out of range: wall spread 6.6874e-166 {_OUT_OF_RANGE.format('wall')}"),
])
def test_out_of_range_input_exits_2_with_a_message(capsys, argv, message):
    """Squares that overflow or underflow a float, a subnormal lambda, a
    --Sigma that is not a number, a one-point SVD grid, a spectrum longer
    than 10^6 (10^11 eigenvalues would be an 800 GB array), a spread out of
    range and a mass fraction too small for the optimum's bracket end in a
    message naming its flags, not a traceback; a sweep checks before its
    first row."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_entangle_grid_is_exactly_n_by_n(capsys, monkeypatch):
    """--grid 64 at k = 1e6 samples 64 x 64 points, where a grid grown to
    resolve the phase would need petabytes; the phase is a diagonal unitary
    on each side of the sampled matrix, so the SVD still matches F0."""
    from decoh import oracles

    shapes = []
    svd = oracles.schmidt_decompose

    def spy(state, grid=None, n=512):
        res = svd(state, grid=grid, n=n)
        shapes.append((res.grid.nx, res.grid.nX))
        return res

    monkeypatch.setattr(oracles, "schmidt_decompose", spy)
    code, out, _ = run_cli(capsys, "entangle", "--delta", "0.01", "--Sigma", "1",
                           "--k", "1e6", "--grid", "64", "--format", "json")
    assert code == 0 and shapes == [(64, 64)]
    assert json.loads(out)["results"]["F0_svd_deviation"] <= 1e-12


def test_entangle_forced_grid_at_a_vast_spread_ratio(capsys):
    """--Sigma 1e150 --grid 8 sizes its grid from the closed-form covariance:
    at this spread ratio the quadratic form of |Psi_F|^2 is numerically
    singular, so inverting it fails.  Eight points cannot resolve the state,
    and the warning says so."""
    code, out, err = run_cli(capsys, "entangle", "--delta", "0.01", "--Sigma", "1e150",
                             "--grid", "8", "--format", "json")
    assert code == 0 and err.startswith("warning: the SVD oracle's sampled norm is 1.3")
    doc = json.loads(out)
    assert doc["results"]["F0"] == pytest.approx(1.03071531643e-150, rel=1e-11)
    assert "F0_svd" in doc["results"]


@pytest.mark.parametrize("argv, message", [
    (["thermal", "--mu-kg", "-1", "--T", "300"], "--mu-kg must be positive and finite, got -1.0"),
    (["thermal", "--mu-kg", "1e-27", "--T", "-1"], "--T must be positive and finite, got -1.0"),
    (["thermal", "--T", "-1", "--report-length-scale"],
     "--T must be positive and finite, got -1.0"),
    (["thermal", "--mu-kg", "1e-27", "--T", "300", "--delta", "2"],
     "--delta must lie in (0, 1), got 2.0"),
    (["error", "--delta", "2", "--ksigma", "1"], "--delta must lie in (0, 1), got 2.0"),
    (["entangle", "--delta", "0", "--Sigma", "1"], "--delta must lie in (0, 1), got 0.0"),
    (["error", "--delta", "0.01", "--ksigma", "-1"], "--ksigma must be non-negative, got -1.0"),
    (["thermal", "--T", "1", "--report-length-scale", "--F0", "2"],
     "--F0 must lie in (0, 1], got 2.0"),
    (["thermal", "--T", "1", "--report-length-scale", "--F0", "0"],
     "--F0 must lie in (0, 1], got 0.0"),
    (["thermal", "--T", "1", "--report-length-scale", "--collisions", "3", "--F0", "2"],
     "--F0 must lie in (0, 1], got 2.0"),
    (["error", "--m", "0", "--M", "1"], "--m must be positive and finite, got 0.0"),
    (["error", "--m", "1", "--M", "-1"], "--M must be positive and finite, got -1.0"),
    (["thermal", "--T", "1", "--report-length-scale", "--collisions", "-3"],
     "--collisions must be non-negative, got -3"),
    (["sweep", "--parameter", "delta", "--start", "0.01", "--stop", "0.1", "--points", "3",
      "--ksigma", "-1"], "--ksigma must be non-negative, got -1.0"),
    (["sweep", "--parameter", "lambda", "--start", "0.1", "--stop", "1", "--points", "3",
      "--delta", "0.01", "--ksigma", "-1"], "--ksigma must be non-negative, got -1.0"),
    (["sweep", "--parameter", "k_sigma", "--start", "-1", "--stop", "1", "--points", "3",
      "--delta", "0.01"],
     "--start must be non-negative with a finite square for a k_sigma sweep, got -1.0"),
    (["sweep", "--parameter", "k_sigma", "--start", "1", "--stop", "1e200", "--points", "3",
      "--delta", "0.01"],
     "--stop must be non-negative with a finite square for a k_sigma sweep, got 1e+200"),
    (["sweep", "--parameter", "lambda", "--start", "-1", "--stop", "1", "--points", "3",
      "--delta", "0.01"], "--start must be positive and finite for a lambda sweep, got -1.0"),
    (["sweep", "--parameter", "delta", "--start", "0", "--stop", "0.5", "--points", "3"],
     "--start must lie in (0, 1) for a delta sweep, got 0.0"),
    (["sweep", "--parameter", "delta", "--start", "0.1", "--stop", "1", "--points", "3"],
     "--stop must lie in (0, 1) for a delta sweep, got 1.0"),
    (["sweep", "--parameter", "w", "--start", "-1", "--stop", "1", "--points", "3"],
     "--start must be non-negative and finite for a w sweep, got -1.0"),
    (["sweep", "--parameter", "T", "--start", "-1", "--stop", "1", "--points", "3",
      "--mu-kg", "1e-27"], "--start must be positive and finite for a T sweep, got -1.0"),
    (["sweep", "--parameter", "T", "--start", "1", "--stop", "2", "--points", "3",
      "--mu-kg", "-1"], "--mu-kg must be positive and finite, got -1.0"),
    (["thermal", "--T", "1", "--report-length-scale", "--collisions", "1" + "0" * 309],
     f"--collisions must be at most {sys.float_info.max:g}"),
    # m + M = inf gave delta = gamma = 0: a matched state with F0 = 1, rows
    # of A = 1, or a math domain error
    (["entangle", "--Sigma", "1", *_HUGE_MASSES], _HUGE_SUM),
    (["error", "--ksigma", "1", *_HUGE_MASSES], _HUGE_SUM),
    (["sweep", "--parameter", "lambda", "--start", "0.01", "--stop", "1", "--points", "3",
      *_HUGE_MASSES], _HUGE_SUM),
    (["sweep", "--parameter", "k_sigma", "--start", "0.01", "--stop", "1", "--points", "3",
      *_HUGE_MASSES], _HUGE_SUM),
])
def test_exit_2_messages_name_the_flag(capsys, argv, message):
    """A rejected input is named by its flag, not by the library's word for
    it; --F0 is checked whether or not --collisions is given."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


_T_SWEEP = ["sweep", "--parameter", "T", "--points", "2"]


@pytest.mark.parametrize("argv, message", [
    (["thermal", "--mu-kg", "1e-300", "--T", "1e-300"],
     f"--T out of range: k_B T = 1.4822e-323, {_NOT_NORMAL}"),
    (["thermal", "--mu-kg", "1e-320", "--T", "300"],
     f"--mu-kg out of range: mu c = 2.99789e-312, {_NOT_NORMAL}"),
    (["thermal", "--T", "1e-320", "--report-length-scale"],
     f"--T out of range: k_B T = 0, {_NOT_NORMAL}"),
    ([*_T_SWEEP, "--start", "1e-300", "--stop", "1e-299", "--mu-kg", "1e-300"],
     f"--mu-kg out of range: mu k_B = 1.4822e-323, {_NOT_NORMAL}"),
    (["thermal", "--mu-kg", "1e300", "--T", "1e300"],
     f"--mu-kg out of range: mu c = inf, {_NOT_NORMAL}"),
    ([*_T_SWEEP, "--start", "1e300", "--stop", "1e301", "--mu-kg", "1e300"],
     f"--mu-kg and --start out of range: mu k_B T = inf, {_NOT_NORMAL}"),
    (["thermal", "--mu-kg", "1e200", "--T", "1e200"],
     f"--mu-kg and --T out of range: mu k_B T = inf, {_NOT_NORMAL}"),
    (["thermal", "--T", "1e308", "--report-length-scale"],
     f"--T out of range: hbar c/(k_B T) = 2.28988e-311, {_NOT_NORMAL}"),
    ([*_T_SWEEP, "--start", "1", "--stop", "1e308", "--mu-kg", "1e-27"],
     f"--stop out of range: hbar c/(k_B T) = 2.28988e-311, {_NOT_NORMAL}"),
    # the range checks come after every other check
    (["thermal", "--mu-kg", "1e-300", "--T", "1e-300", "--delta", "2"],
     "--delta must lie in (0, 1), got 2.0"),
])
def test_thermal_lengths_outside_the_normal_range_exit_2(capsys, argv, message):
    """A reported length, or a product behind it, that is zero, subnormal or
    infinite exits 2 naming its flags, not with a traceback, a 0 or a nan."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("scale", [[], ["--scale", "log"]])
def test_sweep_to_infinity_prints_only_its_error(scale):
    """The sweep's values are built after the domain checks, so numpy's
    RuntimeWarning on an infinite --stop never reaches stderr.  Run as a
    child process: pytest would capture the warning in process."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "decoh", "sweep", "--parameter", "w", "--start", "1",
         "--stop", "inf", "--points", "3", *scale],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: --stop must be non-negative and finite for a w sweep, got inf\n"


class _SerialPool:
    """ThreadPoolExecutor stand-in that records max_workers and maps serially."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, values):
        return map(fn, values)


_W_SWEEP = ["sweep", "--parameter", "w", "--start", "1", "--stop", "2", "--points", "3"]


@pytest.mark.parametrize("cpus", [1, 2, 16])
def test_sweep_pool_is_min_8_cpu_count(capsys, monkeypatch, cpus):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    code, out, _ = run_cli(capsys, *_W_SWEEP)
    assert code == 0 and len(out.splitlines()) == 10
    assert _SerialPool.sizes == [min(8, cpus)]


def test_sweep_ignores_decoh_num_threads(capsys, monkeypatch):
    """DECOH_NUM_THREADS is not read: any value, valid or not, leaves the
    sweep's exit code and bytes as they are without it."""
    monkeypatch.delenv("DECOH_NUM_THREADS", raising=False)
    expected = run_cli(capsys, *_W_SWEEP)
    assert expected[0] == 0
    for threads in ("abc", "0", "-4", "3"):
        monkeypatch.setenv("DECOH_NUM_THREADS", threads)
        assert run_cli(capsys, *_W_SWEEP) == expected


def test_thermal_budget_of_a_huge_collision_count(capsys):
    """10^11 collisions are a closed form, not a 10^11-float array."""
    code, out, err = run_cli(capsys, "thermal", "--T", "300", "--mu-kg", "1e-30",
                             "--collisions", "100000000000", "--F0", "0.999999999999",
                             "--format", "json")
    assert code == 0 and err == ""
    res = json.loads(out)["results"]
    assert res["amplitude"] == pytest.approx(0.999999999999 ** 5e10, rel=1e-9)


_LAMBDA_SWEEP = ["sweep", "--parameter", "lambda", "--start", "0.01", "--stop", "1",
                 "--points", "3", "--delta", "0.01"]


@pytest.mark.parametrize("argv, key", [
    (["--sigma", "2"], "sigma"),
    (["--Sigma", "1"], "Sigma"),
    (["--lambda", "1"], "lambda"),
    (["--grid", "64"], "grid"),
    (["-v"], "verbose"),
])
def test_sweep_takes_no_packet_grid_or_verbose_flag(tmp_path, capsys, argv, key):
    """A sweep's packet has sigma = 1 and it runs no oracle, so the flags
    that set error's and entangle's packets, grid and diagnostics exit 2 on
    it, on the command line and as config keys."""
    err = usage_error(capsys, *_LAMBDA_SWEEP, *argv)
    assert err.endswith(f"error: unrecognized arguments: {' '.join(argv)}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}=1\n")
    code, out, err = run_cli(capsys, *_LAMBDA_SWEEP, "--config", str(cfg))
    assert code == 2 and out == "" and err == f"error: unknown config key {key!r}\n"


def test_sweep_reads_k_as_ksigma(capsys):
    """--k on a sweep is argparse's unique prefix of --ksigma: the same
    number, because a sweep's packet has sigma = 1."""
    by_k = run_cli(capsys, *_LAMBDA_SWEEP, "--k", "3")
    assert by_k == run_cli(capsys, *_LAMBDA_SWEEP, "--ksigma", "3")
    _, _, rows = parse_emitted_csv(by_k[1])
    assert by_k[0] == 0 and [row[1] for row in rows] == ["3", "3", "3"]


def test_entangle_keeps_a_signed_momentum(capsys):
    """The finite-square rule on k sigma leaves k and --ksigma signed on
    entangle; argparse reads -1e3 as a value only after `=`."""
    for argv, k in ((["--k=-1e3"], "-1000"), (["--ksigma", "-3", "--sigma", "2"], "-1.5")):
        code, out, _ = run_cli(capsys, "entangle", "--delta", "0.01", "--Sigma", "1", *argv)
        assert code == 0 and f", k={k})\n" in out


@pytest.mark.filterwarnings("error")
def test_inputs_inside_the_range_checks_keep_their_output(capsys):
    """The delta and spread checks reject only what the library cannot
    take: a delta just above the bracket's underflow, a k = 0 optimum (no
    bracket), an entangle (which solves no optimum) at any delta and an
    error without --grid (which builds no state) at a sigma no state could
    take run clean, the first two printing these bytes."""
    code, out, err = run_cli(capsys, "error", "--delta", "6e-161", "--ksigma", "1")
    assert code == 0 and err == "" and out == (
        "overlap error (delta=6e-161, k sigma=1)\n"
        "  lambda      = 2.6832815706e-161\n"
        "  A           = 1\n"
        "  1 - A       = 7.416407865e-161\n"
        "  lambda_max  = 2.6832815706e-161\n"
        "  A_max       = 1\n"
        "  regime      = crossover\n")
    code, out, err = run_cli(capsys, "sweep", "--parameter", "k_sigma", "--start", "1",
                             "--stop", "2", "--points", "2", "--delta", "1e-159")
    assert code == 0 and err == "" and out.endswith(
        "k_sigma,lambda_max,A_max,one_minus_A,asymptotic_small,asymptotic_large,regime\n"
        "1,4.47213595953e-160,1,1.2360679775e-159,2e-159,2e-159,crossover\n"
        "2,2.42535628009e-160,1,3.12310562562e-159,8e-159,4e-159,crossover\n")
    for argv in (["error", "--delta", "1e-200", "--ksigma", "0"],
                 ["sweep", "--parameter", "delta", "--start", "1e-200", "--stop", "0.5",
                  "--points", "3"],
                 ["entangle", "--delta", "1e-200", "--Sigma", "1"],
                 ["error", "--delta", "0.01", "--ksigma", "1", "--sigma", "1e-160"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv
