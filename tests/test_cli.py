import concurrent.futures
import json
import math
import os
import re
import string
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoh import checks, cli, oracles
from decoh import error_bounds as eb
from decoh.kinematics import PostCollisionState, collision_params_from_delta


_NOT_NORMAL = "not a normal positive float"
_HUGE_MASSES = ["--m", "1e308", "--M", "1e308"]
_HUGE_SUM = "--m and --M must have a finite sum, got 1e+308 + 1e+308"
_OUT_OF_RANGE = "is out of range: 1/(4 {0} spread^2) is not a positive finite number"
_UNDERFLOWS = "is too small for the optimum's bracket: delta^2 * 0.001 underflows to 0"
# the domain phrases of cli.DOMAINS
_NORMAL = "be a normal positive float"
_POSITIVE = "be positive and finite"
_K_SIGMA = "be non-negative with a finite square"
_N_SPECTRUM = "be at least 1 and at most 1000000"
_POINTS = "be at least 2 and at most 1000000"
_COLLISIONS = f"be non-negative and at most {sys.float_info.max:g}"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome(capsys, *argv):
    """(exit code, stdout, stderr) of a call, argparse's SystemExit included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def usage_error(capsys, *argv):
    """stderr of a call that argparse rejects with exit 2 and no output."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    return captured.err


def rejected(capsys, argv, message):
    """Assert that argv exits 2 with no output and with message: argparse's,
    after its usage lines, when one flag's value is outside its domain (the
    message starts `argument --flag: `), or main's `error: ` line when a rule
    that joins flags fails."""
    if message.startswith("argument "):
        err = usage_error(capsys, *argv)
        assert err.startswith(f"usage: decoh {argv[0]} ")
        assert err.endswith(f"\ndecoh {argv[0]}: error: {message}\n")
    else:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err == f"error: {message}\n"


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
    err = usage_error(capsys, "error", "--delta", "0.01", "--lambda", "-2")
    assert "argument --lambda: must be a normal positive float, got -2\n" in err


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
    err = usage_error(
        capsys, "sweep", "--parameter", "w", "--start", "0.1", "--stop", "10",
        "--points", "1",
    )
    assert "argument --points: must be at least 2 and at most 1000000, got 1\n" in err


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
    err = usage_error(
        capsys, "sweep", "--parameter", "sideways", "--start", "1", "--stop", "2",
        "--points", "3",
    )
    assert "argument --parameter: invalid choice: 'sideways' (choose from 'lambda'" in err


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
    err = usage_error(capsys, "thermal", "--mu-kg", "-1", "--T", "300")
    assert "argument --mu-kg: must be positive and finite, got -1\n" in err


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


@pytest.mark.parametrize("command", ["error", "entangle"])
@pytest.mark.parametrize("flags,first,second", [
    (["--Sigma", "2", "--lambda", "1"], "--Sigma", "--lambda"),
    (["--Sigma", "auto", "--lambda", "1"], "--Sigma", "--lambda"),
    (["--config", "lambda.cfg", "--Sigma", "2"], "--lambda", "--Sigma"),
], ids=["Sigma 2 lambda 1", "Sigma auto lambda 1", "config lambda Sigma 2"])
def test_sigma_and_lambda_exclude_each_other(tmp_path, capsys, monkeypatch, command, flags,
                                             first, second):
    """--Sigma and --lambda set one wall spread, so argparse refuses the two
    together, a --config file's line included, on both commands alike."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lambda.cfg").write_text("delta=0.01\nlambda=1\nksigma=0\n")
    rejected(capsys, [command, "--delta", "0.01", *flags],
             f"argument {second}: not allowed with argument {first}")


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
    """At --grid 64, coarser than several self-sized grids, verify reports
    the measured deviations and nothing else judges the grid."""
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
def test_error_warns_when_the_quadrature_overlap_exceeds_one(capsys, fmt):
    """Two normalized states overlap by at most 1 (Cauchy-Schwarz); a 3 x 3
    grid reads 10.19, so the run says so on stderr, and a 64 x 64 grid,
    which reads 1, stays silent."""
    argv = ["error", "--delta", "0.01", "--ksigma", "0", "--format", fmt, "--grid"]
    code, out, err = run_cli(capsys, *argv, "3")
    assert code == 0
    assert err == ("warning: the quadrature oracle's overlap is 10.1859, above 1: "
                   "the 3 x 3 grid does not resolve the states\n")
    if fmt == "json":
        assert json.loads(out)["results"]["A_quadrature"] == pytest.approx(10.1859163579,
                                                                           rel=1e-9)
    code, out, err = run_cli(capsys, *argv, "64")
    assert code == 0 and err == ""


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


def test_grid_adds_the_oracle_columns_to_csv_with_the_values_json_prints(capsys):
    for argv, oracle in ((["error", "--delta", "0.01", "--ksigma", "1", "--grid", "16"],
                          ["A_quadrature", "A_quadrature_deviation"]),
                         (["entangle", "--delta", "0.01", "--Sigma", "1", "--grid", "16"],
                          ["F0_svd", "F0_svd_deviation", "svd_norm"])):
        _, header, rows = parse_emitted_csv(run_cli(capsys, *argv, "--format", "csv")[1])
        results = json.loads(run_cli(capsys, *argv, "--format", "json")[1])["results"]
        assert header[-len(oracle):] == oracle
        assert [float(rows[0][header.index(k)]) for k in oracle] == [results[k] for k in oracle]
        _, header, _ = parse_emitted_csv(run_cli(capsys, *argv[:-2], "--format", "csv")[1])
        assert not set(oracle) & set(header)


def test_csv_parameter_lines_are_the_set_json_params_written_as_the_rows_are(capsys):
    """A derived float has 12 digits, not 17, and an unset param (JSON null)
    has no # line, as no text line names an absent field."""
    for argv in (["entangle", "--delta", "0.01", "--Sigma", "auto"],
                 ["thermal", "--T", "1", "--report-length-scale"]):
        comments, _, _ = parse_emitted_csv(run_cli(capsys, *argv, "--format", "csv")[1])
        params = json.loads(run_cli(capsys, *argv, "--format", "json")[1])["params"]
        assert comments[1:] == [f"# {k}={v:.12g}" if isinstance(v, float) else f"# {k}={v}"
                                for k, v in sorted(params.items()) if v is not None]
    assert None in params.values()


# each command that _TEXT and _CSV table, with every optional group of
# results switched on
_EVERY_GROUP = {
    "error": ["error", "--delta", "0.01", "--ksigma", "1", "--grid", "16", "-v"],
    "entangle": ["entangle", "--delta", "0.01", "--Sigma", "1", "--grid", "16", "-v"],
    "verify": ["verify"],
    "thermal": ["thermal", "--T", "300", "--mu-kg", "1e-27", "--collisions", "5",
                "--F0", "0.9"],
}


def _looks_up(record, field):
    try:
        record[field]
    except KeyError:
        return False
    return True


def test_every_command_with_output_tables_is_tabled_here():
    assert sorted(cli._TEXT) == sorted(cli._CSV) == sorted(_EVERY_GROUP)


@pytest.mark.parametrize("command", sorted(_EVERY_GROUP))
def test_every_field_of_the_output_tables_is_a_value_of_its_command(monkeypatch, command):
    """_render leaves out a line or column whose field is absent, so a
    misspelled field would vanish in silence: each field that _TEXT and _CSV
    name is a param, result, check item or text-only value of the command."""
    records = []

    def capture(args, params, results, header=None, rows=None, checks=(), **text_only):
        values = cli._Values(params)
        values.update(results, **text_only)
        records.extend([*map(cli._Values, checks), values])

    monkeypatch.setattr(cli, "_render", capture)
    assert cli.main(_EVERY_GROUP[command]) == 0
    for line in cli._TEXT[command].split("\n"):
        for _, field, _, _ in string.Formatter().parse(line):
            assert field is None or any(_looks_up(r, field) for r in records), (command, field)
    for field in cli._CSV[command]:
        assert any(field in r for r in records), (command, field)


def _readme_result_keys() -> dict[str, dict[str, str]]:
    """Each command's README result-key table: its CSV cell by key."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tables, command = {}, None
    for line in readme.split("### Result keys", 1)[1].split("\n## ", 1)[0].splitlines():
        if heading := re.match(r"`(\w+)`( \(|:$)", line):
            command = heading[1]
            tables[command] = {}
        elif line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            tables[command][cells[0].strip("`")] = cells[4]
    return tables


@pytest.mark.parametrize("command", sorted(_EVERY_GROUP))
def test_readme_tables_exactly_the_result_keys_and_the_csv_columns(capsys, command):
    documented = _readme_result_keys()[command]
    argv = _EVERY_GROUP[command]
    results = json.loads(outcome(capsys, *argv, "--format", "json")[1])["results"]
    assert sorted(documented) == sorted(results)
    _, header, _ = parse_emitted_csv(outcome(capsys, *argv, "--format", "csv")[1])
    assert (sorted(key for key, csv in documented.items() if csv != "no")
            == sorted(set(header) & set(results)))


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
    first = [outcome(capsys, *argv) for argv in argvs]
    assert first[-1][0] == 2 and "argument --lambda" in first[-1][2]
    again = [outcome(capsys, *argv) for argv in argvs]
    again_reversed = [outcome(capsys, *argv) for argv in reversed(argvs)]
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


def _through_the_top_level_parser(capsys, argv):
    """(exit code, stdout, stderr) of argv parsed whole by the top-level
    parser, which hands a subcommand's arguments on to that command's parser."""
    try:
        args = cli.build_parser().parse_args(cli._with_config(argv))
        code = getattr(cli, f"cmd_{args.command}")(args)
    except SystemExit as exc:
        code = exc.code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv", [
    [], ["--version"], ["-h"], ["bogus"],
    ["error", "--delta", "0.01", "--ksigma", "1", "--bogus", "x"],
    ["error", "--delta", "0.01", "--", "--ksigma", "1"],
    ["entangle", "--delta", "0.01", "--Sigma", "1", "--k", "-1e3"],
    ["error", "--config", "lambda.cfg", "--lambda", "0.5", "--format", "json"],
    ["verify", "--tol", "schmidt_f0=1e-5"],
    ["error", "--delta", "0.01", "--=x"],
    ["error", "--delta", "0.01", "--", "--=x"],
    ["thermal", "--T", "300", "--co", "lambda.cfg"],
    ["error", "-h", "--config", "missing.cfg"],
], ids=lambda argv: " ".join(argv) or "no argv")
def test_main_answers_as_the_top_level_parser_does(tmp_path, capsys, monkeypatch, argv):
    """main reads a known subcommand's arguments with that command's parser
    alone; every exit code, output and message stays the top-level parser's."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lambda.cfg").write_text("delta=0.01\nlambda=1\nksigma=0\n")
    want = _through_the_top_level_parser(capsys, argv)
    assert outcome(capsys, *argv) == want


def _rounded_as_before(doc):
    """doc as format_json rounded it before json.dumps wrote it: each float
    to 12 significant digits, a non-finite one to None, a tuple to a list."""
    if isinstance(doc, dict):
        return {k: _rounded_as_before(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_rounded_as_before(v) for v in doc]
    if isinstance(doc, float):
        return float(f"{doc:.12g}") if math.isfinite(doc) else None
    return doc


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308,
                # halves and nines at the 12th significant digit
                0.1234567890125, 9.9999999999995, 999999999999.5, 1.0000000000005e-7]
_JSON_LEAVES = (st.floats() | st.sampled_from(_EDGE_FLOATS)
                | st.integers() | st.integers(min_value=2**63, max_value=2**200)
                | st.booleans() | st.none()
                | st.text(max_size=8) | st.sampled_from(["\x00\x1f\x7f\t\n", "é ∞ 😀 \ud800", '"\\/']))
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(params=st.dictionaries(st.text(max_size=8), _JSON_DOCS, max_size=3),
       results=st.dictionaries(st.text(max_size=8), _JSON_DOCS, max_size=3),
       checks=st.lists(st.dictionaries(st.text(max_size=8), _JSON_DOCS, max_size=3),
                       max_size=2))
def test_format_json_writes_what_json_dumps_wrote(params, results, checks):
    want = json.dumps(_rounded_as_before({"params": params, "results": results,
                                          "checks": checks}), indent=2, sort_keys=True)
    assert cli.format_json(params, results, checks) == want + "\n"


@pytest.mark.parametrize("value", [{1, 2}, b"x", 1j, np.int64(3)])
def test_format_json_refuses_what_json_cannot_write(value):
    with pytest.raises(TypeError):
        json.dumps(_rounded_as_before({"results": {"x": [value]}}))
    with pytest.raises(TypeError, match="is not JSON serializable"):
        cli.format_json({}, {"x": [value]}, [])


@pytest.mark.parametrize("grid", ["0", "1", "2", "4", "-3"])
def test_verify_grid_below_five_exits_2_with_a_message(capsys, grid):
    code, out, err = run_cli(capsys, "verify", "--grid", grid)
    assert code == 2 and out == ""
    assert err == (f"error: --grid out of range: grid must have at least 5 points per "
                   f"axis, got {grid}: the checks compare 5 spectrum levels\n")


@pytest.mark.parametrize("command", [
    ["entangle", "--delta", "0.01", "--Sigma", "1"],
    ["verify"],
])
def test_a_grid_over_the_sample_cap_exits_2_naming_grid(capsys, monkeypatch, command):
    """--grid 100000 asks the SVD for 160 GB and is refused before any check
    or sample runs; a monkeypatched cap moves the edge."""
    ran = []
    monkeypatch.setattr(checks, "_CHECKS", [
        lambda grid_n: ran.append(grid_n) or checks._result("spy", 1.0, 0.0, "")])
    code, out, err = run_cli(capsys, *command, "--grid", "100000")
    assert code == 2 and out == "" and ran == []
    assert err == ("error: --grid out of range: a 100000 x 100000 sample takes "
                   "160000000000 bytes, more than the 1073741824 bytes of "
                   "oracles.MAX_SAMPLE_BYTES\n")
    monkeypatch.setattr(oracles, "MAX_SAMPLE_BYTES", 16 * 64 * 64)
    code, _, err = run_cli(capsys, *command, "--grid", "65")
    assert code == 2 and err.startswith("error: --grid out of range: a 65 x 65 sample")
    code, _, err = run_cli(capsys, *command, "--grid", "64")
    assert code == 0 and err == "" and ran == ([64] if command == ["verify"] else [])


def test_an_error_grid_over_the_sample_cap_exits_2_naming_grid(capsys, monkeypatch):
    """error --grid 100000 would compute 10^10 quadrature samples, about 14
    minutes of work: it is refused before any is sampled, at the same byte
    cap as the SVD, and a monkeypatched cap moves the edge."""
    argv = ["error", "--delta", "0.01", "--ksigma", "1", "--grid"]
    sampled = []
    envelope = PostCollisionState.two_body_envelope
    monkeypatch.setattr(PostCollisionState, "two_body_envelope",
                        lambda self, x, X: sampled.append(1) or envelope(self, x, X))
    code, out, err = run_cli(capsys, *argv, "100000")
    assert code == 2 and out == "" and sampled == []
    assert err == ("error: --grid out of range: a 100000 x 100000 sample takes "
                   "160000000000 bytes, more than the 1073741824 bytes of "
                   "oracles.MAX_SAMPLE_BYTES\n")
    monkeypatch.setattr(oracles, "MAX_SAMPLE_BYTES", 16 * 64 * 64)
    code, _, err = run_cli(capsys, *argv, "65")
    assert code == 2 and err.startswith("error: --grid out of range: a 65 x 65 sample")
    code, out, err = run_cli(capsys, *argv, "64")
    assert code == 0 and err == "" and "A quadrature" in out and sampled


@pytest.mark.parametrize("Sigma", ["0.5", "auto"])
def test_an_error_grid_integrates_the_given_wall_spread(capsys, monkeypatch, Sigma):
    """error --Sigma S --grid N hands the quadrature a wall of spread S
    exactly: sigma sqrt((S/sigma)^2) is 0.5 + 1 ulp at sigma = 1.9.  So
    does --Sigma auto, with the matched spread."""
    from decoh import entanglement

    states = []
    quadrature = oracles.quadrature_overlap

    def spy(a, b, grid):
        states.append(a)
        return quadrature(a, b, grid)

    monkeypatch.setattr(oracles, "quadrature_overlap", spy)
    code, out, err = run_cli(capsys, "error", "--delta", "0.01", "--sigma", "1.9",
                             "--Sigma", Sigma, "--ksigma", "1", "--grid", "64")
    assert code == 0 and err == "" and len(states) == 1
    expected = 0.5 if Sigma == "0.5" else entanglement.optimal_spreads(
        1.9, collision_params_from_delta(0.01))
    assert states[0].Sigma == expected
    assert 1.9 * math.sqrt((0.5 / 1.9) ** 2) != 0.5


def test_verify_grid_five_runs_every_check(capsys):
    code, out, err = run_cli(capsys, "verify", "--grid", "5", "--format", "json")
    assert code in (0, 1) and err == ""
    assert json.loads(out)["results"]["n_checks"] == 12


@pytest.mark.parametrize("command", [["error", "--delta", "0.01"],
                                     ["entangle", "--delta", "0.01", "--Sigma", "1"]],
                         ids=["error", "entangle"])
def test_k_and_ksigma_exclude_each_other(tmp_path, capsys, command):
    """--k and --ksigma set one momentum: argparse refuses the two together,
    in either order and with --ksigma on a config line, where a config
    file's ksigma once beat a --k given on the command line."""
    code, out, _ = run_cli(capsys, *command, "--ksigma", "3")
    assert code == 0 and ("k=3)" in out if command[0] == "entangle" else "k sigma=3)" in out)
    cfg = tmp_path / "ksigma.cfg"
    cfg.write_text("ksigma=3\n")
    for flags, later, first in [(["--k", "5", "--ksigma", "3"], "--ksigma", "--k"),
                                (["--ksigma", "3", "--k", "5"], "--k", "--ksigma"),
                                (["--k", "0", "--ksigma", "3"], "--ksigma", "--k"),
                                (["--k", "5", "--config", str(cfg)], "--k", "--ksigma"),
                                (["--config", str(cfg), "--k", "5"], "--k", "--ksigma")]:
        rejected(capsys, [*command, "--sigma", "2", *flags],
                 f"argument {later}: not allowed with argument {first}")


@pytest.mark.parametrize("k", ["3", "-3"])
def test_error_grid_integrates_the_packet_it_was_given(capsys, monkeypatch, k):
    """error --grid hands the quadrature the packet at the signed --k itself,
    not |k| sigma / sigma (2.9999999999999996 at --k 3 --sigma 0.7)."""
    states = []
    quadrature = oracles.quadrature_overlap
    monkeypatch.setattr(oracles, "quadrature_overlap",
                        lambda a, b, grid: states.append((a, b)) or quadrature(a, b, grid))
    code, _, err = run_cli(capsys, "error", "--delta", "0.01", f"--k={k}", "--sigma", "0.7",
                           "--grid", "16")
    assert code == 0 and err == ""
    [(ideal, post)] = states
    assert isinstance(post, PostCollisionState)
    assert post.k == float(k) and ideal.k == -float(k)


_SIGMA_REFUSED = "--sigma is read only with --k, a numeric --Sigma or --grid"


@pytest.mark.parametrize("wall", [[], ["--lambda", "0.5"], ["--Sigma", "auto"]],
                         ids=["optimum", "lambda", "Sigma-auto"])
@pytest.mark.parametrize("given", ["flag", "config"])
def test_error_refuses_a_sigma_that_sets_nothing(tmp_path, capsys, wall, given):
    """A rests on lambda and k sigma alone: beside --ksigma, with lambda from
    the optimum, --lambda or --Sigma auto and no grid, --sigma exits 2 naming
    itself, as a flag and as a config key, where it once printed the same
    bytes at every value."""
    cfg = tmp_path / "sigma.cfg"
    cfg.write_text("sigma=5\n")
    sigma = ["--sigma", "5"] if given == "flag" else ["--config", str(cfg)]
    rejected(capsys, ["error", "--delta", "0.01", "--ksigma", "1", *wall, *sigma],
             _SIGMA_REFUSED)


_SIGMA_READ_TEXT = """\
overlap error (delta=0.01, k sigma=1)
  lambda      = {lam}
  A           = {A}
  1 - A       = {one_minus_A}
  lambda_max  = 0.00448480641222
  A_max       = 0.987711849784
  regime      = crossover
"""


@pytest.mark.parametrize("read, dropped", [
    (["--k", "2"], ["--ksigma", "1"]),
    (["--ksigma", "1", "--Sigma", "2"], ["--ksigma", "1"]),
    (["--ksigma", "1", "--grid", "16"], ["--ksigma", "1"]),
], ids=["k", "Sigma", "grid"])
def test_error_reads_sigma_with_k_a_numeric_Sigma_or_a_grid(capsys, monkeypatch, read, dropped):
    """--sigma is read where k sigma (--k), lambda ((--Sigma/--sigma)^2) or
    the oracle's packet (--grid) rests on it: each call prints what it
    printed before the refusal, and without what makes it read, exits 2."""
    states = []
    quadrature = oracles.quadrature_overlap
    monkeypatch.setattr(oracles, "quadrature_overlap",
                        lambda a, b, grid: states.append(a) or quadrature(a, b, grid))
    code, out, err = run_cli(capsys, "error", "--delta", "0.01", *read, "--sigma", "0.5")
    assert code == 0 and err == ""
    if "--Sigma" in read:  # lambda = (2 / 0.5)^2
        assert out == _SIGMA_READ_TEXT.format(lam="16", A="0.0372943862705",
                                              one_minus_A="0.96270561373")
    else:
        assert out.startswith(_SIGMA_READ_TEXT.format(
            lam="0.00448480641222", A="0.987711849784", one_minus_A="0.0122881502163"))
    assert [state.sigma for state in states] == ([0.5] if "--grid" in read else [])
    rejected(capsys, ["error", "--delta", "0.01", *dropped, "--sigma", "0.5"], _SIGMA_REFUSED)


@pytest.mark.parametrize("given", ["flag", "config"])
def test_entangle_csv_refuses_n_spectrum(tmp_path, capsys, given):
    """CSV has no spectrum column: --n-spectrum with --format csv exits 2
    naming itself, as a flag and as a config key, where it once printed the
    same bytes as without it.  CSV without it, and text and JSON with it,
    still print."""
    cfg = tmp_path / "spectrum.cfg"
    cfg.write_text("n_spectrum=3\n")
    spectrum = ["--n-spectrum", "3"] if given == "flag" else ["--config", str(cfg)]
    call = ["entangle", "--delta", "0.01", "--Sigma", "1"]
    rejected(capsys, [*call, "--format", "csv", *spectrum],
             "--n-spectrum is not read with --format csv, which prints no spectrum")
    code, out, err = run_cli(capsys, *call, "--format", "csv")
    assert code == 0 and err == "" and "\nD,rho,w,u,F0,measure,matched\n" in out
    code, out, err = run_cli(capsys, *call, *spectrum)
    assert code == 0 and err == "" and "  spectrum = 0.631808, 0.232627, 0.0856513\n" in out
    code, out, err = run_cli(capsys, *call, "--format", "json", *spectrum)
    assert code == 0 and err == "" and len(json.loads(out)["results"]["spectrum"]) == 3


@pytest.mark.parametrize("argv, used", [
    (["--mu-kg", "1e-27"], {"delta": 1e-06, "F0": None}),
    (["--report-length-scale", "--collisions", "5"], {"delta": 1e-06, "F0": 1.0}),
    (["--report-length-scale", "--delta", "0.01", "--collisions", "5", "--F0", "0.5"],
     {"delta": 0.01, "F0": 0.5}),
])
def test_thermal_params_hold_the_delta_and_F0_its_numbers_used(capsys, argv, used):
    """thermal's coefficient uses delta = 1e-6 without --delta, and a budget
    F0 = 1 without --F0: params print both in JSON and CSV, and no F0 where
    no budget is computed."""
    argv = ["thermal", "--T", "1", *argv]
    params = json.loads(run_cli(capsys, *argv, "--format", "json")[1])["params"]
    assert {key: params[key] for key in used} == used
    comments, _, _ = parse_emitted_csv(run_cli(capsys, *argv, "--format", "csv")[1])
    assert f"# delta={used['delta']:g}" in comments
    assert [c for c in comments if c.startswith("# F0=")] == (
        [] if used["F0"] is None else [f"# F0={used['F0']:g}"])


@pytest.mark.parametrize("parameter, base, used", [
    ("delta", ["--start", "0.1", "--stop", "0.2"], {"k_sigma": 0.0}),
    ("delta", ["--start", "0.1", "--stop", "0.2", "--ksigma", "2"], {"k_sigma": 2.0}),
    ("lambda", ["--start", "0.1", "--stop", "1", "--delta", "0.01"],
     {"k_sigma": 0.0, "delta": 0.01}),
    ("lambda", ["--start", "0.1", "--stop", "1", "--delta", "0.01", "--ksigma", "2"],
     {"k_sigma": 2.0, "delta": 0.01}),
    ("T", ["--start", "1", "--stop", "2", "--mu-kg", "1e-27"], {"mu_kg": 1e-27}),
    ("k_sigma", ["--start", "1", "--stop", "2", "--delta", "0.01"], {"delta": 0.01}),
    ("w", ["--start", "1", "--stop", "2"], {}),
])
def test_sweep_params_hold_the_values_its_rows_used(capsys, parameter, base, used):
    """A sweep records in params each value its _SWEEPS entry reads, as its
    rows use it: k sigma (0 without --ksigma), delta and mu_kg."""
    argv = ["sweep", "--parameter", parameter, "--points", "2", *base]
    params = json.loads(run_cli(capsys, *argv, "--format", "json")[1])["params"]
    fixed = {"parameter", "start", "stop", "points", "scale"}
    assert {key: value for key, value in params.items() if key not in fixed} == used
    comments, _, _ = parse_emitted_csv(run_cli(capsys, *argv)[1])
    assert all(f"# {key}={value:g}" in comments for key, value in used.items())


# each sweep parameter's passing call, and the flags its rows read of those
# that only some sweeps read
_SWEEP_CALLS = {
    "lambda": (["--start", "0.1", "--stop", "1", "--delta", "0.01", "--ksigma", "1"],
               {"--m", "--M", "--delta", "--ksigma"}),
    "k_sigma": (["--start", "1", "--stop", "2", "--delta", "0.01"], {"--m", "--M", "--delta"}),
    "delta": (["--start", "0.1", "--stop", "0.2", "--ksigma", "1"], {"--ksigma"}),
    "w": (["--start", "1", "--stop", "2"], set()),
    "T": (["--start", "1", "--stop", "2", "--mu-kg", "1e-27"], {"--mu-kg"}),
}
_SWEEP_FLAG_VALUES = {"--m": "1", "--M": "2", "--delta": "0.3", "--ksigma": "5",
                      "--mu-kg": "1e-27"}
_SWEEP_UNREAD = [(parameter, flag) for parameter, (_, reads) in _SWEEP_CALLS.items()
                 for flag in _SWEEP_FLAG_VALUES if flag not in reads]


@pytest.mark.parametrize("parameter, flag", _SWEEP_UNREAD)
def test_sweep_refuses_each_flag_its_rows_do_not_read(tmp_path, capsys, parameter, flag):
    """A sweep that runs exits 2 once given a flag its rows do not read,
    naming it, on the command line or on a config line alike, where it
    once printed the same table."""
    base, _ = _SWEEP_CALLS[parameter]
    argv = ["sweep", "--parameter", parameter, "--points", "2", *base]
    assert run_cli(capsys, *argv)[0] == 0
    cfg = tmp_path / "unread.cfg"
    cfg.write_text(f"{flag[2:]}={_SWEEP_FLAG_VALUES[flag]}\n")
    message = f"a {parameter} sweep does not read {flag}"
    rejected(capsys, [*argv, flag, _SWEEP_FLAG_VALUES[flag]], message)
    rejected(capsys, [*argv, "--config", str(cfg)], message)


def test_sweep_refuses_an_unread_flag_before_any_other_rule(capsys):
    """The refusal comes first: a lambda sweep without masses, or a log
    delta sweep from -1, names the flag it does not read."""
    rejected(capsys, ["sweep", "--parameter", "lambda", "--start", "1", "--stop", "2",
                      "--points", "2", "--mu-kg", "1e-27"],
             "a lambda sweep does not read --mu-kg")
    rejected(capsys, ["sweep", "--parameter", "delta", "--start", "-1", "--stop", "2",
                      "--points", "2", "--scale", "log", "--delta", "0.3"],
             "a delta sweep does not read --delta")


def test_thermal_refuses_F0_without_collisions(tmp_path, capsys):
    """--F0 sets the collision budget's per-collision F0: without
    --collisions it exits 2 before any length is computed, where it was
    once written into params unread."""
    cfg = tmp_path / "F0.cfg"
    cfg.write_text("F0=0.5\n")
    for argv in (["--F0", "0.5"], ["--config", str(cfg)]):
        rejected(capsys, ["thermal", "--T", "1", "--report-length-scale", *argv],
                 "--F0 is read only with --collisions")
    # the rule comes before the lengths: T = 1e-320 is no normal temperature
    rejected(capsys, ["thermal", "--T", "1e-320", "--mu-kg", "1e-27", "--F0", "0.5"],
             "--F0 is read only with --collisions")


def test_thermal_mass_and_length_scale_exclude_each_other(tmp_path, capsys):
    """--report-length-scale reports the length scale without a mass, so
    argparse refuses it beside --mu-kg, on the command line or a config line."""
    cfg = tmp_path / "mass.cfg"
    cfg.write_text("mu_kg=1e-27\n")
    for flags, later, first in [
            (["--mu-kg", "1e-27", "--report-length-scale"], "--report-length-scale", "--mu-kg"),
            (["--report-length-scale", "--mu-kg", "1e-27"], "--mu-kg", "--report-length-scale"),
            (["--config", str(cfg), "--report-length-scale"], "--report-length-scale",
             "--mu-kg")]:
        rejected(capsys, ["thermal", "--T", "1", *flags],
                 f"argument {later}: not allowed with argument {first}")


def test_entangle_matched_needs_one_eigenvalue(capsys):
    rejected(capsys, ["entangle", "--delta", "0.01", "--Sigma", "auto", "--n-spectrum", "0"],
             "argument --n-spectrum: must be at least 1 and at most 1000000, got 0")


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
    """Positive on error; entangle's SVD needs at least 2 x 2."""
    least = "be at least 2" if command[0] == "entangle" else "be positive"
    rejected(capsys, [*command, "--grid", grid], f"argument --grid: must {least}, got {grid}")


@pytest.mark.parametrize("argv,flag,value", [
    (["error", "--delta", "0.01", "--Sigma", "1", "--sigma", "0"], "--sigma", "0.0"),
    (["error", "--delta", "0.01", "--Sigma", "-1"], "--Sigma", "-1.0"),
    (["entangle", "--delta", "0.01", "--lambda", "-1"], "--lambda", "-1.0"),
])
def test_spreads_and_lambda_must_be_positive(capsys, argv, flag, value):
    got = re.search(rf"error: argument {flag}: must be (a normal )?positive .*, got (\S+)\n$",
                    usage_error(capsys, *argv))
    assert got and float(got[2]) == float(value)


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


def test_config_path_may_start_like_a_negative_number(tmp_path, capsys, monkeypatch):
    """argparse takes -1e3 after --config as its path, so the file is read
    as after `=`, and a missing one exits 2 rather than being skipped."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-1e3").write_text("delta=0.02\n")
    spaced = run_cli(capsys, "error", "--config", "-1e3")
    assert spaced[0] == 0 and spaced[1].startswith("overlap error (delta=0.02, ")
    assert run_cli(capsys, "error", "--config=-1e3") == spaced
    for argv in (["--config", "-.5x"], ["--config=-.5x"]):
        code, out, err = run_cli(capsys, "error", "--delta", "0.01", *argv)
        assert code == 2 and out == ""
        assert err == "error: [Errno 2] No such file or directory: '-.5x'\n"


@pytest.mark.parametrize("command", ["error", "entangle", "thermal"])
def test_config_path_is_read_as_argparse_reads_it(tmp_path, capsys, monkeypatch, command):
    """A --config argument that starts with a short option and holds a
    space: argparse reads -v x and -h x as an option, so --config lacks its
    argument, and -x y or -1 x as a path; _with_config splices the file in
    exactly when argparse reads a path."""
    monkeypatch.chdir(tmp_path)
    base = [command, "--delta", "0.01"]
    for path in ("-v x", "-h x", "-vx y", "-v=x y", "--delta=1 x", "-x y", "-1 x", "-. x"):
        (tmp_path / path).write_text("format=json\n")
        argv = [*base, "--config", path]
        try:
            cli.build_parser().parse_args(argv)
            as_path = True
        except SystemExit:
            as_path = False
        capsys.readouterr()
        assert (cli._with_config(argv) != argv) == as_path, (command, path)
    err = usage_error(capsys, "error", "--delta", "0.01", "--config", "-v x")
    assert err.endswith("argument --config: expected one argument\n")


_MAX = repr(sys.float_info.max)
_SQRT_MAX = repr(math.sqrt(sys.float_info.max))
_PAST_SQRT_MAX = repr(math.nextafter(math.sqrt(sys.float_info.max), math.inf))
_POSITIVE_EDGES = [("5e-324", "0"), (_MAX, "inf")]
# per cli.DOMAINS entry a flag reads: (just inside, just outside) each edge
_EDGES = {
    "m": _POSITIVE_EDGES,
    "M": _POSITIVE_EDGES,
    "delta": [("5e-324", "0"), ("0.9999999999999999", "1")],
    "sigma": _POSITIVE_EDGES,
    "Sigma": _POSITIVE_EDGES,
    "lambda": [("2.2250738585072014e-308", "2.225073858507201e-308"), (_MAX, "inf")],
    "k_sigma": [("0", "-5e-324"), (_SQRT_MAX, _PAST_SQRT_MAX)],
    "signed k_sigma": [(f"-{_SQRT_MAX}", f"-{_PAST_SQRT_MAX}"), (_SQRT_MAX, _PAST_SQRT_MAX)],
    "T": _POSITIVE_EDGES,
    "mu_kg": _POSITIVE_EDGES,
    "grid": [("1", "0")],
    "SVD grid": [("2", "1")],
    "n_spectrum": [("1", "0"), ("1000000", "1000001")],
    "points": [("2", "1"), ("1000000", "1000001")],
    "collisions": [("0", "-1"),
                   (str(int(sys.float_info.max)), str(int(sys.float_info.max) + 1))],
    "F0": [("5e-324", "0"), ("1", "1.0000000000000002")],
}
_COMMAND_FLAGS = {
    "error": {"--m": "m", "--M": "M", "--delta": "delta", "--sigma": "sigma",
              "--Sigma": "Sigma", "--lambda": "lambda", "--ksigma": "k_sigma",
              "--grid": "grid"},
    "entangle": {"--m": "m", "--M": "M", "--delta": "delta", "--sigma": "sigma",
                 "--Sigma": "Sigma", "--lambda": "lambda", "--ksigma": "signed k_sigma",
                 "--grid": "SVD grid", "--n-spectrum": "n_spectrum"},
    "sweep": {"--m": "m", "--M": "M", "--delta": "delta", "--ksigma": "k_sigma",
              "--points": "points", "--mu-kg": "mu_kg"},
    "thermal": {"--mu-kg": "mu_kg", "--T": "T", "--delta": "delta",
                "--collisions": "collisions", "--F0": "F0"},
}
_SWEEP_REQUIRED = {"--parameter": "w", "--start": "1", "--stop": "2", "--points": "3"}


def _required(command, flag):
    """command and the flags argparse requires of it, but flag: a flag given
    on the command line would beat its config line."""
    pairs = _SWEEP_REQUIRED.items() if command == "sweep" else ()
    return [command, *(part for pair in pairs if pair[0] != flag for part in pair)]


def test_the_edge_table_covers_every_domain_a_flag_reads():
    """Every DOMAINS entry but w, which only a sweep's ends read, is a flag's."""
    used = {q for flags in _COMMAND_FLAGS.values() for q in flags.values()}
    assert used == set(_EDGES) == set(cli.DOMAINS) - {"w"}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in _COMMAND_FLAGS.items() for flag in flags])
def test_each_flag_takes_its_domain_and_nothing_past_an_edge(tmp_path, capsys, command, flag):
    """Each flag's DOMAINS entry is checked where argparse reads the value,
    on the command line and on a --config line alike, whether or not the
    command reads the flag: a value just inside an edge parses, and one just
    outside exits 2 naming the flag and the value, before any command rule."""
    quantity = _COMMAND_FLAGS[command][flag]
    kind = int if quantity in ("grid", "SVD grid", "n_spectrum", "points", "collisions") else float
    dest = {"--lambda": "lambda_"}.get(flag, flag[2:].replace("-", "_"))
    base = _required(command, flag)
    cfg = tmp_path / "edge.cfg"
    for inside, outside in _EDGES[quantity]:
        cfg.write_text(f"{flag[2:]}={inside}\n")
        for argv in ([*base, flag, inside], [*base, "--config", str(cfg)]):
            args = cli.build_parser().parse_args(cli._with_config(argv))
            assert getattr(args, dest) == kind(inside), argv
        cfg.write_text(f"{flag[2:]}={outside}\n")
        for argv in ([*base, flag, outside], [*base, "--config", str(cfg)]):
            err = usage_error(capsys, *argv)
            assert err.endswith(f"\ndecoh {command}: error: argument {flag}: "
                                f"must {cli.DOMAINS[quantity][0]}, got {outside}\n"), argv


@pytest.mark.parametrize("argv, message", [
    pytest.param(["error", "--delta", "0.01", "--Sigma", "1e160"],
                 f"(--Sigma/--sigma)^2 out of range: lambda = inf, {_NOT_NORMAL}",
                 id="argv0-(--Sigma/--sigma)^2 must be positive and finite, got inf"),
    pytest.param(["error", "--delta", "0.01", "--ksigma", "1e200"],
                 f"argument --ksigma: must {_K_SIGMA}, got 1e200",
                 id="argv1-k sigma must have a finite square, got 1e+200"),
    (["entangle", "--delta", "0.01", "--Sigma", "1e200"],
     f"--Sigma out of range: wall spread 1e+200 {_OUT_OF_RANGE.format('wall')}"),
    pytest.param(["sweep", "--parameter", "lambda", "--start", "0.1", "--stop", "1",
                  "--points", "3", "--delta", "0.01", "--ksigma", "1e200"],
                 f"argument --ksigma: must {_K_SIGMA}, got 1e200",
                 id="argv3---ksigma must have a finite square, got 1e+200"),
    (["entangle", "--delta", "0.01", "--Sigma", "1e-200"],
     f"--Sigma out of range: wall spread 1e-200 {_OUT_OF_RANGE.format('wall')}"),
    pytest.param(["error", "--delta", "0.01", "--Sigma", "abc"],
                 "argument --Sigma: invalid float or 'auto' value: 'abc'",
                 id="argv5---Sigma must be a number or 'auto', got 'abc'"),
    pytest.param(["entangle", "--delta", "0.01", "--Sigma", "1", "--grid", "1"],
                 "argument --grid: must be at least 2, got 1",
                 id="argv6---grid must be at least 2 on entangle, got 1"),
    pytest.param(["entangle", "--delta", "0.01", "--Sigma", "1", "--n-spectrum", "1000001"],
                 f"argument --n-spectrum: must {_N_SPECTRUM}, got 1000001",
                 id="argv7---n-spectrum must be at most 1000000, got 1000001"),
    pytest.param(["entangle", "--delta", "0.01", "--Sigma", "1",
                  "--n-spectrum", "100000000000"],
                 f"argument --n-spectrum: must {_N_SPECTRUM}, got 100000000000",
                 id="argv8---n-spectrum must be at most 1000000, got 100000000000"),
    pytest.param(["entangle", "--delta", "0.01", "--Sigma", "1", "--n-spectrum", "0"],
                 f"argument --n-spectrum: must {_N_SPECTRUM}, got 0",
                 id="argv9---n-spectrum must be at least 1, got 0"),
    pytest.param(["entangle", "--delta", "0.01", "--Sigma", "1", "--n-spectrum", "-1"],
                 f"argument --n-spectrum: must {_N_SPECTRUM}, got -1",
                 id="argv10---n-spectrum must be at least 1, got -1"),
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
    pytest.param(["error", "--delta", "0.01", "--ksigma", "1", "--lambda", "1e-320"],
                 f"argument --lambda: must {_NORMAL}, got 1e-320",
                 id=f"argv14---lambda out of range: lambda = 9.99989e-321, {_NOT_NORMAL}"),
    (["error", "--delta", "0.01", "--ksigma", "1", "--Sigma", "1e-160"],
     f"(--Sigma/--sigma)^2 out of range: lambda = 9.99989e-321, {_NOT_NORMAL}"),
    pytest.param(["entangle", "--delta", "0.01", "--lambda", "1e-320"],
                 f"argument --lambda: must {_NORMAL}, got 1e-320",
                 id=f"argv16---lambda out of range: lambda = 9.99989e-321, {_NOT_NORMAL}"),
    pytest.param(["sweep", "--parameter", "lambda", "--start", "1e-320", "--stop", "1",
                  "--points", "3", "--delta", "0.01"],
                 f"--start must {_NORMAL} for a lambda sweep, got 1e-320",
                 id=f"argv17---start out of range: lambda = 9.99989e-321, {_NOT_NORMAL}"),
    pytest.param(["sweep", "--parameter", "lambda", "--start", "1", "--stop", "1e-320",
                  "--points", "3", "--delta", "0.01"],
                 f"--stop must {_NORMAL} for a lambda sweep, got 1e-320",
                 id=f"argv18---stop out of range: lambda = 9.99989e-321, {_NOT_NORMAL}"),
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
    # a sweep holds every row until it writes the table
    pytest.param(["sweep", "--parameter", "w", "--start", "1", "--stop", "2",
                  "--points", "1000001"],
                 f"argument --points: must {_POINTS}, got 1000001",
                 id="argv34---points must be at most 1000000, got 1000001"),
    pytest.param(["sweep", "--parameter", "w", "--start", "1", "--stop", "2",
                  "--points", "1000000000000"],
                 f"argument --points: must {_POINTS}, got 1000000000000",
                 id="argv35---points must be at most 1000000, got 1000000000000"),
])
def test_out_of_range_input_exits_2_with_a_message(capsys, argv, message):
    """Squares that overflow or underflow a float, a subnormal lambda, a
    --Sigma that is not a number, a one-point SVD grid, a spectrum longer
    than 10^6 (10^11 eigenvalues would be an 800 GB array), a sweep of more
    than 10^6 points (10^12 asked numpy for 7.28 TiB), a spread out of
    range and a mass fraction too small for the optimum's bracket end in a
    message naming its flags, not a traceback; a sweep checks before its
    first row.  A case whose message changed keeps its test id."""
    rejected(capsys, argv, message)


def test_entangle_grid_is_exactly_n_by_n(capsys, monkeypatch):
    """--grid 64 at k = 1e6 samples 64 x 64 points, where a grid grown to
    resolve the phase would need petabytes; the phase is a diagonal unitary
    on each side of the sampled matrix, so the SVD still matches F0."""
    from decoh import oracles

    shapes = []
    svd = oracles.schmidt_decompose

    def spy(state, n=None):
        res = svd(state, n=n)
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
    pytest.param(["thermal", "--mu-kg", "-1", "--T", "300"],
                 f"argument --mu-kg: must {_POSITIVE}, got -1",
                 id="argv0---mu-kg must be positive and finite, got -1.0"),
    pytest.param(["thermal", "--mu-kg", "1e-27", "--T", "-1"],
                 f"argument --T: must {_POSITIVE}, got -1",
                 id="argv1---T must be positive and finite, got -1.0"),
    pytest.param(["thermal", "--T", "-1", "--report-length-scale"],
                 f"argument --T: must {_POSITIVE}, got -1",
                 id="argv2---T must be positive and finite, got -1.0"),
    pytest.param(["thermal", "--mu-kg", "1e-27", "--T", "300", "--delta", "2"],
                 "argument --delta: must lie in (0, 1), got 2",
                 id="argv3---delta must lie in (0, 1), got 2.0"),
    pytest.param(["error", "--delta", "2", "--ksigma", "1"],
                 "argument --delta: must lie in (0, 1), got 2",
                 id="argv4---delta must lie in (0, 1), got 2.0"),
    pytest.param(["entangle", "--delta", "0", "--Sigma", "1"],
                 "argument --delta: must lie in (0, 1), got 0",
                 id="argv5---delta must lie in (0, 1), got 0.0"),
    pytest.param(["error", "--delta", "0.01", "--ksigma", "-1"],
                 f"argument --ksigma: must {_K_SIGMA}, got -1",
                 id="argv6---ksigma must be non-negative, got -1.0"),
    pytest.param(["thermal", "--T", "1", "--report-length-scale", "--F0", "2"],
                 "argument --F0: must lie in (0, 1], got 2",
                 id="argv7---F0 must lie in (0, 1], got 2.0"),
    pytest.param(["thermal", "--T", "1", "--report-length-scale", "--F0", "0"],
                 "argument --F0: must lie in (0, 1], got 0",
                 id="argv8---F0 must lie in (0, 1], got 0.0"),
    pytest.param(["thermal", "--T", "1", "--report-length-scale", "--collisions", "3",
                  "--F0", "2"],
                 "argument --F0: must lie in (0, 1], got 2",
                 id="argv9---F0 must lie in (0, 1], got 2.0"),
    pytest.param(["error", "--m", "0", "--M", "1"],
                 f"argument --m: must {_POSITIVE}, got 0",
                 id="argv10---m must be positive and finite, got 0.0"),
    pytest.param(["error", "--m", "1", "--M", "-1"],
                 f"argument --M: must {_POSITIVE}, got -1",
                 id="argv11---M must be positive and finite, got -1.0"),
    pytest.param(["thermal", "--T", "1", "--report-length-scale", "--collisions", "-3"],
                 f"argument --collisions: must {_COLLISIONS}, got -3",
                 id="argv12---collisions must be non-negative, got -3"),
    pytest.param(["sweep", "--parameter", "delta", "--start", "0.01", "--stop", "0.1",
                  "--points", "3", "--ksigma", "-1"],
                 f"argument --ksigma: must {_K_SIGMA}, got -1",
                 id="argv13---ksigma must be non-negative, got -1.0"),
    pytest.param(["sweep", "--parameter", "lambda", "--start", "0.1", "--stop", "1",
                  "--points", "3", "--delta", "0.01", "--ksigma", "-1"],
                 f"argument --ksigma: must {_K_SIGMA}, got -1",
                 id="argv14---ksigma must be non-negative, got -1.0"),
    (["sweep", "--parameter", "k_sigma", "--start", "-1", "--stop", "1", "--points", "3",
      "--delta", "0.01"],
     "--start must be non-negative with a finite square for a k_sigma sweep, got -1.0"),
    (["sweep", "--parameter", "k_sigma", "--start", "1", "--stop", "1e200", "--points", "3",
      "--delta", "0.01"],
     "--stop must be non-negative with a finite square for a k_sigma sweep, got 1e+200"),
    pytest.param(["sweep", "--parameter", "lambda", "--start", "-1", "--stop", "1",
                  "--points", "3", "--delta", "0.01"],
                 f"--start must {_NORMAL} for a lambda sweep, got -1.0",
                 id="argv17---start must be positive and finite for a lambda sweep, got -1.0"),
    (["sweep", "--parameter", "delta", "--start", "0", "--stop", "0.5", "--points", "3"],
     "--start must lie in (0, 1) for a delta sweep, got 0.0"),
    (["sweep", "--parameter", "delta", "--start", "0.1", "--stop", "1", "--points", "3"],
     "--stop must lie in (0, 1) for a delta sweep, got 1.0"),
    (["sweep", "--parameter", "w", "--start", "-1", "--stop", "1", "--points", "3"],
     "--start must be non-negative and finite for a w sweep, got -1.0"),
    (["sweep", "--parameter", "T", "--start", "-1", "--stop", "1", "--points", "3",
      "--mu-kg", "1e-27"], "--start must be positive and finite for a T sweep, got -1.0"),
    pytest.param(["sweep", "--parameter", "T", "--start", "1", "--stop", "2", "--points", "3",
                  "--mu-kg", "-1"],
                 f"argument --mu-kg: must {_POSITIVE}, got -1",
                 id="argv22---mu-kg must be positive and finite, got -1.0"),
    pytest.param(["thermal", "--T", "1", "--report-length-scale",
                  "--collisions", "1" + "0" * 309],
                 f"argument --collisions: must {_COLLISIONS}, got 1{'0' * 309}",
                 id=f"argv23---collisions must be at most {sys.float_info.max:g}"),
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
    it; --F0 is checked whether or not --collisions is given.  A case whose
    message changed keeps its test id."""
    rejected(capsys, argv, message)


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
    pytest.param(["thermal", "--mu-kg", "1e-300", "--T", "1e-300", "--delta", "2"],
                 "argument --delta: must lie in (0, 1), got 2",
                 id="argv9---delta must lie in (0, 1), got 2.0"),
])
def test_thermal_lengths_outside_the_normal_range_exit_2(capsys, argv, message):
    """A reported length, or a product behind it, that is zero, subnormal or
    infinite exits 2 naming its flags, not with a traceback, a 0 or a nan."""
    rejected(capsys, argv, message)


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


# what sets OpenBLAS's thread count, in the order OpenBLAS reads it
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("args", [
    "entangle --delta 0.01 --Sigma 1 --k 0.5 --grid 256",
    "error --delta 0.01 --ksigma 1 --grid 512",
    "verify",
    "verify --grid 512",
])
def test_one_blas_thread_prints_the_same_bytes(args):
    """The oracles run their BLAS work on one OpenBLAS thread, so a process
    that starts with OPENBLAS_NUM_THREADS=1 prints the same JSON bytes as
    one that starts with OpenBLAS's default count."""
    env = {key: value for key, value in os.environ.items() if key not in _BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    default, one = (
        subprocess.run([sys.executable, "-m", "decoh", *args.split(), "--format", "json"],
                       capture_output=True, env=blas_env, check=True).stdout
        for blas_env in (env, {**env, "OPENBLAS_NUM_THREADS": "1"}))
    assert default == one


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
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _SerialPool)
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
    entangle."""
    for argv, k in ((["--k=-1e3"], "-1000"), (["--ksigma", "-3", "--sigma", "2"], "-1.5")):
        code, out, _ = run_cli(capsys, "entangle", "--delta", "0.01", "--Sigma", "1", *argv)
        assert code == 0 and f", k={k})\n" in out


@pytest.mark.parametrize("argv, option, message", [
    (["entangle", "--delta", "0.01", "--Sigma", "1"], ["--k", "-1e3"], None),
    (["entangle", "--delta", "0.01", "--Sigma", "1"], ["--ksigma", "-1E-2"], None),
    pytest.param(["error", "--delta", "0.01"], ["--ksigma", "-1e3"],
                 "argument --ksigma: must be non-negative",
                 id="argv2-option2---ksigma must be non-negative"),
    (["sweep", "--parameter", "k_sigma", "--stop", "1", "--points", "3", "--delta", "0.01"],
     ["--start", "-1e-3"], "--start must be non-negative"),
])
def test_a_negative_number_in_exponent_form_is_a_value(capsys, argv, option, message):
    """argparse alone takes -1e3 for an option and exits 2 with `expected
    one argument`; every flag takes it as its value, the same as after `=`,
    and the flag's domain or the command's own range check then speaks."""
    code, out, err = outcome(capsys, *argv, *option)
    assert outcome(capsys, *argv, "=".join(option)) == (code, out, err)
    if message is None:
        assert code == 0 and err == ""
    else:
        assert code == 2 and out == "" and f"error: {message}" in err


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
                 ["error", "--delta", "0.01", "--ksigma", "1", "--sigma", "1e-160",
                  "--Sigma", "1e-160"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv

