import pytest

from decoh import checks


def test_unknown_override_name_fails_before_any_check(monkeypatch):
    def must_not_run(grid_n, tol=None):
        raise AssertionError("a check ran before the override names were validated")

    monkeypatch.setattr(checks, "_CHECKS", [must_not_run])
    with pytest.raises(ValueError, match="nope"):
        checks.run_verification(tol_overrides={"nope": 1.0})


@pytest.mark.parametrize("grid_n", [0, 1, 4, -3])
def test_grid_below_five_fails_before_any_check(monkeypatch, grid_n):
    def must_not_run(grid_n, tol=None):
        raise AssertionError("a check ran before the grid size was validated")

    monkeypatch.setattr(checks, "_CHECKS", [must_not_run])
    with pytest.raises(ValueError, match="5 spectrum levels"):
        checks.run_verification(grid_n=grid_n)
