import pytest

from decoh import checks


def test_unknown_override_name_fails_before_any_check(monkeypatch):
    def must_not_run(grid_n, tol=None):
        raise AssertionError("a check ran before the override names were validated")

    monkeypatch.setattr(checks, "_CHECKS", [must_not_run])
    with pytest.raises(ValueError, match="nope"):
        checks.run_verification(tol_overrides={"nope": 1.0})
