"""Importing one decoh module loads only that module and what it imports:
the package itself re-exports nothing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import decoh

LOADED = "import sys; print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'decoh')))"


@pytest.mark.parametrize("module,expected", [
    ("decoh", ["decoh"]),
    ("decoh.thermal", ["decoh", "decoh.thermal"]),
    ("decoh.error_bounds", ["decoh", "decoh.error_bounds", "decoh.kinematics"]),
    ("decoh.gaussian", ["decoh", "decoh.gaussian"]),
])
def test_import_loads_only_its_dependencies(module, expected):
    """Run in a fresh interpreter: this one has imported the whole package."""
    env = {**os.environ, "PYTHONPATH": str(Path(decoh.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", f"import {module}; {LOADED}"],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == expected



# what only the oracles, verify and sweep need
ARRAY_MODULES = ["numpy", "decoh.oracles", "decoh.checks", "decoh.propagation",
                 "concurrent.futures"]


# one call of each closed-form command, run in text, JSON and CSV
CLOSED_FORM_CALLS = {
    "error": ["error", "--delta", "0.01", "--ksigma", "1"],
    "entangle": ["entangle", "--delta", "0.01", "--Sigma", "0.3", "--k", "2"],
    "thermal": ["thermal", "--T", "1", "--mu-kg", "1e-27", "--collisions", "5", "--F0", "0.9"],
}


@pytest.mark.parametrize("argv", [None] + [
    argv + fmt for argv in CLOSED_FORM_CALLS.values()
    for fmt in ([], ["--format", "json"], ["--format", "csv"])
], ids=["import"] + [name + fmt for name in CLOSED_FORM_CALLS for fmt in ("", "-json", "-csv")])
def test_closed_form_commands_load_no_array_module(argv):
    """A fresh interpreter that imports decoh.cli and runs the command (argv
    None: none) holds none of the modules that only arrays need."""
    env = {**os.environ, "PYTHONPATH": str(Path(decoh.__file__).parents[1])}
    run = "" if argv is None else f"assert decoh.cli.main({argv!r}) == 0; "
    code = (f"import sys, decoh.cli; {run}"
            f"print([m for m in {ARRAY_MODULES!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


GAUSSIAN_FORMS = """
import sys
from decoh import gaussian
from decoh.kinematics import (collision_params, ideal_reflected_state, initial_state,
                              post_collision_state)
s0 = initial_state(0.5, 1.0, 2.0)
for state in (s0, ideal_reflected_state(s0), post_collision_state(s0, collision_params(1.0, 99.0))):
    A, b = state.quadratic_form()
    state.envelope()
    gaussian.inverse(A)
    gaussian.apply(A, b)
    gaussian.congruence(A, b, ((0.0, 1.0), (1.0, 0.0)))
    gaussian.free_flight(A, b, 0j, (1.0, 0.01), 1.5)
    gaussian.moments(A, b)
print("numpy" in sys.modules)
"""


def test_gaussian_forms_load_no_numpy():
    """Every state's quadratic_form() and envelope(), and the form algebra
    applied to them, run in a fresh interpreter without loading numpy, so
    grid-free oracles built on them can run on a closed-form call."""
    env = {**os.environ, "PYTHONPATH": str(Path(decoh.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", GAUSSIAN_FORMS],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "False\n"
