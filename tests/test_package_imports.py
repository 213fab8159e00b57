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
])
def test_import_loads_only_its_dependencies(module, expected):
    """Run in a fresh interpreter: this one has imported the whole package."""
    env = {**os.environ, "PYTHONPATH": str(Path(decoh.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", f"import {module}; {LOADED}"],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == expected
