"""The closed-form calls print what tools/cli_transcript.txt records.

An intended output change is a regenerated transcript
(`python tools/cli_transcript.py`) in the same change, so its diff shows
every printed number that moved.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_transcript.py"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_transcript", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_closed_form_calls_match_the_committed_transcript():
    tool = _tool()
    committed = tool.TRANSCRIPT.read_text(encoding="utf-8").splitlines()
    fresh = tool.transcript().splitlines()
    invocation = None
    for number, (want, got) in enumerate(zip(committed, fresh), start=1):
        invocation = want if want.startswith("$ decoh ") else invocation
        assert got == want, (f"{tool.TRANSCRIPT.name} line {number}, in `{invocation}`: "
                             f"committed {want!r}, now {got!r}")
    assert len(fresh) == len(committed), (
        f"{tool.TRANSCRIPT.name} has {len(committed)} lines, the calls now print {len(fresh)}")

