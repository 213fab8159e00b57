"""Every line of tools/cli_invocations.txt prints what
tools/cli_transcript.txt records, and each help line names its options.

An intended output change is a regenerated transcript
(`python tools/cli_transcript.py`) in the same change, so its diff shows
every printed number that moved.
"""

import importlib.util
import re
from pathlib import Path

from decoh import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_transcript.py"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_transcript", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_call_matches_the_committed_transcript():
    tool = _tool()
    difference = tool.first_difference(tool.TRANSCRIPT.read_text(encoding="utf-8"),
                                       tool.transcript())
    assert difference is None, difference


def test_each_help_line_exits_0_naming_every_option_of_its_parser():
    tool = _tool()
    parser, subs = cli._parser()
    help_lines = [line for line in tool.invocations() if tool.prints_help(line)]
    assert sorted(help_lines) == sorted(["-h", *(f"{name} -h" for name in subs)])
    for line in help_lines:
        outcome = tool.run(line)
        assert outcome["exit"] == "0\n" and outcome["stderr"] == "", (line, outcome)
        names = (list(parser._option_string_actions) + list(subs) if line == "-h"
                 else list(subs[line.split()[0]]._option_string_actions))
        for name in names:
            assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", outcome["stdout"]), (
                f"`decoh {line}` does not name {name}")
