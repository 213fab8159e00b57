"""Every line of tools/cli_invocations.txt prints what
tools/cli_transcript.txt records, and each help line names its options.

An intended output change is a regenerated transcript
(`python tools/cli_transcript.py`) in the same change, so its diff shows
every printed number that moved.

The usage lines in the transcript are argparse's as Python 3.10 and 3.11
wrap them at COLUMNS=80; Python 3.13 wraps `sweep`'s usage at another
place, so the blocks that print it (`sweep --parameter w`, for one) differ
there.
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


def test_a_regeneration_keeps_each_block_that_moved_only_within_its_bands():
    """A banded digit's move keeps the committed block, a change outside
    the bands takes the fresh one, and a new invocation is written."""
    tool = _tool()
    head = "# header\n"
    banded = "$ decoh error --grid 8\nexit 0\nstdout\n| A = {~A_quadrature %s}\n"
    plain = "$ decoh thermal --T %s\nexit 0\nstdout\n| %s\n"
    committed = "\n".join([head, banded % "0.5", plain % (1, "a"), plain % (2, "b")])
    fresh = "\n".join([head, banded % "0.500000000000001", plain % (1, "c"),
                        plain % (2, "b"), plain % (3, "d")])
    assert tool.merge(committed, fresh) == "\n".join(
        [head, banded % "0.5", plain % (1, "c"), plain % (2, "b"), plain % (3, "d")])
    assert tool.merge(committed, committed) == committed
    assert tool.merge("", fresh) == fresh
