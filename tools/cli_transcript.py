"""Write tools/cli_transcript.txt: the exit code, stdout, stderr and written
files of every line of tools/cli_invocations.txt that does not print help.

    python tools/cli_transcript.py

A help line is one whose last argument is -h; argparse lays help out
differently between Python versions, so tests/test_cli_transcript.py checks
those lines by the options they name instead.  Each other line runs in
process through decoh.cli.main, in a fresh directory holding a copy of
tools/cli_configs/, with COLUMNS=80; an exception that escapes main is
recorded by its last traceback line, with exit 1, and a Python warning by
its category and message.  The script runs the decoh package of the
checkout it sits in.

The numbers in BANDS rest on BLAS kernels and on numpy's SIMD loops, which
move their last digits from one machine to the next.  The transcript writes
each of them marked, as {~FIELD VALUE}, and first_difference accepts a new
value within its field's band.  Every other byte must match exactly.
tests/test_cli_transcript.py regenerates the transcript in memory and names
the first line or marked number that differs from the committed file, so a
change to any printed number shows in the diff of that file.  A regeneration
keeps each committed block that its fresh text matches within the bands, so
moving to another machine rewrites only the blocks whose output changed.
Standard library only.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shlex
import shutil
import sys
import tempfile
import traceback
import warnings
from decimal import Decimal
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "cli_configs"
INVOCATIONS = HERE / "cli_invocations.txt"
TRANSCRIPT = HERE / "cli_transcript.txt"

# Each number that moves with the machine: the command that prints it, its
# band (a, r) and the text just before it in text output; its JSON key, or
# its column in a CSV table or in a JSON sweep's rows, finds it too.  A new
# value passes when |new - old| <= a + r |old| plus one unit in the twelfth
# significant digit of old.  Each band is about ten times the largest move
# seen on an AVX-512 host (numpy 2.4.6, OpenBLAS 0.3.31) under
# OPENBLAS_CORETYPE=Prescott or Haswell, or with numpy's X86_V4 loops off:
# 1.8e-15 in a deviation (an oracle value moves as much as its deviation
# from the closed form), and 2.6e-8 of lambda_max.
ORACLE = (2e-14, 2e-14)
BANDS = {
    "A_quadrature": ("error", ORACLE, r"A quadrature = "),
    "A_quadrature_deviation": ("error", ORACLE, r"\(deviation "),
    "F0_svd": ("entangle", ORACLE, r"F0 \(SVD oracle\) = "),
    "F0_svd_deviation": ("entangle", ORACLE, r"\(deviation "),
    "svd_norm": ("entangle", ORACLE, r"sampled norm is "),
    "deviation": ("verify", ORACLE, r"deviation="),
    "cross-beta": ("verify", ORACLE, r"cross-beta "),
    # until the optimum has a closed form: its golden-section search turns
    # a last-bit move of a np.geomspace point into one of lambda_max
    "lambda_max": ("sweep", (0.0, 3e-7), None),
}
NUMBER = r"-?(?:\d+(?:\.\d*)?(?:e[-+]?\d+)?|inf|nan|null)"
MARK = re.compile(r"\{~([\w-]+) ([^ }]*)\}")
# what starts each block after the header: no output line starts with "$"
BLOCK = "\n\n$ decoh "


def invocations(path: Path = INVOCATIONS) -> list[str]:
    """The lines of the invocation list, comments and blank lines left out."""
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def prints_help(line: str) -> bool:
    return shlex.split(line)[-1] == "-h"


def run(line: str) -> dict[str, str]:
    """Exit code, stdout, stderr and every file written by one invocation;
    a line holding only `.` runs decoh with no arguments."""
    from decoh import cli

    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "run"
        shutil.copytree(CONFIGS, work)
        os.chdir(work)
        os.environ["COLUMNS"] = "80"
        try:
            with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
                  warnings.catch_warnings(record=True) as caught):
                warnings.simplefilter("default")
                try:
                    code = cli.main([] if line == "." else shlex.split(line))
                except SystemExit as exc:
                    code = exc.code or 0
                except Exception as exc:  # noqa: BLE001 - recorded, as a fresh process shows it
                    code = 1
                    err.write("Traceback ... " + traceback.format_exception_only(exc)[-1])
                for w in caught:
                    err.write(f"Warning ... {w.category.__name__}: {w.message}\n")
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
        outcome = {"exit": f"{code}\n", "stdout": out.getvalue(), "stderr": err.getvalue()}
        for path in sorted(work.iterdir()):
            if not (CONFIGS / path.name).exists():
                outcome[f"file {path.name}"] = path.read_text(encoding="utf-8")
    return outcome


def _marked(field: str, value: str) -> str:
    return f"{{~{field} {value}}}"


def mark(command: str, text: str) -> str:
    """text with each number of a BANDS field of command marked: after its
    text or JSON key, in its CSV column or in its column of JSON sweep rows."""
    fields = {f: prefix for f, (cmd, _, prefix) in BANDS.items() if cmd == command}
    if not fields or not text:
        return text
    if "{~" in text:
        raise ValueError(f"{command} printed the transcript's marker {{~")
    lines = text.split("\n")
    if text.startswith("# version="):  # CSV: comment lines, a header, the rows
        rows = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
        header = lines[rows[0]].split(",")
        for i in rows[1:]:
            cells = lines[i].split(",")
            lines[i] = ",".join(_marked(header[j], c) if j < len(header) and header[j] in fields
                                else c for j, c in enumerate(cells))
    elif text.startswith("{") and '"columns": [' in text:  # JSON sweep rows, a value a line
        columns = json.loads(text)["results"]["columns"]
        values = [i for i, line in enumerate(lines) if line.startswith(" " * 8)]
        for k, i in enumerate(values):
            if (field := columns[k % len(columns)]) in fields:
                lines[i] = re.sub(NUMBER, lambda m: _marked(field, m[0]), lines[i], count=1)
    for field, prefix in fields.items():
        before = f'"{field}": ' + ("" if prefix is None else f"|{prefix}")
        lines = [re.sub(f"({before})({NUMBER})", lambda m: m[1] + _marked(field, m[2]), line)
                 for line in lines]
    return "\n".join(lines)


def _section(name: str, text: str) -> list[str]:
    """A stream as a header and its lines, each behind "| " ("|" alone for an
    empty line), with a marker where the text lacks its last newline."""
    if not text:
        return []
    lines = [name] + [f"| {line}" if line else "|" for line in text.split("\n")[:-1]]
    tail = text.rsplit("\n", 1)[-1]
    if tail:
        lines += [f"| {tail}", "\\ no newline at end"]
    return lines


def transcript() -> str:
    """The transcript of every line but the help lines, as the committed file holds it."""
    lines = ["# Written by tools/cli_transcript.py; regenerate it, do not edit it.",
             "# Each block: `$ decoh ARGS`, the exit code, then each non-empty stream",
             "# and each written file, one line of output per `|` line.  {~FIELD VALUE}",
             "# is a number that may move within FIELD's band in tools/cli_transcript.py."]
    for line in invocations():
        if prints_help(line):
            continue
        outcome = run(line)
        lines += ["", f"$ decoh {line}", f"exit {outcome.pop('exit').strip()}"]
        for name, text in outcome.items():
            lines += _section(name, mark(shlex.split(line)[0], text))
    return "\n".join(lines) + "\n"


def _within_band(field: str, old: str, new: str) -> bool:
    """new within field's band of old, a non-finite value only equal to it."""
    try:
        before, after = float(old), float(new)
    except ValueError:
        return old == new
    if not (math.isfinite(before) and math.isfinite(after)):
        return old == new
    # one unit in the twelfth significant digit, the finest decoh prints
    (a, r), digits = BANDS[field][1], Decimal(old)
    unit = 10.0 ** (digits.adjusted() - 11) if digits else 0.0
    return abs(after - before) <= a + r * abs(before) + unit


def first_difference(committed: str, fresh: str) -> str | None:
    """The first line of fresh that differs from committed outside its marked
    numbers, or the first marked number outside its band; None if neither."""
    old_lines, new_lines = committed.splitlines(), fresh.splitlines()
    invocation = None
    for number, (old, new) in enumerate(zip(old_lines, new_lines), start=1):
        invocation = old if old.startswith("$ decoh ") else invocation
        if old == new:
            continue
        where = f"{TRANSCRIPT.name} line {number}, in `{invocation}`"
        old_parts, new_parts = MARK.split(old), MARK.split(new)
        if len(old_parts) != len(new_parts) or any(
                a != b for k, (a, b) in enumerate(zip(old_parts, new_parts)) if k % 3 != 2):
            return f"{where}: committed {old!r}, now {new!r}"
        for field, a, b in zip(old_parts[1::3], old_parts[2::3], new_parts[2::3]):
            if not _within_band(field, a, b):
                absolute, relative = BANDS[field][1]
                return (f"{where}: {field} committed {a}, now {b}, outside its band "
                        f"{absolute:g} + {relative:g} |old| + one unit in the 12th digit")
    if len(old_lines) != len(new_lines):
        return (f"{TRANSCRIPT.name} has {len(old_lines)} lines, "
                f"the calls now print {len(new_lines)}")
    return None


def merge(committed: str, fresh: str) -> str:
    """fresh, with each block taken as committed where first_difference finds
    the committed block of the same invocation within its bands."""
    old = {block.split("\n", 1)[0]: block for block in committed.rstrip("\n").split(BLOCK)[1:]}

    def kept(block: str) -> str:
        before = old.get(block.split("\n", 1)[0])
        return before if before is not None and first_difference(before, block) is None else block

    head, *blocks = fresh.rstrip("\n").split(BLOCK)
    return BLOCK.join([head, *map(kept, blocks)]) + "\n"


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    committed = TRANSCRIPT.read_text(encoding="utf-8") if TRANSCRIPT.exists() else ""
    TRANSCRIPT.write_text(merge(committed, transcript()), encoding="utf-8", newline="\n")
    count = sum(not prints_help(line) for line in invocations())
    print(f"wrote {TRANSCRIPT.relative_to(HERE.parent)}: {count} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
