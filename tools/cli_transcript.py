"""Write tools/cli_transcript.txt: the exit code, stdout, stderr and written
files of every closed-form line of tools/cli_invocations.txt.

    python tools/cli_transcript.py

A closed-form line runs error, entangle or thermal without --grid: it loads
no numpy and no BLAS, so its bytes rest on Python's math alone.  The -h
lines are left out, because argparse lays help out differently between
Python versions.  Each line runs in process through decoh.cli.main, in a
fresh directory holding a copy of tools/cli_configs/, with COLUMNS=80, as
tools/cli_diff.py runs it in a fresh process; an exception that escapes main
is recorded by its last traceback line, with exit 1.  The script runs the
decoh package of the checkout it sits in.  tests/test_cli_transcript.py
regenerates the transcript in memory and names the first line that differs
from the committed file, so a change to any printed number shows in the
diff of that file.  Standard library only.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "cli_configs"
INVOCATIONS = HERE / "cli_invocations.txt"
TRANSCRIPT = HERE / "cli_transcript.txt"
CLOSED_FORM_COMMANDS = ("error", "entangle", "thermal")


def closed_form_lines(path: Path = INVOCATIONS) -> list[str]:
    """The invocation lines that run a closed form: no --grid and no -h."""
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    kept = []
    for line in lines:
        argv = shlex.split(line) if line and not line.startswith("#") else []
        if (argv and argv[0] in CLOSED_FORM_COMMANDS
                and not any(a in ("-h", "--help") or a.startswith("--grid") for a in argv)):
            kept.append(line)
    return kept


def run(line: str) -> dict[str, str]:
    """Exit code, stdout, stderr and every file written by one invocation."""
    from decoh import cli

    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "run"
        shutil.copytree(CONFIGS, work)
        os.chdir(work)
        os.environ["COLUMNS"] = "80"
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(shlex.split(line))
                except SystemExit as exc:
                    code = exc.code or 0
                except Exception as exc:  # noqa: BLE001 - recorded, as a fresh process shows it
                    code = 1
                    err.write("Traceback ... " + traceback.format_exception_only(exc)[-1])
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
    """The transcript of every closed-form line, as the committed file holds it."""
    lines = ["# Written by tools/cli_transcript.py; regenerate it, do not edit it.",
             "# Each block: `$ decoh ARGS`, the exit code, then each non-empty stream",
             "# and each written file, one line of output per `|` line."]
    for line in closed_form_lines():
        outcome = run(line)
        lines += ["", f"$ decoh {line}", f"exit {outcome.pop('exit').strip()}"]
        for name, text in outcome.items():
            lines += _section(name, text)
    return "\n".join(lines) + "\n"


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    TRANSCRIPT.write_text(transcript(), encoding="utf-8", newline="\n")
    print(f"wrote {TRANSCRIPT.relative_to(HERE.parent)}: "
          f"{len(closed_form_lines())} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
