"""Run a fixed list of decoh invocations under two source trees and print
every one whose exit code, stdout, stderr or written files differ.

    python tools/cli_diff.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the decoh package, such as
the src/ of two checkouts.  The invocations are the lines of
tools/cli_invocations.txt; each runs as `python -m decoh ...`, two at a time,
in a fresh directory holding a copy of tools/cli_configs/, with COLUMNS=80
so help text wraps the same way.  A Python traceback is compared by its
last line only, because its frames name source paths and line numbers.  An
invocation that runs past TIMEOUT_S seconds is killed, and its outcome on
that tree is `timed out after TIMEOUT_S s`, so one slow tree cannot stall
the whole diff.
Exit status: 0 when every invocation matches, 1 when any differs.
Standard library only.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "cli_configs"
INVOCATIONS = HERE / "cli_invocations.txt"
JOBS = 2  # invocations at once: verify holds about 300 MB
TIMEOUT_S = 600  # per invocation, far above what any listed line takes
MAX_DIFF_LINES = 40  # per stream, so a differing 2000-row sweep stays readable


def load_invocations(path: Path) -> list[str]:
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def run(src: Path, line: str) -> dict[str, str]:
    """Exit code, stdout, stderr and every file written by one invocation."""
    argv = [] if line == "." else shlex.split(line)
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "run"
        shutil.copytree(CONFIGS, work)
        try:
            proc = subprocess.run([sys.executable, "-m", "decoh", *argv], cwd=work, env=env,
                                  capture_output=True, text=True, check=False,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"exit": f"timed out after {TIMEOUT_S} s\n"}
        err = proc.stderr
        if "Traceback (most recent call last):" in err:
            err = "Traceback ... " + err.rstrip().splitlines()[-1] + "\n"
        outcome = {"exit": f"{proc.returncode}\n", "stdout": proc.stdout, "stderr": err}
        for path in sorted(work.iterdir()):
            if not (CONFIGS / path.name).exists():
                outcome[f"file {path.name}"] = path.read_text(encoding="utf-8")
    return outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)
    trees = [src.resolve() for src in (args.old_src, args.new_src)]
    for src in trees:
        if not (src / "decoh" / "__main__.py").is_file():
            parser.error(f"{src} holds no decoh package")
    lines = load_invocations(INVOCATIONS)

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        outcomes = list(pool.map(lambda line: [run(src, line) for src in trees], lines))

    differing = 0
    for line, (old, new) in zip(lines, outcomes):
        if old == new:
            continue
        differing += 1
        print(f"=== decoh {line}")
        for key in sorted(old.keys() | new.keys()):
            before, after = old.get(key, ""), new.get(key, "")
            if before == after:
                continue
            diff = list(difflib.unified_diff(before.splitlines(), after.splitlines(),
                                             f"old {key}", f"new {key}", n=1, lineterm=""))
            print("\n".join(diff[:MAX_DIFF_LINES]))
            if len(diff) > MAX_DIFF_LINES:
                print(f"... {len(diff) - MAX_DIFF_LINES} more diff lines")
    print(f"{differing} of {len(lines)} invocations differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
