"""decoh benchmark: a closed-loop load generator with one client, in-process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,query,verify} --seed N \
        --seconds S --trace {0,1}

The client calls ``decoh.cli.main(argv)`` on argv lists generated from the
seed (workloads.py), one call after another, and checks every call against
an independent reference (reference.py).  With ``--trace 0`` it prints the
end-to-end metrics.  With ``--trace 1`` it runs the same calls untraced and
then traced (tracer.py), requires both runs to print the same bytes, and
prints the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  README.md
explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from reference import check, is_known  # noqa: E402

SETUP_RUNS = 31
# wall seconds of one set-up sample on the reference machine (README.md)
SETUP_SAMPLE_SECONDS = 0.25
IMPORTTIME_RUNS = 5
OUT_DIR = HERE / "out"
# at least one call, and about this long
WARMUP_SECONDS = 1.0
WARMUP_SEED_OFFSET = 10**6
# a run stops after the cycle that passes this multiple of --seconds, so a
# far slower program still ends in time; it then makes fewer calls
TIME_CAP = 2.0

E2E_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_p99_ms": "ms", "ops_per_s": "1/s",
             "rows_per_s": "1/s", "peak_rss_mb": "MB"}


# ------------------------------------------------------------ environment


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git checkout."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("DECOH_NUM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: os.environ.get(k) for k in thread_vars},
        "git_commit": git_commit(root),
        # informational: tracked by the roadmap, not a gated metric
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (root / "src").rglob("*.py")),
    }


# ------------------------------------------------------------ set-up


def _fresh_import(src: Path, importtime: bool) -> tuple[float, str]:
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        "-c", "import decoh.cli"]
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return time.perf_counter() - t0, proc.stderr


class SetupSampler:
    """Wall times of fresh interpreters that import decoh.cli, taken between
    calls so that the samples spread over the whole run."""

    def __init__(self, src: Path) -> None:
        self.src = src
        self.samples: list[float] = []

    def catch_up(self, fraction: float) -> None:
        """Take samples until `fraction` of the SETUP_RUNS are taken."""
        while len(self.samples) < min(SETUP_RUNS, math.ceil(fraction * SETUP_RUNS)):
            self.samples.append(_fresh_import(self.src, False)[0])

    def median(self) -> float:
        self.catch_up(1.0)
        return statistics.median(self.samples)


def import_self_ms(src: Path) -> dict[str, float]:
    """Median summed self import time of numpy.* and decoh.* modules."""
    samples: dict[str, list[float]] = {"numpy": [], "decoh": []}
    for _ in range(IMPORTTIME_RUNS):
        totals: Counter = Counter()
        for line in _fresh_import(src, True)[1].splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = (p.strip() for p in line[len("import time:"):].split("|"))
            totals[name.split(".")[0]] += int(self_us) / 1e3
        for top in samples:
            samples[top].append(totals[top])
    return {f"setup.{top}_import_ms": statistics.median(v) for top, v in samples.items()}


# ------------------------------------------------------------ the client


@dataclass(frozen=True, slots=True)
class Record:
    """One measured call: its wall time, a digest of everything it printed,
    the reasons it failed (empty if it passed) and its result rows."""

    call: workloads.Call
    seconds: float
    digest: str
    reasons: list
    rows: int


def invoke(main, call, tracer=None):
    """One call of main(argv); returns (seconds, code, stdout, stderr, exception)."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    root = tracer.call() if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), root:
        t0 = time.perf_counter()
        try:
            code = main(list(call.argv))
        except SystemExit as e:
            code = e.code
        except Exception as e:  # an escaped exception is a failed call, not a crash
            exc = f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
    return seconds, code, out.getvalue(), err.getvalue(), exc


def run_calls(main, calls, n_cycles: int, cycle: int, tracer=None,
              setup: SetupSampler | None = None,
              cap_seconds: float = math.inf) -> list[Record]:
    """Closed loop over `n_cycles` whole cycles of calls, each checked after
    it returns.

    The number of calls is fixed, so a seed gives the same calls, and the
    same failures, on every machine.  The loop stops early only after the
    cycle that passes `cap_seconds`, or when a finite `calls` runs out.
    Between cycles `setup` takes its samples in step with the cycles done.
    """
    records: list[Record] = []
    calls = iter(calls)
    t0 = time.perf_counter()
    for done in range(n_cycles):
        if setup is not None:
            setup.catch_up(done / n_cycles)
        if done and time.perf_counter() - t0 > cap_seconds:
            emit(f"time cap: stopped after {done} of {n_cycles} cycles")
            break
        batch = [c for _, c in zip(range(cycle), calls)]
        if not batch:
            break
        for call in batch:
            dt, code, out, err, exc = invoke(main, call, tracer)
            reasons, rows = check(call, code, out, err, exc)
            digest = hashlib.sha256(repr((code, out, err, exc)).encode()).hexdigest()
            records.append(Record(call, dt, digest, reasons, rows))
    return records


def cycles_for(workload: str, seconds: float) -> int:
    """Whole cycles that take about `seconds` on the reference machine."""
    return max(1, round(seconds / workloads.CYCLE_SECONDS[workload]))


# ------------------------------------------------------------ metrics


def end_to_end(records: list[Record], setup_s: float) -> dict[str, float]:
    times = [r.seconds for r in records]
    busy = sum(times)
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p99_ms": float(np.percentile(times, 99)) * 1e3,
        "ops_per_s": len(times) / busy,
        "rows_per_s": sum(r.rows for r in records) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def failure_summary(records: list[Record]) -> tuple[int, bool, dict]:
    """(failed calls, whether every failure is a known defect, reason counts)."""
    failed = 0
    unknown = False
    reasons: Counter = Counter()
    examples: dict[str, str] = {}
    for r in records:
        if r.reasons:
            failed += 1
        for reason, detail in r.reasons:
            reasons[reason] += 1
            examples.setdefault(reason, f"{' '.join(r.call.argv)} :: {detail}")
            unknown |= not is_known(reason)
    return failed, not unknown, {k: {"calls": v, "example": examples[k]}
                                 for k, v in reasons.items()}


def emit(line: str) -> None:
    print(line, flush=True)


def measure(main, args, src: Path):
    """End-to-end metrics with tracing off.

    Returns (metrics, units, records, outputs_identical) like measure_traced."""
    warm_up(main, args)
    setup = SetupSampler(src)
    n_cycles = cycles_for(args.workload, args.seconds - SETUP_RUNS * SETUP_SAMPLE_SECONDS)
    records = run_calls(main, workloads.calls(args.workload, args.seed), n_cycles,
                        workloads.cycle_length(args.workload), setup=setup,
                        cap_seconds=TIME_CAP * args.seconds)
    return end_to_end(records, setup.median()), E2E_UNITS, records, True


def measure_traced(main, args, src: Path):
    """Per-layer metrics: the same calls untraced, then traced.

    Returns (metrics, units, records, outputs_identical)."""
    from tracer import Tracer, layer_metrics

    setup = import_self_ms(src)
    warm_up(main, args)
    cycle = workloads.cycle_length(args.workload)
    untraced = run_calls(main, workloads.calls(args.workload, args.seed),
                         cycles_for(args.workload, args.seconds / 2), cycle,
                         cap_seconds=TIME_CAP * args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_calls(main, [r.call for r in untraced], len(untraced) // cycle, cycle,
                           tracer)
    finally:
        tracer.uninstall()
    roots = [s for s in tracer.spans if s.name == "cli.main"]
    sweep_roots = {id(s) for s, r in zip(roots, traced) if r.call.kind == "sweep"}
    metrics = layer_metrics(tracer, sweep_roots)
    metrics.update(setup)
    metrics["trace_overhead_frac"] = (statistics.median(r.seconds for r in traced)
                                      / statistics.median(r.seconds for r in untraced) - 1.0)
    records = untraced + traced
    metrics["failed_frac"] = failure_summary(records)[0] / len(records)
    changed = [u.call for u, t in zip(untraced, traced) if u.digest != t.digest]
    for call in changed:
        emit(f"tracing changed the output of: {' '.join(call.argv)}")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    units = {name: layer_unit(name) for name in metrics}
    return metrics, units, records, not changed


def warm_up(main, args) -> None:
    """Calls from a separate stream, neither timed nor counted, so lazy
    imports and first-touch allocations land outside the measurement."""
    run_calls(main, workloads.calls(args.workload, args.seed + WARMUP_SEED_OFFSET),
              cycles_for(args.workload, WARMUP_SECONDS), 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "decoh" / "cli.py").is_file():
        print(f"error: no decoh sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = environment(root)
    emit("env " + json.dumps(env, sort_keys=True))

    import decoh.cli

    run_one = measure_traced if args.trace else measure
    metrics, units, records, identical = run_one(decoh.cli.main, args, src)
    failed, only_known, reasons = failure_summary(records)
    emit(f"workload {args.workload}: seed {args.seed}, {len(records)} calls, "
         f"{failed} failed (failed_frac {failed / len(records):.6g}), "
         f"{'only known defects' if only_known else 'NEW FAILURES'}")
    for reason, info in sorted(reasons.items()):
        emit(f"  failure {reason}: {info['calls']} calls, e.g. {info['example'][:300]}")
    for name, value in metrics.items():
        emit(f"  {name} = {value:.6g} {units[name]}")

    result = {
        "correct": only_known and identical,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    emit(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith(".ms") or name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb_computed"):
        return "MB"
    if name.endswith("ratio") or name.endswith("_frac") or name.endswith("over_wall"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
