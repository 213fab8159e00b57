"""Spans around every call into decoh's layers, recorded from outside.

:meth:`Tracer.install` wraps the public functions of each module (the
modules are the layers) with :func:`functools.wraps`, and replaces each
function wherever it is looked up: in its own module and in every decoh
module that imported it by name, in the list behind ``decoh verify``, on
the three state classes and on ``numpy.polynomial.legendre.leggauss``.
:meth:`Tracer.uninstall` puts every original back.

Each thread keeps its own stack of open spans; a span opened on a thread
with an empty stack (a sweep pool thread) takes the current CLI call as
its parent.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "error_bounds", "entanglement", "kinematics", "oracles",
          "propagation", "thermal", "checks")
CLI_FUNCTIONS = ("build_parser", "format_json", "format_csv", "_sweep_row",
                 "cmd_error", "cmd_entangle", "cmd_sweep", "cmd_verify", "cmd_thermal")
STATE_CLASSES = ("GaussianProductState", "PostCollisionState", "IdealReflectedState")
# called ~56 times per optimum inside the golden-section loop: counted only
COUNT_ONLY = {"error_bounds.overlap_log_inverse_sq"}


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "cpu", "info")

    def __init__(self, name, parent, thread):
        self.name, self.parent, self.thread = name, parent, thread
        self.start = self.end = self.cpu = 0.0
        self.info = None


def _grid_points(result):
    g = result.grid
    return g.nx * g.nX


# what to keep from the arguments and result of particular calls
INFO = {
    "error_bounds.optimal_lambda": lambda a, k, r: (float(a[0]), a[1].delta, r.iterations),
    "oracles.quadrature_overlap.trapezoid": lambda a, k, r: _grid_points(r),
    "oracles.quadrature_overlap.gauss-legendre": lambda a, k, r: _grid_points(r),
    "oracles.schmidt_decompose": lambda a, k, r: _grid_points(r),
    "oracles.hermitian_kernel_eigenvalues": lambda a, k, r: len(a[1]) ** 2,
    "propagation.image_propagate": lambda a, k, r: _grid_points(r),
    "propagation.fft_free_evolve": lambda a, k, r: int(np.size(a[0])),
    "kinematics.state_eval": lambda a, k, r: int(np.size(r)),
    "oracles.leggauss": lambda a, k, r: int(a[0]),
    "checks.check": lambda a, k, r: bool(r.passed),
}


def _quadrature_name(args, kwargs):
    method = kwargs.get("method", args[4] if len(args) > 4 else "trapezoid")
    return f"oracles.quadrature_overlap.{method}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.root: Span | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str | int, object]] = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, info_key=None, cpu=False):
        """Wrap fn in a span; name may be a function of (args, kwargs).
        info_key picks what to keep from the call (default: the span name)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_name = name if isinstance(name, str) else name(args, kwargs)
            span = Span(span_name, stack[-1] if stack else tracer.root, threading.get_ident())
            tracer.spans.append(span)
            stack.append(span)
            cpu0 = time.thread_time() if cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if cpu:
                    span.cpu = time.thread_time() - cpu0
                stack.pop()
            info = INFO.get(info_key or span_name)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def call(self):
        """Root span of one CLI call, on the calling thread."""
        span = Span("cli.main", None, threading.get_ident())
        self.spans.append(span)
        self.root = span
        stack = self._stack()
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.root = None

    # ------------------------------------------------------------ patching

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"decoh.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            names = CLI_FUNCTIONS if layer == "cli" else getattr(mod, "__all__", ())
            for attr in names:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrappers[fn] = self.count(name + ".calls", fn)
                elif name == "oracles.quadrature_overlap":
                    wrappers[fn] = self.wrap(_quadrature_name, fn)
                else:
                    wrappers[fn] = self.wrap(name, fn, cpu=(name == "cli._sweep_row"))
        # every binding of a wrapped function, including `from x import f`
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])

        kin = modules["kinematics"]
        for cls_name in STATE_CLASSES:
            cls = getattr(kin, cls_name)
            self._set(cls, "__call__", self.wrap("kinematics.state_eval", cls.__call__))
        wave = modules["propagation"].GaussianWave2D
        self._set(wave, "evaluate", self.wrap("propagation.GaussianWave2D.evaluate",
                                              wave.evaluate))
        checks = modules["checks"]
        for i, fn in enumerate(checks._CHECKS):
            name = "checks." + fn.__name__.removeprefix("check_")
            checks._CHECKS[i] = self.wrap(name, fn, info_key="checks.check")
            self._undo.append((checks._CHECKS, i, fn))
        self._set(np.polynomial.legendre, "leggauss",
                  self._wrap_leggauss(np.polynomial.legendre.leggauss))

    def _wrap_leggauss(self, fn):
        traced = self.wrap("oracles.leggauss", fn)

        @functools.wraps(fn)
        def leggauss(*args, **kwargs):
            # only calls made from decoh.oracles count as that layer's work
            if sys._getframe(1).f_globals.get("__name__") == "decoh.oracles":
                return traced(*args, **kwargs)
            return fn(*args, **kwargs)

        return leggauss

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(attr, int):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # ------------------------------------------------------------ output

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines: name, parent index,
        thread index, start and duration in microseconds, info."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        threads: dict[int, int] = {}
        t0 = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                row = [s.name, index.get(id(s.parent), -1), threads.setdefault(s.thread, len(threads)),
                       round((s.start - t0) * 1e6, 1), round((s.end - s.start) * 1e6, 1),
                       s.info if isinstance(s.info, (int, float, bool, type(None))) else list(s.info)]
                fh.write(json.dumps(row) + "\n")
            fh.write(json.dumps(["counts", dict(self.counts)]) + "\n")


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(tracer: Tracer, sweep_roots: set[int]) -> dict[str, float]:
    """Per-layer metrics per workload call from the recorded spans.

    sweep_roots holds id() of the root spans of sweep calls, for the pool
    busy-over-wall ratio.
    """
    spans = tracer.spans
    roots = [s for s in spans if s.name == "cli.main"]
    n = max(len(roots), 1)
    ms: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    infos: dict[str, list] = defaultdict(list)
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        ms[s.name] += (s.end - s.start) * 1e3
        calls[s.name] += 1
        if s.info is not None:
            infos[s.name].append(s.info)
        if s.parent is not None:
            children[id(s.parent)].append(s)

    self_ms = 0.0
    busy = wall = 0.0
    for r in roots:
        kids = children[id(r)]
        self_ms += (r.end - r.start - _union_length((k.start, k.end) for k in kids)) * 1e3
        if id(r) in sweep_roots:
            wall += r.end - r.start
            busy += sum(k.cpu for k in kids if k.name == "cli._sweep_row" and k.thread != r.thread)

    def distinct_ratio(values):
        return len(set(values)) / len(values) if values else 0.0

    opt = infos["error_bounds.optimal_lambda"]
    oracle_grids = (infos["oracles.quadrature_overlap.trapezoid"]
                    + infos["oracles.quadrature_overlap.gauss-legendre"]
                    + infos["oracles.schmidt_decompose"]
                    + infos["oracles.hermitian_kernel_eigenvalues"])
    prop_grids = infos["propagation.image_propagate"] + infos["propagation.fft_free_evolve"]
    m = {
        "cli.self.ms": self_ms / n,
        "cli.build_parser.ms": ms["cli.build_parser"] / n,
        "cli.format.ms": (ms["cli.format_json"] + ms["cli.format_csv"]) / n,
        "cli.sweep.busy_over_wall": busy / wall if wall else 0.0,
        "error_bounds.optimal_lambda.ms": ms["error_bounds.optimal_lambda"] / n,
        "error_bounds.optimal_lambda.calls": calls["error_bounds.optimal_lambda"] / n,
        "error_bounds.optimal_lambda.distinct_ratio": distinct_ratio([o[:2] for o in opt]),
        "error_bounds.golden_steps": sum(o[2] for o in opt) / n,
        "error_bounds.overlap_log_inverse_sq.calls":
            tracer.counts["error_bounds.overlap_log_inverse_sq.calls"] / n,
        "error_bounds.error_report.ms": ms["error_bounds.error_report"] / n,
        "entanglement.kernel_params.ms": ms["entanglement.kernel_params"] / n,
        "entanglement.kernel_params.calls": calls["entanglement.kernel_params"] / n,
        "entanglement.largest_eigenvalue.calls": calls["entanglement.largest_eigenvalue"] / n,
        "entanglement.entanglement_report.ms": ms["entanglement.entanglement_report"] / n,
        "entanglement.reduced_kernel_eval.ms": ms["entanglement.reduced_kernel_eval"] / n,
        "kinematics.state_eval.ms": ms["kinematics.state_eval"] / n,
        "kinematics.state_eval.points": sum(infos["kinematics.state_eval"]) / n,
        "oracles.quadrature_overlap.trapezoid.ms": ms["oracles.quadrature_overlap.trapezoid"] / n,
        "oracles.quadrature_overlap.gauss-legendre.ms":
            ms["oracles.quadrature_overlap.gauss-legendre"] / n,
        "oracles.leggauss.ms": ms["oracles.leggauss"] / n,
        "oracles.leggauss.calls": calls["oracles.leggauss"] / n,
        "oracles.leggauss.distinct_ratio": distinct_ratio(infos["oracles.leggauss"]),
        "oracles.schmidt_decompose.ms": ms["oracles.schmidt_decompose"] / n,
        "oracles.kernel_eigensolve.ms": ms["oracles.kernel_eigensolve"] / n,
        "oracles.hermitian_kernel_eigenvalues.ms": ms["oracles.hermitian_kernel_eigenvalues"] / n,
        "oracles.grid_points": sum(oracle_grids) / n,
        "oracles.sample_mb_computed": max(oracle_grids, default=0) * 16 / 1e6,
        "propagation.image_propagate.ms": ms["propagation.image_propagate"] / n,
        "propagation.fft_free_evolve.ms": ms["propagation.fft_free_evolve"] / n,
        "propagation.phase_aligned_l2.ms": ms["propagation.phase_aligned_l2"] / n,
        "propagation.GaussianWave2D.evaluate.ms": ms["propagation.GaussianWave2D.evaluate"] / n,
        "propagation.grid_points": sum(prop_grids) / n,
        "propagation.sample_mb_computed": max(prop_grids, default=0) * 16 / 1e6,
        "thermal.thermal_design.ms": ms["thermal.thermal_design"] / n,
        "thermal.thermal_design.calls": calls["thermal.thermal_design"] / n,
    }
    check_names = importlib.import_module("decoh.checks").CHECK_NAMES
    for name in check_names:
        m[f"checks.{name}.ms"] = ms[f"checks.{name}"] / n
    m["checks.failed"] = sum(1 for name in check_names
                             for ok in infos[f"checks.{name}"] if not ok) / n
    return m
