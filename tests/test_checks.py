import inspect
import sys
import threading
from collections import Counter

import pytest

from decoh import checks, oracles, propagation


@pytest.mark.parametrize("grid_n", [0, 1, 4, -3])
def test_grid_below_five_fails_before_any_check(monkeypatch, grid_n):
    def must_not_run(grid_n):
        raise AssertionError("a check ran before the grid size was validated")

    monkeypatch.setattr(checks, "_CHECKS", [must_not_run])
    with pytest.raises(ValueError, match="5 spectrum levels"):
        checks.run_verification(grid_n=grid_n)


def test_grid_n_is_every_oracle_grid(monkeypatch):
    """With grid_n = 64 every oracle check samples exactly 64 x 64 points
    (the oscillator and reduced-kernel checks 64 nodes per axis); only the
    two propagation checks size their own grids."""
    seen = []

    def spy(name, shape_of):
        fn = getattr(oracles, name)

        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen.append(shape_of(args, result))
            return result

        monkeypatch.setattr(oracles, name, wrapped)

    for name in ("quadrature_overlap", "schmidt_decompose", "kernel_eigensolve"):
        spy(name, lambda args, r: (r.grid.nx, r.grid.nX))
    spy("grid_for_state", lambda args, r: (r.nx, r.nX))
    spy("hermitian_kernel_eigenvalues", lambda args, r: (len(args[1]), len(args[1])))
    for fn in checks._CHECKS:
        if fn.__name__ in ("check_image_f0", "check_image_vs_fft"):
            continue
        seen.clear()
        fn(64)
        assert seen and set(seen) == {(64, 64)}, (fn.__name__, seen)


def test_image_vs_fft_runs_on_the_comoving_floor_grid(monkeypatch):
    """The check sizes its flight grid for the carrier-free envelope, which
    does not travel: the 512 x 256 floor of grid_for_flight, where the lab
    wave needs 4050 x 1200.  Both routes sample that many points: the image
    route its bounced wave, the FFT route the mirrored wave it evolves."""
    grids, shapes = [], []
    real_grid = propagation.grid_for_flight
    real_evaluate = propagation.GaussianWave2D.evaluate

    def grid_for_flight(wave, t):
        grids.append(real_grid(wave, t))
        return grids[-1]

    def evaluate(wave, x, X):
        psi = real_evaluate(wave, x, X)
        shapes.append(psi.shape)
        return psi

    monkeypatch.setattr(propagation, "grid_for_flight", grid_for_flight)
    monkeypatch.setattr(propagation.GaussianWave2D, "evaluate", evaluate)
    check = checks.check_image_vs_fft(None)
    assert check.passed
    assert [(g.nx, g.nX) for g in grids] == [(512, 256)]
    assert shapes == [(256, 512), (256, 512)]


@pytest.mark.parametrize("grid_n", [None, 64])
def test_a_run_decomposes_each_distinct_state_once(monkeypatch, grid_n):
    """schmidt_f0, schmidt_ratios and the k = 0 leg of k_independence sample
    one state on one grid and share its SVD: four SVDs a run, not six.  A
    second run makes the same four, so nothing is kept between runs."""
    calls = []
    real = oracles.schmidt_decompose

    def spy(state, *args, **kwargs):
        calls.append(state)
        return real(state, *args, **kwargs)

    monkeypatch.setattr(oracles, "schmidt_decompose", spy)
    for _ in range(2):
        calls.clear()
        assert all(c.passed for c in checks.run_verification(grid_n=grid_n))
        assert len(calls) == 4


def test_the_svd_memo_is_dropped_when_a_check_raises(monkeypatch):
    def boom(grid_n):
        raise RuntimeError("boom")

    monkeypatch.setattr(checks, "_CHECKS", [checks.check_schmidt_f0, boom])
    with pytest.raises(RuntimeError, match="boom"):
        checks.run_verification()
    assert checks._svd_memo.get() is None


def test_concurrent_runs_keep_their_own_svd_memo(monkeypatch):
    """The memo is per thread: three runs at once, with a short switch
    interval, each make their own four SVDs."""
    calls = Counter()
    real = oracles.schmidt_decompose

    def spy(state, *args, **kwargs):
        calls[threading.get_ident()] += 1
        return real(state, *args, **kwargs)

    monkeypatch.setattr(oracles, "schmidt_decompose", spy)
    results = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=lambda: results.append(
            checks.run_verification(grid_n=64))) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 3 and all(c.passed for r in results for c in r)
    assert sorted(calls.values()) == [4, 4, 4]


def test_each_check_runs_at_its_own_tolerance():
    """run_verification takes only grid_n, no check takes a tolerance, and
    each check reports the one it states."""
    assert list(inspect.signature(checks.run_verification).parameters) == ["grid_n"]
    for fn in checks._CHECKS:
        assert list(inspect.signature(fn).parameters) == ["grid_n"], fn.__name__
    tolerances = {c.name: c.tolerance for c in checks.run_verification(grid_n=16)}
    assert tolerances == {
        "matched_overlap": 1e-8, "overlap_closed_form": 1e-8, "gauss_legendre_overlap": 1e-8,
        "schmidt_f0": 1e-6, "schmidt_ratios": 1e-4, "kernel_eigensolve": 1e-6,
        "oscillator_lemma": 1e-6, "reduced_kernel": 1e-8, "k_independence": 1e-6,
        "matched_momentum": 1e-6, "image_f0": 1e-3, "image_vs_fft": 1e-3}
