import pytest

from decoh import checks, oracles, propagation


def test_unknown_override_name_fails_before_any_check(monkeypatch):
    def must_not_run(grid_n, tol=None):
        raise AssertionError("a check ran before the override names were validated")

    monkeypatch.setattr(checks, "_CHECKS", [must_not_run])
    with pytest.raises(ValueError, match="nope"):
        checks.run_verification(tol_overrides={"nope": 1.0})


@pytest.mark.parametrize("grid_n", [0, 1, 4, -3])
def test_grid_below_five_fails_before_any_check(monkeypatch, grid_n):
    def must_not_run(grid_n, tol=None):
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

