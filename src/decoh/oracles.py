"""Brute-force numerical verifiers for the closed-form results.

Everything here treats wave functions as plain evaluators psi(x, X) sampled
on a rectangular grid: tensor-product quadrature for overlap integrals, SVD
of the sampled state for Schmidt coefficients, and a dense Hermitian
eigensolve for discretized integral kernels.  All routines are pure
functions of their inputs and deterministic for a fixed grid.
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .entanglement import reduced_kernel_eval

__all__ = [
    "GridSpec",
    "OverlapResult",
    "SchmidtResult",
    "KernelEigsResult",
    "spectral_counts",
    "grid_for_state",
    "gauss_legendre_rule",
    "quadrature_overlap",
    "schmidt_decompose",
    "kernel_eigensolve",
    "hermitian_kernel_eigenvalues",
    "oscillator_grid",
]

# grid boxes span this many sigmas of each state's envelope
COVER_SIGMAS = 8.0
# a grid's step leaves the sampled function's Fourier transform below this
# fraction of its peak at the first point it must not reach
ALIAS_EPS = 1e-16
# largest |K - K^H| a discretized kernel may show before it counts as a bug
HERM_TOL = 1e-10
# samples per row block of a quadrature: 128 KiB of complex128 per temporary
BLOCK_POINTS = 2**13
# largest complex128 sample, in bytes, that the SVD or a kernel eigensolve
# may allocate, or a quadrature compute block by block; a larger one is
# refused before anything is sampled
MAX_SAMPLE_BYTES = 2**30
# largest ||Im||_F / ||m||_F of a phase-stripped sample that is dropped: by
# Weyl's inequality no singular value moves by more than this times ||m||_F.
# The separable samples of the query workload's entangle --grid calls read at
# most 0.43 eps; a non-separable phase, such as a free-flight chirp, reads
# about 0.2.  sys.float_info, not np.finfo: an finfo built at import added
# about 30 page faults to every later 256 x 256 k = 0 SVD call
_REAL_TOL = 8.0 * sys.float_info.epsilon
# largest ||m - J m J||_F / (2 ||m||_F) of a real sample that is split into its
# parity blocks (J reverses both axes): by Weyl's inequality no singular
# value moves by more than this times ||m||_F.  np.linspace's nodes are
# symmetric only to an ulp, so the real samples of the query workload's
# entangle --grid calls read ||m - J m J||_F / ||m||_F of 3.4 eps in the
# median and 39.2 eps at most: 19.6 eps here, a 3.3x headroom
_PARITY_TOL = 64.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid; x is the particle axis, X the wall axis."""

    x_min: float
    x_max: float
    X_min: float
    X_max: float
    nx: int
    nX: int

    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def X_nodes(self) -> np.ndarray:
        return np.linspace(self.X_min, self.X_max, self.nX)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dX(self) -> float:
        return (self.X_max - self.X_min) / (self.nX - 1)

    def axes(self):
        """Broadcastable (x, X) node axes x[None, :], X[:, None]: samples
        come out of shape (nX, nx), rows indexing X."""
        return self.x_nodes()[None, :], self.X_nodes()[:, None]


def spectral_counts(A, b, period: float, widths) -> list[int]:
    """Node counts per axis that sample g(z) = exp(-z^T A z + b^T z) over
    boxes of the given widths.

    A is complex symmetric with positive-definite real part.  Then

        |g^(w)| ~ exp(-(w - w0)^T R (w - w0) / 4),  R = Re(A^-1),
        w0 = R^-1 Im(A^-1 b),

    which falls below ALIAS_EPS of its peak beyond the reach |w0_i| +
    2 sqrt(ln(1/ALIAS_EPS) [R^-1]_ii) on axis i.  The step h is
    period / reach, and each count is ceil(width / h) + 1.
    period 2 pi suits an integrand: the trapezoid rule's error is g^ summed
    over the nonzero lattice points 2 pi j / h.  period pi suits a sampled
    wave: its spectrum sits below the band limit pi / h, so the samples are
    their own sinc interpolant, and an SVD, eigensolve or FFT step sees the
    continuum operator up to g^'s tail.
    """
    A_inv = np.linalg.inv(A)
    R_inv = np.linalg.inv(A_inv.real)
    w0 = R_inv @ (A_inv @ b).imag
    reach = np.abs(w0) + 2.0 * np.sqrt(math.log(1.0 / ALIAS_EPS) * np.diag(R_inv))
    return [math.ceil(w * r / period) + 1 for w, r in zip(widths, reach)]


def grid_for_state(state, other=None, *, n: int | None = None) -> GridSpec:
    """One grid to sample state, or to integrate the overlap of state and other.

    Each axis spans the union of the states' centers +- COVER_SIGMAS
    standard deviations (their envelope()).  n pins both counts to exactly
    n; the oracles then sample that grid, and their deviation from the
    closed form shows what it resolves.  Without n, spectral_counts sizes
    each axis from the states' quadratic_form(): state alone is a wave,
    sampled to its band limit (period pi); with other the grid integrates
    conj(state) other, whose form is (conj(A) + A', conj(b) + b') (period
    2 pi).
    """
    states = (state,) if other is None else (state, other)
    lo, hi = [math.inf, math.inf], [-math.inf, -math.inf]
    for s in states:
        for axis, (c, sd, _) in enumerate(zip(*s.envelope())):
            lo[axis] = min(lo[axis], c - COVER_SIGMAS * sd)
            hi[axis] = max(hi[axis], c + COVER_SIGMAS * sd)
    if n is not None:
        nx = nX = int(n)
    else:
        A, b = state.quadratic_form()
        period = math.pi
        if other is not None:
            A2, b2 = other.quadratic_form()
            A, b, period = np.conj(A) + A2, np.conj(b) + b2, 2.0 * math.pi
        nx, nX = spectral_counts(A, b, period, (hi[0] - lo[0], hi[1] - lo[1]))
    return GridSpec(x_min=lo[0], x_max=hi[0], X_min=lo[1], X_max=hi[1], nx=nx, nX=nX)


@dataclass(frozen=True)
class OverlapResult:
    """Quadrature value of an overlap integral and the grid it was taken on."""

    value: complex
    grid: GridSpec


def _trapezoid_weights(n: int, step: float) -> np.ndarray:
    w = np.full(n, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def gauss_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton on the three-term recurrence P_k = ((2k-1) x P_{k-1} - (k-1) P_{k-2}) / k
    from Tricomi's asymptotic nodes (1 - (n-1)/8n^3) cos(pi (4i-1)/(4n+2)),
    written as a sine so the middle node of an odd rule starts, and stays,
    at exactly 0.  Each weight is the Christoffel sum 1 / sum_{k<n} (k+1/2)
    P_k(x)^2 of positive terms.  Only the non-negative half is solved; the
    rule is mirrored from it, so it is exactly symmetric.  O(n^2) work where
    numpy's leggauss does a dense O(n^3) eigensolve.
    """
    if n < 1:
        raise ValueError(f"a Gauss-Legendre rule needs at least 1 node, got {n}")
    i = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.sin(np.pi * (n + 1 - 2 * i) / (2 * n + 1))

    def recur(k, p0, p1):
        # (P_{k-2}, P_{k-1}) -> (P_{k-1}, P_k), reusing P_{k-2}'s array
        p0 *= (1 - k) / k
        p0 += ((2 * k - 1) / k) * x * p1
        return p1, p0

    for _ in range(10):
        p0, p1 = np.ones_like(x), x.copy()
        for k in range(2, n + 1):
            p0, p1 = recur(k, p0, p1)
        # P_n / P_n', with (x^2 - 1) P_n' = n (x P_n - P_{n-1})
        step = p1 * (x * x - 1.0) / (n * (x * p1 - p0))
        x -= step
        if np.max(np.abs(step)) <= 1e-16:
            break
    p0, p1 = np.ones_like(x), x.copy()
    christoffel = 0.5 + 1.5 * x * x  # k = 0, 1; for n = 1 the one node is 0
    for k in range(2, n):
        p0, p1 = recur(k, p0, p1)
        christoffel += (k + 0.5) * p1 * p1
    w = 1.0 / christoffel
    return np.concatenate((-x, x[::-1][n % 2:])), np.concatenate((w, w[::-1][n % 2:]))


@functools.cache
def _blas_threads():
    """OpenBLAS's openblas_set_num_threads_local and its thread count getter
    (named as the plain, 64-bit and scipy-openblas builds name it), or None
    where numpy links another BLAS or an OpenBLAS without them.  dlsym on
    the handle of numpy's linalg extension also searches the libraries it
    links, numpy's bundled OpenBLAS among them."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        setter = lib.openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    names = [f"{prefix}openblas_get_num_threads{suffix}"
             for prefix in ("", "scipy_") for suffix in ("", "64_")]
    getter = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
    if getter is None:
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    getter.argtypes, getter.restype = [], ctypes.c_int
    return setter, getter


_blas_lock = threading.Lock()
_blas_scopes = 0  # _one_blas_thread scopes open in the process
_blas_restore = 1  # the thread count the first of them found


@contextmanager
def _one_blas_thread():
    """Run the body's BLAS and LAPACK calls on one OpenBLAS thread.

    An oracle's BLAS calls are short: a quadrature block's products, an
    SVD sample's vdots and LAPACK calls of up to a few hundred rows.  OpenBLAS
    hands each to its other threads, which then busy-wait through the whole
    call and make it slower, not faster.  The setter returns the count it
    replaces.  In numpy's pthreads OpenBLAS that count is the process's,
    despite the setter's name, so BLAS calls on other threads also run on
    one thread while a scope is open.  Open scopes are counted under a lock:
    the first sets one thread, and the last, also when the body raises,
    restores the count the first found, but only if the count still reads
    the scope's 1; a count that other code set meanwhile stands.  Without
    the setter and getter the body runs as it is.
    """
    global _blas_scopes, _blas_restore
    blas = _blas_threads()
    if blas is None:
        yield
        return
    setter, getter = blas
    with _blas_lock:
        if _blas_scopes == 0:
            _blas_restore = setter(1)
        _blas_scopes += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_scopes -= 1
            if _blas_scopes == 0 and getter() == 1:
                setter(_blas_restore)


def quadrature_overlap(a, b, grid: GridSpec | None = None, n: int | None = None,
                       method: str = "trapezoid") -> OverlapResult:
    """Tensor-product quadrature of the overlap integral int int a* b dx dX.

    method is "trapezoid" (default; spectral accuracy for smooth decaying
    integrands) or "gauss-legendre" on the grid's box with nx x nX nodes.
    Either rule is the product of two 1-D rules, applied as wX @ f @ wx to
    the samples f of a* b and summed over blocks of rows of at most
    BLOCK_POINTS samples (one row when a row is longer), so a call holds one
    block, never all nx x nX samples; a grid of at most BLOCK_POINTS samples
    is one block.  At 2^13 points a block's few complex temporaries are
    128 KiB each: they stay in cache and the allocator reuses them without
    page faults, which come back at 2^14, while 2^12 costs more in calls per
    block than it saves.  The quadrature runs once on the grid it is
    given, or on grid_for_state(a, b, n=n): n x n nodes for either rule.
    Without n Gauss-Legendre takes ceil(pi/2 m) nodes for each m trapezoid
    steps, because at equal count its central node spacing is pi/2 times
    the uniform step.  It carries no error estimate, because a caller that
    checks a closed form measures the real error.  A block bounds the
    memory, not the work: a grid whose nx x nX complex samples would total
    more than MAX_SAMPLE_BYTES raises ValueError before anything is sampled.
    The blocks are summed on one OpenBLAS thread (_one_blas_thread): no
    product of a block is long enough to pay for a second.
    """
    if grid is None:
        grid = grid_for_state(a, b, n=n)
        if n is None and method == "gauss-legendre":
            grid = replace(grid, nx=math.ceil(0.5 * math.pi * grid.nx),
                           nX=math.ceil(0.5 * math.pi * grid.nX))
    _check_sample_bytes(grid.nX, grid.nx)
    if method == "trapezoid":
        x, X = grid.axes()
        wx = _trapezoid_weights(grid.nx, grid.dx)
        wX = _trapezoid_weights(grid.nX, grid.dX)
    elif method == "gauss-legendre":
        tx, wx = gauss_legendre_rule(grid.nx)
        tX, wX = gauss_legendre_rule(grid.nX)
        half_x, half_X = 0.5 * (grid.x_max - grid.x_min), 0.5 * (grid.X_max - grid.X_min)
        x = (0.5 * (grid.x_max + grid.x_min) + half_x * tx)[None, :]
        X = (0.5 * (grid.X_max + grid.X_min) + half_X * tX)[:, None]
        wx, wX = wx * half_x, wX * half_X
    else:
        raise ValueError(f"unknown quadrature method {method!r}")
    rows = max(1, BLOCK_POINTS // grid.nx)
    value = 0j
    with _one_blas_thread():
        for i in range(0, grid.nX, rows):
            blk = slice(i, i + rows)
            value += complex(wX[blk] @ (np.conj(a(x, X[blk])) * b(x, X[blk])) @ wx)
    return OverlapResult(value=value, grid=grid)


@dataclass(frozen=True)
class SchmidtResult:
    """Singular values of the sampled state; squares estimate the Schmidt
    spectrum of the continuum wave function."""

    singular_values: np.ndarray
    grid: GridSpec


def _check_sample_bytes(rows: int, cols: int) -> None:
    """Raise ValueError if a rows x cols complex128 sample exceeds MAX_SAMPLE_BYTES."""
    nbytes = 16 * rows * cols
    if nbytes > MAX_SAMPLE_BYTES:
        raise ValueError(f"a {rows} x {cols} sample takes {nbytes} bytes, more than "
                         f"the {MAX_SAMPLE_BYTES} bytes of oracles.MAX_SAMPLE_BYTES")


def _strip_one_body_phases(m: np.ndarray) -> np.ndarray:
    """m's singular values in a real matrix where m's phase is one-body.

    A sample m_ij = e^{i (a_i + b_j)} r_ij with r real, such as a bounced
    state's carrier e^{i k [(1 - 2 gamma) x + 2 gamma X]} times its envelope,
    becomes real under the diagonal unitaries that make the pivot's row and
    column, at the largest |m|, real and positive: conj(m[r, :]) / |m[r, :]|
    on the columns and conj(m[:, c]) / |m[:, c]| m[r, c] / |m[r, c]| on the
    rows.  They are applied in place and keep the singular values.  When
    the imaginary part left is at most _REAL_TOL of the whole, the real part
    goes to real LAPACK, about twice as fast as complex.  Otherwise the
    scaling is undone and m stays complex, as it does when a pivot row or
    column entry is below the smallest normal float and has no reliable
    phase.  An exactly real sample (k = 0) returns its real part untouched.
    """
    if not m.imag.any():
        return m.real
    r, c = np.unravel_index(np.argmax(np.abs(m)), m.shape)
    row_abs, col_abs = np.abs(m[r]), np.abs(m[:, c])
    if min(row_abs.min(), col_abs.min()) < sys.float_info.min:
        return m
    cols = np.conj(m[r]) / row_abs
    rows = np.conj(m[:, c]) / col_abs * (m[r, c] / abs(m[r, c]))
    m *= cols
    m *= rows[:, None]
    flat = m.reshape(-1)
    if flat.imag @ flat.imag <= _REAL_TOL**2 * np.vdot(flat, flat).real:
        return m.real
    m *= np.conj(cols)
    m *= np.conj(rows)[:, None]
    return m


def _singular_values(m: np.ndarray) -> np.ndarray:
    """m's singular values, descending; a centrosymmetric m goes to LAPACK
    as its two parity blocks.

    A real m of even shape 2p x 2q is folded, row i with its mirror row and
    column j with its mirror column.  Its quadrants, each mirrored onto the
    top-left one, are a = m[:p, :q], b (top right, columns reversed), c
    (bottom left, rows reversed) and d (bottom right, both reversed): the
    even block is a + b + c + d, the odd block a - b - c + d, and the
    off-diagonal blocks (a - d) -+ (b - c) together have the squared norm
    2 (||a - d||^2 + ||b - c||^2) = ||m - J m J||_F^2.  The folds are
    unnormalised, so m's singular values are half the blocks' once the
    off-diagonal blocks are dropped.  When they hold at most _PARITY_TOL of
    the folded norm 2 ||m||_F, Weyl's inequality moves no value by more
    than _PARITY_TOL ||m||_F, and LAPACK takes both blocks in one stacked
    call: a quarter of the flops of m's own.  Any other m (complex, of an
    odd size or further from centrosymmetric) goes to LAPACK whole.
    """
    rows, cols = m.shape
    if m.dtype.kind == "c" or rows % 2 or cols % 2:
        return np.linalg.svd(m, compute_uv=False)
    p, q = rows // 2, cols // 2
    a, b = m[:p, :q], m[:p, q:][:, ::-1]
    c, d = m[p:, :q][::-1], m[p:, q:][::-1, ::-1]
    diff = np.subtract(a, d)
    off = 2.0 * np.vdot(diff, diff)
    np.subtract(b, c, out=diff)
    off += 2.0 * np.vdot(diff, diff)
    # einsum reads a stripped sample's strided real view without a copy
    if off > _PARITY_TOL**2 * 4.0 * np.einsum("ij,ij->", m, m):
        return np.linalg.svd(m, compute_uv=False)
    np.add(b, c, out=diff)
    blocks = np.empty((2, p, q))
    np.add(a, d, out=blocks[0])
    np.subtract(blocks[0], diff, out=blocks[1])
    blocks[0] += diff
    sv = np.linalg.svd(blocks, compute_uv=False).reshape(-1)
    sv.sort()
    return 0.5 * sv[::-1]


def schmidt_decompose(state, n: int | None = None) -> SchmidtResult:
    """Schmidt coefficients of a two-body wave function by dense SVD.

    The state is sampled on grid_for_state(state, n=n) as a matrix (row =
    wall index, column = particle index) and scaled by sqrt(dx dX) so the
    squared singular values sum to its squared norm, 1 when normalized.
    A grid whose sample would exceed MAX_SAMPLE_BYTES raises ValueError
    before anything is sampled.  A sample whose phase is a sum of one-body
    phases is stripped of them and goes to real LAPACK
    (_strip_one_body_phases), as its two parity blocks where it is
    centrosymmetric (_singular_values).  The sample is taken, stripped
    and decomposed on one OpenBLAS thread (_one_blas_thread).
    """
    with _one_blas_thread():
        grid = grid_for_state(state, n=n)
        _check_sample_bytes(grid.nX, grid.nx)
        m = state(*grid.axes())
        m *= math.sqrt(grid.dx * grid.dX)
        m = _strip_one_body_phases(m)
        try:
            sv = _singular_values(m)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"SVD failed on grid {grid}") from exc
    return SchmidtResult(singular_values=sv, grid=grid)


def hermitian_kernel_eigenvalues(kernel_fn, nodes: np.ndarray) -> np.ndarray:
    """Eigenvalues (descending) of a discretized Hermitian integral kernel.

    Builds K[i, j] = kernel_fn(nodes[i], nodes[j]) * dx on a uniform grid,
    unless K would exceed MAX_SAMPLE_BYTES, which raises ValueError first.
    A Hermiticity defect beyond HERM_TOL means the kernel function itself is
    wrong, so that raises rather than being silently symmetrized away.
    """
    nodes = np.asarray(nodes, dtype=float)
    _check_sample_bytes(nodes.size, nodes.size)
    dx = nodes[1] - nodes[0]
    K = kernel_fn(nodes[:, None], nodes[None, :]) * dx
    defect = float(np.abs(K - K.conj().T).max())
    if defect > HERM_TOL:
        raise RuntimeError(
            f"discretized kernel is not Hermitian (defect {defect:.3e}): kernel bug"
        )
    K = 0.5 * (K + K.conj().T)
    if not K.imag.any():
        K = K.real  # a k = 0 kernel is exactly real, and real LAPACK is faster
    with _one_blas_thread():
        return np.linalg.eigvalsh(K)[::-1]


@dataclass(frozen=True)
class KernelEigsResult:
    eigenvalues: np.ndarray
    grid: GridSpec


def kernel_eigensolve(state, n: int | None = None) -> KernelEigsResult:
    """Dense eigensolve of the discretized reduced kernel of a state.

    Uses the closed-form kernel on the particle axis of grid_for_state(state,
    n=n); eigenvalues come back sorted descending and should match the
    squared Schmidt coefficients of the same state.  The kernel's spectrum
    on that axis lies inside the state's, so the state's own grid samples it.
    """
    grid = grid_for_state(state, n=n)

    def kernel_fn(xp, x):
        return reduced_kernel_eval(state, x=x, x_prime=xp)

    eigs = hermitian_kernel_eigenvalues(kernel_fn, grid.x_nodes())
    return KernelEigsResult(eigenvalues=eigs, grid=grid)


def oscillator_grid(beta: float, u: float, n: int | None = None) -> np.ndarray:
    """Uniform nodes adapted to the oscillator kernel's diagonal width.

    G(x, x) falls off like exp(-2 beta tanh(u/2) x^2), giving an effective
    standard deviation 1/(2 sqrt(beta tanh(u/2))); the nodes span
    COVER_SIGMAS of it on either side.  Their count is exactly n, or else
    the band limit of the kernel exp(-c ((x^2 + y^2) cosh u - 2 x y)),
    c = beta / sinh u, sampled as a wave (spectral_counts).
    """
    half = COVER_SIGMAS * 0.5 / math.sqrt(beta * math.tanh(0.5 * u))
    if n is None:
        A = beta / math.sinh(u) * np.array([[math.cosh(u), -1.0], [-1.0, math.cosh(u)]])
        n = spectral_counts(A, np.zeros(2), math.pi, (2.0 * half, 2.0 * half))[0]
    return np.linspace(-half, half, int(n))

