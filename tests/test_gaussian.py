"""decoh.gaussian against the numpy expressions it replaced: numpy's 2x2
inv and solve, S.T @ A @ S, and free flight through a matrix inverse with
log det of A' A^-1.

The draws are complex symmetric A whose real part has eigenvalues over
e^-4..e^4 and imaginary parts up to e^4, complex b and c, inverse masses
over e^-3..e^3 and t in [0, 3].  Over 60000 non-derandomized draws of these
strategies the worst deviations were: inverse 8.7e-14 of max |A^-1|,
apply 4.3e-16 of max |A| max |v|, free flight's A 7.4e-14 of max |A'|, b
3.8e-13 of max |b'| and c 2.7e-14 of max(|c'|, |b^T A^-1 b|, 1), the
congruence 2.1e-15 and the centre and covariance 9.0e-14.  Each tolerance
is about 4 times that deviation.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from decoh import gaussian

_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

_unit = st.floats(-1.0, 1.0)


def _coordinate(bound):
    """Floats in [-bound, bound] that are 0 or above 1e-100 in magnitude:
    products of subnormals would measure the float format, not the algebra."""
    return st.floats(-bound, bound).filter(lambda v: v == 0.0 or abs(v) >= 1e-100)


@st.composite
def forms(draw):
    """(A, b, c): Re A = R(theta) diag(e^l1, e^l2) R(theta)^T, Im A an
    independent symmetric matrix of entries up to e^4."""
    l1, l2 = draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0))
    theta = draw(st.floats(0.0, math.pi))
    cos, sin = math.cos(theta), math.sin(theta)
    e1, e2 = math.exp(l1), math.exp(l2)
    scale = math.exp(draw(st.floats(-4.0, 4.0)))
    ia, ic, id_ = (scale * draw(_unit) for _ in range(3))
    A = (complex(e1 * cos * cos + e2 * sin * sin, ia),
         complex((e1 - e2) * cos * sin, ic),
         complex(e1 * sin * sin + e2 * cos * cos, id_))
    b = tuple(complex(draw(_coordinate(5.0)), draw(_coordinate(5.0))) for _ in range(2))
    c = complex(draw(_coordinate(5.0)), draw(_coordinate(5.0)))
    return A, b, c


def _matrix(A):
    a, c, d = A
    return np.array([[a, c], [c, d]])


def _relative(got, want):
    """max |got - want| / max |want|, and 0 where the two are equal."""
    diff = float(np.max(np.abs(np.subtract(got, want))))
    return 0.0 if diff == 0.0 else diff / float(np.max(np.abs(want)))


def _inv2(mat):
    """Inverse of a symmetric complex 2x2 matrix, as propagation once wrote it."""
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    return np.array([[mat[1, 1], -mat[0, 1]], [-mat[1, 0], mat[0, 0]]]) / det


def _flight_reference(A, b, c, inverse_masses, t):
    """Free flight as GaussianWave2D.free_evolve computed it with numpy."""
    A_inv = _inv2(A)
    A_inv_new = A_inv + 2j * t * np.diag(inverse_masses)
    A_new = _inv2(A_inv_new)
    ratio = A_new @ A_inv
    b_new = ratio @ b
    c_new = (c + 0.25 * b @ (A_inv @ b) - 0.25 * b_new @ (A_inv_new @ b_new)
             + 0.5 * np.log(np.linalg.det(ratio)))
    return A_new, b_new, c_new


@_SETTINGS
@given(forms())
def test_inverse_and_apply_match_numpy(form):
    A, b, _ = form
    M = _matrix(A)
    assert _relative(_matrix(gaussian.inverse(A)), np.linalg.inv(M)) <= 4e-13
    scale = np.max(np.abs(M)) * np.max(np.abs(b))
    assert np.max(np.abs(np.subtract(gaussian.apply(A, b), M @ np.array(b)))) <= 2e-15 * scale


@_SETTINGS
@given(forms(), st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), st.floats(0.0, 3.0))
def test_free_flight_matches_the_inverse_formula(form, log_masses, t):
    A, b, c = form
    inverse_masses = (math.exp(-log_masses[0]), math.exp(-log_masses[1]))
    A_new, b_new, c_new = gaussian.free_flight(A, b, c, inverse_masses, t)
    A_ref, b_ref, c_ref = _flight_reference(_matrix(A), np.array(b), c, inverse_masses, t)
    assert _relative(_matrix(A_new), A_ref) <= 3e-13
    assert _relative(b_new, b_ref) <= 1.5e-12
    # c' holds b^T A^-1 b / 4, so that term's size sets its rounding
    bPb = abs(np.array(b) @ np.linalg.solve(_matrix(A), np.array(b)))
    assert abs(c_new - c_ref) <= 1.2e-13 * max(abs(c_ref), bPb, 1.0)


@_SETTINGS
@given(forms(), st.tuples(*[_coordinate(1.5)] * 4))
def test_congruence_is_the_matrix_product(form, entries):
    A, b, _ = form
    S = (entries[:2], entries[2:])
    S_A, S_b = gaussian.congruence(A, b, S)
    Sm = np.array(S)
    assert _relative(_matrix(S_A), Sm.T @ _matrix(A) @ Sm) <= 1e-14
    assert _relative(S_b, Sm.T @ np.array(b)) <= 1e-14


@_SETTINGS
@given(forms())
def test_moments_match_solve_and_inv(form):
    A, b, _ = form
    M = _matrix(A)
    centre, cov = gaussian.moments(A, b)
    assert _relative(centre, np.linalg.solve(2.0 * M.real, np.array(b).real)) <= 4e-13
    assert _relative(_matrix(cov), np.linalg.inv(4.0 * M.real)) <= 4e-13
