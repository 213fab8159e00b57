"""The algebra of two-mode Gaussian forms exp(-z^T A z + b^T z + c), z = (x, X).

Every state here is one: the product packet, the fixed-wall ideal, the
bounced Psi_F and the image propagator's waves.  A symmetric [[a, c],
[c, d]] is the tuple (a, c, d) and a vector the pair (v0, v1), of floats or
complex numbers.  Scalar arithmetic only, so a closed-form call can use it
without numpy, and no BLAS kernel picked at run time moves its last bit.
"""

import cmath

__all__ = ["inverse", "apply", "congruence", "free_flight", "moments"]


def _det(A):
    a, c, d = A
    return a * d - c * c


def inverse(A):
    """A^-1 of a symmetric A = (a, c, d)."""
    a, c, d = A
    det = _det(A)
    return d / det, -c / det, a / det


def apply(A, v):
    """The vector A v."""
    a, c, d = A
    return a * v[0] + c * v[1], c * v[0] + d * v[1]


def congruence(A, b, S):
    """(S^T A S, S^T b) for a real 2x2 S = ((p, q), (r, s)): the form of
    psi(S z) when psi has the form (A, b)."""
    (p, q), (r, s) = S
    Sp, Sq = apply(A, (p, r)), apply(A, (q, s))  # the columns of A S
    return ((p * Sp[0] + r * Sp[1], p * Sq[0] + r * Sq[1], q * Sq[0] + s * Sq[1]),
            (p * b[0] + r * b[1], q * b[0] + s * b[1]))


def free_flight(A, b, c, inverse_masses, t):
    """The form (A', b', c') after free flight for time t under
    H = p_x^2/2m + p_X^2/2M, with inverse_masses = (1/m, 1/M).

    Integrating the free kernels against the Gaussian gives another
    Gaussian.  Free flight adds 2 i t / mass to the inverse of each
    coordinate's quadratic coefficient, so with D = diag(1/m, 1/M):

        A'^{-1} = A^{-1} + 2 i t D
        b'      = A' A^{-1} b
        c'      = c + b^T A^{-1} b / 4 - b'^T A'^{-1} b' / 4
                    + ln det(A' A^{-1}) / 2

    and A'^{-1} b' = A^{-1} b.  No step divides by t, so the form holds
    down to t -> 0.  The principal branch of the logarithm fixes the
    global phase.
    """
    P = inverse(A)
    Q = (P[0] + 2j * t * inverse_masses[0], P[1], P[2] + 2j * t * inverse_masses[1])
    A_new = inverse(Q)
    Pb = apply(P, b)
    b_new = apply(A_new, Pb)
    c_new = (c + 0.25 * (b[0] * Pb[0] + b[1] * Pb[1])
             - 0.25 * (b_new[0] * Pb[0] + b_new[1] * Pb[1])
             + 0.5 * cmath.log(_det(A_new) * _det(P)))
    return A_new, b_new, c_new


def moments(A, b):
    """(centre, covariance) of |psi|^2 for psi of the form (A, b): the
    centre (2 Re A)^-1 Re b and the covariance (4 Re A)^-1, as (a, c, d)."""
    R = inverse(tuple(v.real for v in A))
    centre = apply(R, (0.5 * b[0].real, 0.5 * b[1].real))
    return centre, tuple(0.25 * v for v in R)
