"""Decoherence and error bounds for a quantum particle bouncing off a
dynamical wall: closed forms, optimizers and independent numeric oracles."""

__version__ = "0.1.0"

from .kinematics import (
    CollisionParams,
    GaussianProductState,
    IdealReflectedState,
    PostCollisionState,
    collision_params,
    collision_params_from_delta,
    ideal_reflected_state,
    initial_state,
    post_collision_state,
)
from .error_bounds import (
    Optimum,
    error_asymptotic,
    mismatch_penalty,
    optimal_lambda,
    overlap_amplitude,
    overlap_error,
)
from .entanglement import (
    KernelParams,
    kernel_params,
    largest_eigenvalue,
    optimal_spreads,
    oscillator_kernel_spectrum,
    reduced_kernel_eval,
    spectrum,
)
from .oracles import (
    GridSpec,
    grid_for_state,
    kernel_eigensolve,
    quadrature_overlap,
    schmidt_decompose,
)
from .propagation import (
    GaussianWave2D,
    image_term,
    separation_check,
)
from .thermal import (
    CollisionBudget,
    amplitude_budget,
    backaction_ratio,
    thermal_k_sigma,
    thermal_spread,
)
