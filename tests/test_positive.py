"""Every library check that an input is positive and finite goes through
decoh._positive, and each call site's ValueError names its input."""

import math
import re

import pytest

from decoh.entanglement import optimal_spreads, oscillator_kernel, oscillator_kernel_spectrum
from decoh.kinematics import collision_params, collision_params_from_delta, initial_state
from decoh.thermal import compton_wavelength, thermal_length, thermal_spread

P = collision_params_from_delta(0.5)

# each call site: the input's name in its message, and a call that passes
# the bad value there
CALL_SITES = {
    "collision_params-m": ("particle mass", lambda v: collision_params(v, 1.0)),
    "collision_params-M": ("wall mass", lambda v: collision_params(1.0, v)),
    "initial_state-Sigma": ("wall spread", lambda v: initial_state(v, 1.0, 0.0)),
    "initial_state-sigma": ("particle spread", lambda v: initial_state(1.0, v, 0.0)),
    "optimal_spreads-sigma": ("particle spread", lambda v: optimal_spreads(v, P)),
    "oscillator_kernel-beta": ("beta", lambda v: oscillator_kernel(v, 0.7)),
    "oscillator_kernel-u": ("u", lambda v: oscillator_kernel(1.0, v)),
    "oscillator_kernel_spectrum-u": ("u", lambda v: oscillator_kernel_spectrum(v, 3)),
    "thermal_spread-mu": ("mass", lambda v: thermal_spread(v, 1.0)),
    "thermal_spread-T": ("temperature", lambda v: thermal_spread(1e-27, v)),
    "compton_wavelength-mu": ("mass", compton_wavelength),
    "thermal_length-T": ("temperature", thermal_length),
}
# each bad value and how the message prints it
BAD = {0: "0.0", -1: "-1.0", math.nan: "nan", math.inf: "inf"}


@pytest.mark.parametrize("value,shown", BAD.items(), ids=BAD.values())
@pytest.mark.parametrize("site", CALL_SITES)
def test_positive_and_finite_messages(site, value, shown):
    name, call = CALL_SITES[site]
    message = f"{name} must be positive and finite, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)
