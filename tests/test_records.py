"""Every frozen type in decoh is a record (decoh._Record): built by position
or keyword, compared and hashed by class and fields, never changed."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoh.checks import VerificationCheck
from decoh.entanglement import KernelParams
from decoh.error_bounds import Optimum
from decoh.kinematics import (CollisionParams, GaussianProductState, IdealReflectedState,
                              PostCollisionState)
from decoh.oracles import GridSpec, KernelEigsResult, OverlapResult, SchmidtResult
from decoh.propagation import GaussianWave2D
from decoh.thermal import CollisionBudget

# each record's fields in order; IdealReflectedState keeps its parent's
FIELDS = {
    CollisionParams: ("m", "M", "delta", "gamma"),
    GaussianProductState: ("Sigma", "sigma", "k", "norm"),
    PostCollisionState: ("Omega", "omega", "delta", "gamma", "k", "norm"),
    IdealReflectedState: ("Sigma", "sigma", "k", "norm"),
    KernelParams: ("D", "rho", "w", "u", "z", "matched"),
    Optimum: ("lambda_max", "A_max", "one_minus_A", "regime", "iterations"),
    CollisionBudget: ("amplitude", "n_half"),
    GridSpec: ("x_min", "x_max", "X_min", "X_max", "nx", "nX"),
    OverlapResult: ("value", "grid"),
    SchmidtResult: ("singular_values", "grid"),
    KernelEigsResult: ("eigenvalues", "grid"),
    VerificationCheck: ("name", "tolerance", "deviation", "passed", "detail"),
    GaussianWave2D: ("A", "b", "c", "params"),
}
VALUES = st.one_of(st.floats(allow_nan=False), st.integers(), st.booleans(), st.text(max_size=4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_records_behave_as_frozen_dataclasses(data):
    cls = data.draw(st.sampled_from(list(FIELDS)))
    fields = FIELDS[cls]
    values = data.draw(st.tuples(*[VALUES] * len(fields)))
    record = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert record == by_keyword and hash(record) == hash(by_keyword)
    assert record != values
    assert vars(record) == dict(zip(fields, values))
    assert [getattr(record, f) for f in fields] == list(values)
    text = repr(record)
    assert text.startswith(cls.__name__ + "(")
    assert all(f"{f}={v!r}" in text for f, v in zip(fields, values))

    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(**dict(zip(fields[1:], values[1:])))
    with pytest.raises(TypeError):
        cls(*values, unknown=0.0)
    with pytest.raises(TypeError):
        cls(*values, 0.0)

    name = data.draw(st.sampled_from(fields + ("unknown",)))
    with pytest.raises(AttributeError):
        setattr(record, name, 0.0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert vars(record) == dict(zip(fields, values))


def test_product_and_mirrored_states_with_equal_fields_differ():
    """Equal fields of two classes are two records: an SVD memo keyed by
    (state, grid_n) keeps a product and a mirrored state apart."""
    fields = {"Sigma": 0.5, "sigma": 1.0, "k": 2.0, "norm": 0.3}
    product, mirrored = GaussianProductState(**fields), IdealReflectedState(**fields)
    assert product != mirrored and mirrored != product
    assert len({(product, 64): "product", (mirrored, 64): "mirrored"}) == 2


@pytest.mark.parametrize("cls", [GaussianProductState, PostCollisionState, IdealReflectedState])
def test_each_state_class_has_its_own_call(cls):
    """perfbench's tracer wraps each state class's own __call__."""
    assert "__call__" in vars(cls)
