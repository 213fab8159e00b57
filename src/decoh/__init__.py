"""Decoherence and error bounds for a quantum particle bouncing off a
dynamical wall: closed forms, optimizers and independent numeric oracles."""

import math

__version__ = "0.1.0"


def _positive(name: str, value: float) -> float:
    """value as a float, unless it is not a positive finite number."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


class _Record:
    """The package's one frozen-record type: every frozen value decoh
    defines, from collision params to grids and checks, is a subclass.  A
    subclass's fields are its bases' and then its own annotations, in order;
    its __init__ takes them by position or keyword.  Records compare and
    hash by class and fields, and assigning or deleting an attribute raises
    AttributeError."""

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = dict.fromkeys(f for c in reversed(cls.__mro__)
                               for f in vars(c).get("__annotations__", ()))
        sets = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
        namespace = {"_set": object.__setattr__}
        exec(f"def __init__(self, {', '.join(fields)}):{sets or ' pass'}", namespace)
        cls.__init__ = namespace["__init__"]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a record is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a record is frozen")

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((self.__class__, tuple(self.__dict__.values())))
