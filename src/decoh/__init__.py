"""Decoherence and error bounds for a quantum particle bouncing off a
dynamical wall: closed forms, optimizers and independent numeric oracles."""

__version__ = "0.1.0"


class _Record:
    """Frozen record, in place of a frozen dataclass, whose module would load
    inspect into every closed-form process.  A subclass's fields are its
    bases' and then its own annotations, in order; its __init__ over them is
    generated with one exec, as dataclasses does.  Records compare and hash
    by class and fields; assigning or deleting an attribute raises
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
