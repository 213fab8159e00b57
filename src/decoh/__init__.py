"""Decoherence and error bounds for a quantum particle bouncing off a
dynamical wall: closed forms, optimizers and independent numeric oracles."""

__version__ = "0.1.0"
