"""Simulated power-trace capture, weights-matrix recovery, and transfer learning."""

__version__ = "0.1.0"

__all__ = ["__version__"]
