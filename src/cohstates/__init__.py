"""Coherent states for a quantum particle on a circle and on a sphere.

Log-domain numerics, the zero-twist e(3) representation, three independent
coherent-state constructions, phase-space expectation values, and the free
rotator's energy distribution, with a CLI for reports and verification.
"""

from .errors import ConstraintError

__version__ = "0.1.0"
