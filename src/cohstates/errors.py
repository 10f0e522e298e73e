"""Errors shared by the circle and sphere modules."""

from __future__ import annotations


class ConstraintError(ValueError):
    """A phase point lies outside the phase space the library supports: a
    non-finite coordinate, a sphere point off the sphere or with a
    non-tangent l, or a label past the bound at which it overflows."""
