"""Validation errors shared across modules.

Each admissibility condition gets its own exception type so callers (and the
CLI exit-code mapping) can name the violated condition.
"""


class ValidationError(ValueError):
    """Base class for rejected inputs."""


class ParityError(ValidationError):
    """The character pair fails chi1(-1)*chi2(-1) = +1."""


class PrimitivityError(ValidationError):
    """A character is principal or not primitive."""


class CoprimalityError(ValidationError):
    """An argument pair that must be coprime is not."""


class DivisibilityError(ValidationError):
    """A required divisibility (q2 | c, or q1*q2 | c) fails."""


class CertificationError(ArithmeticError):
    """A computed value breaks a bound its certification relies on."""
