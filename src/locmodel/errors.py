"""Shared exception types.

Every error that crosses a module boundary lives here so the CLI can
map them onto exit codes in one place.
"""

from __future__ import annotations


class ArtifactError(Exception):
    """Base class for all library errors."""


class BudgetExceeded(ArtifactError):
    """An enumeration would exceed the configured guard."""


class DimensionMismatch(ArtifactError):
    pass


class SingularGram(ArtifactError):
    pass


class DatumMismatch(ArtifactError):
    pass


class KindMismatch(ArtifactError):
    pass


class InvalidIndex(ArtifactError):
    pass


class WildRamification(ArtifactError):
    """p divides e; the tame normalization of the pairing is unavailable."""


class BadRanks(ArtifactError):
    pass


class IncompatibleElement(ArtifactError):
    pass


class SignatureCollision(ArtifactError):
    pass


class ManifestParseError(ArtifactError):
    pass


class PoolBoundViolation(ArtifactError):
    """A permissible class lies beyond perm_set's candidate pool bound."""


class ChainInvariantError(ArtifactError):
    """A chain model breaks an invariant its construction guarantees."""
