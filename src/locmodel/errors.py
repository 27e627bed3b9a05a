"""Shared exception types.

Every error that crosses a module boundary lives here so the CLI can
map them onto exit codes in one place.
"""

from __future__ import annotations


class ArtifactError(Exception):
    """Base class for all library errors."""


class BudgetExceeded(ArtifactError):
    """An enumeration would exceed its work budget."""


DEFAULT_BUDGET = 10**7


class Budget:
    """One cumulative allowance of enumeration work, shared by every
    enumerator of a case.  Each spends its own unit (subspaces, slot
    options visited, matrices, down-set elements, displacement candidates, the
    double-coset members of a Poincare quotient); a spend that takes the
    total past the limit raises BudgetExceeded."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit=None):
        self.limit = DEFAULT_BUDGET if limit is None else limit
        self.spent = 0

    def spend(self, n, what):
        self.spent += n
        if self.spent > self.limit:
            raise BudgetExceeded(f"{self.spent} units spent, over the limit of {self.limit}, at {n} {what}")

    def check(self, n, what):
        """Raise BudgetExceeded, spending nothing, if n more units would pass
        the limit: for a table of n elements formed before anything is spent."""
        if self.spent + n > self.limit:
            raise BudgetExceeded(f"{self.spent} units spent, no room under the limit of {self.limit} for {n} {what}")


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


class ChainInvariantError(ArtifactError):
    """A chain model breaks an invariant its construction guarantees."""
