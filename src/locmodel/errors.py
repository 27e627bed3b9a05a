"""Shared exception types, the work budget and the package memo.

Every error that crosses a module boundary lives here so the CLI can
map them onto exit codes in one place; every layer imports it.
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


# key -> (value, elements retained, units spent making it), least recently
# used first, at most _MEMO_CAP elements in all; _MEMO_RETAINED is at least
# their sum (equal after an eviction).  No key or value holds a matrix or model.
_MEMO = {}
_MEMO_CAP = 40_000
_MEMO_RETAINED = 0


def _memo(make, *args, budget=None, key=None):
    """make(*args), or make(*args, budget), a (value, elements retained)
    pair, memoised under key, by default (make, *args).  A hit spends the
    units its making spent at once, so no spend depends on what ran before.
    A new entry is stored if it fits, evicting the least recently used."""
    global _MEMO_RETAINED
    key = (make, *args) if key is None else key
    entry = _MEMO.pop(key, None)
    if entry is None:
        before = budget.spent if budget is not None else 0
        value, size = make(*args) if budget is None else make(*args, budget)
        entry = (value, size, budget.spent - before if budget is not None else 0)
        if size > _MEMO_CAP:
            return value
        if _MEMO_RETAINED + size > _MEMO_CAP:
            _MEMO_RETAINED = sum(e[1] for e in _MEMO.values())
            while _MEMO_RETAINED + size > _MEMO_CAP:
                _MEMO_RETAINED -= _MEMO.pop(next(iter(_MEMO)))[1]
        _MEMO_RETAINED += size
    elif budget is not None:
        budget.spend(entry[2], "units of a memoised result")
    _MEMO[key] = entry
    return entry[0]


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
