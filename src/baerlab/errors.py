"""Shared error types and enumeration caps."""

from __future__ import annotations

# Bound on every element store and closure.  A subgroup of a group that is not
# an unmaterialised direct product is ids into the group's store, so building
# one past this bound raises CapExceeded, which a report gives as ``skipped``.
# Direct products past it are handled block by block, never by enumeration;
# the index profiles of their factors are folded from per-block kinds of
# elements, so only the blocks need lie within it.  Listing a product's
# members (``Subgroup.members``) still checks it.
ENUMERATION_CAP = 5_000_000

# Default bound on a single conjugacy-orbit walk.
DEFAULT_CLASS_ORBIT_CAP = 1_000_000

# Cells one group's Cayley table holds: its columns of |G| ids each are filled
# on demand and the oldest dropped to stay within this budget, so every
# materialised group gets id-level arithmetic.  It bounds memory (about 46 MB
# of list cells), as an all-rows table of a group of order 2400 did.
CAYLEY_CELL_BUDGET = 2400**2


class CapExceeded(RuntimeError):
    """An enumeration or orbit walk outgrew its cap.

    ``partial`` carries the number of elements seen before giving up, so
    callers can report how far the walk got.
    """

    def __init__(self, message: str, *, cap: int | None = None, partial: int | None = None):
        super().__init__(message)
        self.cap = cap
        self.partial = partial


class InternalInvariantViolation(RuntimeError):
    """A conclusion that is guaranteed to hold has failed.

    Raised when a search that must succeed comes up empty or a uniqueness
    guarantee breaks.  Never swallowed: it means the engine has a bug, not
    that the input is unusual.
    """


def check_enumerable(what: str, order: int) -> None:
    """Raise :class:`CapExceeded` if listing ``order`` elements one by one
    would pass ``ENUMERATION_CAP``."""
    if order > ENUMERATION_CAP:
        raise CapExceeded(
            f"{what} of order {order} exceeds enumeration cap {ENUMERATION_CAP}",
            cap=ENUMERATION_CAP,
        )
