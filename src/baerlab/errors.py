"""Shared error types and enumeration caps."""

from __future__ import annotations

# Bound on every element store and closure.  A subgroup of a group that is not
# an unmaterialised direct product is ids into the group's store, so building
# one past this bound raises CapExceeded, which a report gives as ``skipped``.
# Direct products past it are handled block by block, never by enumeration.
ENUMERATION_CAP = 5_000_000

# Default bound on a single conjugacy-orbit walk.
DEFAULT_CLASS_ORBIT_CAP = 1_000_000

# Materialised groups up to this order get an integer Cayley table for fast
# id-level subgroup arithmetic.  Unmaterialised direct products are handled
# block by block at any order and build no table of their own.
# The table is built from generator maps in |G| * |gens| compositions, so the
# gate bounds memory (|G|**2 list cells, about 46 MB at the bound), not time.
CAYLEY_TABLE_MAX_ORDER = 2400


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
