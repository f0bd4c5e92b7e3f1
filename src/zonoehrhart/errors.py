"""Exception types shared across the package, and the integer-argument check
that raises them.

The CLI maps these onto exit codes: mathematical preconditions exit 1,
enumeration/resource limits exit 2, internal cross-check failures exit 3.
"""

from __future__ import annotations

from typing import Sequence


class LatticeMathError(ValueError):
    """A mathematical precondition was violated (rank, dependence, degree)."""


class DependentSetError(LatticeMathError):
    """An operation requiring linear independence received a dependent set."""


class EnumerationLimitError(RuntimeError):
    """An enumeration would exceed the configured resource guard."""


class InternalDisagreementError(RuntimeError):
    """Two independent computation paths disagreed; indicates a bug."""


def _integers(what: str, values: Sequence, least: int | None = None,
              most: int | None = None) -> tuple[int, ...]:
    """The values as a tuple, each checked to be an int (bool excluded) and,
    if least is given, at least least; most, which needs least, bounds them
    from above too."""
    values = tuple(values)
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise LatticeMathError(f"{what} must be an integer, got {x!r}")
        if most is not None and not least <= x <= most:
            raise LatticeMathError(f"{what} must lie in {least}..{most}, got {x}")
        if least is not None and x < least:
            raise LatticeMathError(f"{what} must be at least {least}, got {x}")
    return values
