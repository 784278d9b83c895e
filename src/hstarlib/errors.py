"""Exception types shared across the library."""


class HstarError(Exception):
    """Base class for all library errors."""


class InvalidInput(HstarError):
    """Malformed or mathematically inadmissible input (bad file or token,
    cyclic relation, out-of-range option value, ...)."""


class BudgetExceeded(HstarError):
    """An enumeration would exceed its configured work budget.

    Raised instead of silently truncating; callers that sweep corpora
    turn it into a SKIPPED status.
    """


class InternalConsistencyError(HstarError):
    """Two routes that must agree by theorem disagreed, or a structural
    invariant (h*_0 = 1, reconstruction identity, ...) failed.  Always a
    bug in this library, never a property of the input."""

