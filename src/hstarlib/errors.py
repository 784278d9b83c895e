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


class SignViolation(HstarError):
    """A nonnegativity assertion mandated by a theorem or conjecture
    failed.  This is a research-grade event: the offending input and the
    witness polynomials are attached so the case can be reproduced."""

    def __init__(self, message, witnesses=None):
        super().__init__(message)
        self.witnesses = dict(witnesses or {})
