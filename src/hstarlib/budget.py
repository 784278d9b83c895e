"""Work-budget configuration, in one place.

A "budget" bounds the number of elementary candidates an exhaustive
enumeration may visit (maps n^d, colorings n^d, lattice points in a box,
order ideals).  Exceeding it raises :class:`~hstarlib.errors.BudgetExceeded`
rather than silently truncating; corpus sweeps report such inputs as
skipped.
"""

from .errors import BudgetExceeded

#: Default cap on elementary enumeration steps for a single operation.
DEFAULT_WORK_BUDGET = 5_000_000


def charge(amount: int, budget: int | None, what: str) -> None:
    """Raise BudgetExceeded if ``amount`` exceeds the effective budget; the
    message says when that is the default budget."""
    limit = DEFAULT_WORK_BUDGET if budget is None else budget
    if amount > limit:
        name = "default budget" if budget is None else "budget"
        raise BudgetExceeded(f"{what} needs {_steps(amount)} steps, {name} is {_steps(limit)}")


def _steps(count: int) -> str:
    try:
        return f"{count}"
    except ValueError:  # past the int-to-str digit limit
        return f"at least 2^{count.bit_length() - 1}"
