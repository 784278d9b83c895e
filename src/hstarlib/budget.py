"""Work-budget configuration, in one place.

A "budget" bounds the number of elementary candidates an exhaustive
enumeration may visit (maps n^d, colorings n^d, lattice points in a box,
order ideals).  Exceeding it raises :class:`~hstarlib.errors.BudgetExceeded`
rather than silently truncating; corpus sweeps report such inputs as
skipped.  :func:`limit` puts one budget in force for a block and
:func:`charge` reads it, so no function takes a budget.
"""

import sys
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import BudgetExceeded

#: Default cap on elementary enumeration steps for a single operation.
DEFAULT_WORK_BUDGET = 5_000_000

_in_force: ContextVar[int | None] = ContextVar("budget", default=None)


@contextmanager
def limit(steps: int | None):
    """Put a budget of ``steps`` (None: the default) in force for the block.
    A charge reads it when it is made, so a generator charges where it runs."""
    token = _in_force.set(steps)
    try:
        yield
    finally:
        _in_force.reset(token)


def charge(amount: int, what: str, *, allocation: bool = False) -> None:
    """Raise BudgetExceeded if ``amount`` exceeds the budget in force; the
    message says when that is the default budget.  An ``allocation``, one
    object built at once, is held to the default budget whatever is in force."""
    budget = None if allocation else _in_force.get()
    cap = DEFAULT_WORK_BUDGET if budget is None else budget
    if amount > cap:
        name = "default budget" if budget is None else "budget"
        raise BudgetExceeded(f"{what} needs {_steps(amount)} steps, {name} is {_steps(cap)}")


def charge_power_of_two(k: int, what: str) -> None:
    """Charge 2^k as an allocation.  2^k has more than k / 4 digits, so once
    k / 4 passes the int-to-str digit limit the message reads ``at least
    2^k`` and the refusal is made without building 2^k."""
    if 0 < sys.get_int_max_str_digits() < k // 4:
        cap = _steps(DEFAULT_WORK_BUDGET)
        raise BudgetExceeded(f"{what} needs at least 2^{k} steps, default budget is {cap}")
    charge(1 << k, what, allocation=True)


def _steps(count: int) -> str:
    try:
        return f"{count}"
    except ValueError:  # past the int-to-str digit limit
        return f"at least 2^{count.bit_length() - 1}"
