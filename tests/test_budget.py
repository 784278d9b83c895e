"""The work-budget choke point."""

import pytest

from hstarlib.budget import DEFAULT_WORK_BUDGET, charge
from hstarlib.errors import BudgetExceeded


def test_amount_at_the_limit_is_admitted():
    charge(10, 10, "walk")
    charge(DEFAULT_WORK_BUDGET, None, "walk")


def test_refusal_names_amount_and_limit():
    with pytest.raises(BudgetExceeded, match="^walk needs 11 steps, budget is 10$"):
        charge(11, 10, "walk")


def test_refusal_names_the_default_budget_when_none_is_given():
    limit = DEFAULT_WORK_BUDGET
    message = f"^walk needs {limit + 1} steps, default budget is {limit}$"
    with pytest.raises(BudgetExceeded, match=message):
        charge(limit + 1, None, "walk")


def test_numbers_past_the_digit_limit_are_bounded_by_a_power_of_two():
    # 10^5000 has more digits than an int may print; 2^16609 <= 10^5000
    message = "x needs at least 2^20000 steps, budget is at least 2^16609"
    with pytest.raises(BudgetExceeded) as info:
        charge(2**20000, 10**5000, "x")
    assert str(info.value) == message
