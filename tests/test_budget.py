"""The work-budget choke point and the budget in force."""

import pytest

from hstarlib.budget import DEFAULT_WORK_BUDGET, charge, charge_power_of_two, limit
from hstarlib.errors import BudgetExceeded


def test_amount_at_the_limit_is_admitted():
    with limit(10):
        charge(10, "walk")
    charge(DEFAULT_WORK_BUDGET, "walk")


def test_refusal_names_amount_and_limit():
    with limit(10), pytest.raises(BudgetExceeded, match="^walk needs 11 steps, budget is 10$"):
        charge(11, "walk")


def test_refusal_names_the_default_budget_when_none_is_given():
    cap = DEFAULT_WORK_BUDGET
    message = f"^walk needs {cap + 1} steps, default budget is {cap}$"
    with pytest.raises(BudgetExceeded, match=message):
        charge(cap + 1, "walk")
    with limit(None), pytest.raises(BudgetExceeded, match=message):
        charge(cap + 1, "walk")


def test_numbers_past_the_digit_limit_are_bounded_by_a_power_of_two():
    # 10^5000 has more digits than an int may print; 2^16609 <= 10^5000
    message = "x needs at least 2^20000 steps, budget is at least 2^16609"
    with limit(10**5000), pytest.raises(BudgetExceeded) as info:
        charge(2**20000, "x")
    assert str(info.value) == message


@pytest.mark.parametrize("k", [0, 22, 23, 14000, 14300, 17300, 20000])
def test_a_power_of_two_is_charged_as_the_int_it_names(k):
    # below the digit limit, at it and past it, under any budget in force
    with limit(10**12):
        try:
            charge(1 << k, "mask", allocation=True)
        except BudgetExceeded as refused:
            expected = str(refused)
        else:
            expected = None
        try:
            charge_power_of_two(k, "mask")
        except BudgetExceeded as refused:
            assert str(refused) == expected
        else:
            assert expected is None


def test_limits_nest_and_are_restored_on_the_way_out():
    with limit(100):
        with limit(5), pytest.raises(BudgetExceeded, match="budget is 5$"):
            charge(6, "walk")
        charge(100, "walk")
        with pytest.raises(BudgetExceeded, match="budget is 100$"):
            charge(101, "walk")
    charge(DEFAULT_WORK_BUDGET, "walk")


def test_an_allocation_is_held_to_the_default_budget():
    cap = DEFAULT_WORK_BUDGET
    message = f"^mask needs {cap + 1} steps, default budget is {cap}$"
    with limit(10**12), pytest.raises(BudgetExceeded, match=message):
        charge(cap + 1, "mask", allocation=True)
    with limit(0):
        charge(cap, "mask", allocation=True)


def test_a_generator_charges_against_the_budget_where_it_is_iterated():
    def walk():
        charge(7, "walk")
        yield

    steps = walk()
    with limit(6), pytest.raises(BudgetExceeded, match="budget is 6$"):
        next(steps)
    with limit(7):
        assert list(walk()) == [None]
