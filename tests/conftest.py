"""Shared fixtures for the test suite."""

import pytest

from hstarlib import decomp


@pytest.fixture(autouse=True)
def fresh_verdicts():
    # a verdict or split memoised by one test must not answer another, say
    # one that patches decomp._a_coeffs or decomp.order_decomposition
    decomp._memo.cache_clear()
