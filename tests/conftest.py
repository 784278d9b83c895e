"""Shared fixtures for the test suite."""

import pytest

from hstarlib import harness


@pytest.fixture(autouse=True)
def fresh_verdicts():
    # a verdict cached by one test must not answer another, say one that
    # patches decomp._a_coeffs or decomp.order_decomposition
    harness._numerator_verdict.cache_clear()
    harness._series_expansion.cache_clear()
