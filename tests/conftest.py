"""Shared fixtures for the test suite."""

import pytest

from hstarlib import decomp, harness


@pytest.fixture(autouse=True)
def fresh_verdicts():
    # a verdict or split cached by one test must not answer another, say one
    # that patches decomp._a_coeffs or decomp.order_decomposition
    harness._numerator_verdict.cache_clear()
    harness._series_expansion.cache_clear()
    decomp._chi_numerator.cache_clear()
    decomp._direct_split.cache_clear()
    decomp._orientation_term.cache_clear()
