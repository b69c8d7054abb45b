"""Shared fixtures for the test suite."""

import pytest

from kstab import flags


@pytest.fixture(autouse=True)
def cold_points():
    """Every test starts and ends with no stepped min-plus point kept:
    counts of part steps then see a cold cache, and rows built under a
    patched step or certificate never reach a later test."""
    flags._point.cache_clear()
    yield
    flags._point.cache_clear()
