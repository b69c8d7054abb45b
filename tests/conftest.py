"""Shared fixtures for the test suite."""

import pytest

from kstab import flags, monomials


@pytest.fixture(autouse=True)
def cold_points():
    """Every test starts and ends with no stepped min-plus point kept:
    counts of part steps then see a cold cache, and rows built under a
    patched step or certificate never reach a later test."""
    flags._point.cache_clear()
    yield
    flags._point.cache_clear()


@pytest.fixture(autouse=True)
def cold_facets():
    """Every test starts and ends with no multiplier ideal, support normal
    or minimum kept: multiplier_ideal, newton_polyhedron and lct_monomial
    share these caches, so a spy or a patched cap in one test never sees
    a result an earlier test cached, and none it leaves reaches a later one."""
    caches = (monomials._multiplier, monomials._support_normals, monomials._minima)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
