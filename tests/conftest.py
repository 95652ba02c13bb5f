import pytest

from gaborlab.campaigns import _BUILDERS


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with the process caches empty, as a CLI run does, so
    tests that count builds or break splits do not depend on test order."""
    for cached in _BUILDERS:
        cached.cache_clear()
