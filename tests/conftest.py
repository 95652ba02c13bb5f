import pytest

from gaborlab.algebra import _standard_blocks
from gaborlab.duality import gabor_bimodule
from gaborlab.gabor import shift_stack


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with the process caches empty, as a CLI run does, so
    tests that count builds or break splits do not depend on test order."""
    for cached in (gabor_bimodule, _standard_blocks, shift_stack):
        cached.cache_clear()
