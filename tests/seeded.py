"""The draws of `gaborlab bimodule --seed s`, for tests that name a random
instance or its vectors by an integer seed.

The command splits its seed through campaign_rng with one key path per draw:
0xB10C for the instance and "vectors" for the vectors.
"""

from gaborlab.bimodule import gaussian_vector, random_instance
from gaborlab.reporting import campaign_rng

INSTANCE_KEY = (0xB10C,)
VECTORS_KEY = ("vectors",)


def seeded_instance(seed: int, **kwargs):
    """random_instance as the bimodule command draws it from seed."""
    return random_instance(campaign_rng(seed, *INSTANCE_KEY), **kwargs)


def seeded_vectors(seed: int, trials: int, dim: int):
    """The command's (trials, dim) stack of Gaussian vectors for seed."""
    return gaussian_vector(campaign_rng(seed, *VECTORS_KEY), trials, dim)
