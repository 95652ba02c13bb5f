"""Reference implementations kept only as test oracles.

Nothing in gaborlab calls these; the tests compare the program against them.
"""

import cmath
import math
from typing import Iterable

from gaborlab.groups import FiniteAbelianGroup, PhasePoint, phase_point


def character_value(group: FiniteAbelianGroup, w: Iterable[int], x: Iterable[int]) -> complex:
    """The character indexed by w evaluated at x: exp(2 pi i sum_j w_j x_j / N_j)."""
    phase = int(group.pairing(group.check(x), group.check(w))[0, 0])
    return cmath.exp(2j * math.pi * (phase / group.lcm))


def cocycle(group: FiniteAbelianGroup, z: PhasePoint, zp: PhasePoint) -> complex:
    """The phase making z -> tf_shift(z) projectively multiplicative."""
    z = phase_point(group, z[0], z[1])
    zp = phase_point(group, zp[0], zp[1])
    return complex(character_value(group, zp.w, z.x)).conjugate()
