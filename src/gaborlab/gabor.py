"""Time-frequency shift operators and Gabor frame bounds on l2(G).

Vectors over G are indexed in the canonical element order of the group, so
L2(G) is the complex |G|-space and every shift is a unitary |G| x |G| matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .groups import (
    FiniteAbelianGroup,
    InvalidElementError,
    Lattice,
    PhasePoint,
    character_value,
    phase_point,
)

ATOL_ALGEBRAIC = 1e-12


@dataclass(frozen=True)
class Window:
    """A vector g in L2(G), stored in canonical group order."""

    group: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex).reshape(-1)
        if vals.shape[0] != self.group.size:
            raise InvalidElementError(
                f"window has {vals.shape[0]} entries, group has {self.group.size}"
            )
        if not np.all(np.isfinite(vals.view(float))):
            raise InvalidElementError("window entries must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class GaborSystem:
    """The family of shifted windows {shift(z) g : z in the lattice}."""

    window: Window
    lattice: Lattice

    def __post_init__(self):
        if self.window.group != self.lattice.group:
            raise InvalidElementError("window and lattice live over different groups")

    def analysis(self) -> np.ndarray:
        return analysis_matrix(self.window, self.lattice)

    def frame(self) -> np.ndarray:
        return frame_operator(self.window, self.lattice)

    def bessel_bound(self) -> float:
        return bessel_bound_opt(self.window, self.lattice)


def tf_shift(group: FiniteAbelianGroup, z: PhasePoint) -> np.ndarray:
    """The unitary (shift by x, then modulate by w): (Mf)(t) = w(t) f(t - x)."""
    z = phase_point(group, z[0], z[1])
    n = group.size
    ts = np.array(group.elements(), dtype=np.int64).reshape(n, -1)
    mat = np.zeros((n, n), dtype=complex)
    phase = group.pairing(ts, z.w)[:, 0]
    mat[np.arange(n), group.code(ts - z.x)] = np.exp(2j * np.pi * (phase / group.lcm))
    return mat


def cocycle(group: FiniteAbelianGroup, z: PhasePoint, zp: PhasePoint) -> complex:
    """The phase making z -> tf_shift(z) projectively multiplicative."""
    z = phase_point(group, z[0], z[1])
    zp = phase_point(group, zp[0], zp[1])
    return complex(character_value(group, zp.w, z.x)).conjugate()


@lru_cache(maxsize=256)
def shift_stack(lat: Lattice) -> np.ndarray:
    """All lattice shifts as one array, cached so window sweeps stay cheap."""
    return np.stack([tf_shift(lat.group, z) for z in lat.elements])


def analysis_matrix(g: Window, lat: Lattice) -> np.ndarray:
    """Rows are conj(shift(z) g) over z in the lattice, so (C f)_z = <f, shift(z) g>.

    The inner product is linear in the first argument.
    """
    if g.group != lat.group:
        raise InvalidElementError("window and lattice live over different groups")
    return np.conj(shift_stack(lat) @ g.values)


def frame_operator(g: Window, lat: Lattice) -> np.ndarray:
    """S = C* C, the positive operator with <S f, f> = sum_z |<f, shift(z) g>|^2."""
    c = analysis_matrix(g, lat)
    s = c.conj().T @ c
    return (s + s.conj().T) / 2.0


def bessel_bound_opt(g: Window, lat: Lattice) -> float:
    """The optimal Bessel bound: largest eigenvalue of the frame operator."""
    s = frame_operator(g, lat)
    top = float(np.linalg.eigvalsh(s)[-1])
    return max(top, 0.0)


# -- JSON wire format ----------------------------------------------------

def window_to_dict(g: Window) -> dict:
    return {
        "orders": list(g.group.orders),
        "values": [[float(v.real), float(v.imag)] for v in g.values],
    }


def window_from_dict(data: dict, group: FiniteAbelianGroup | None = None) -> Window:
    if not isinstance(data, dict) or "values" not in data:
        raise InvalidElementError("window JSON must be an object with a 'values' list")
    if group is None:
        if "orders" not in data:
            raise InvalidElementError("window JSON needs 'orders' when no group is given")
        group = FiniteAbelianGroup(data["orders"])
    vals = []
    for entry in data["values"]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise InvalidElementError(f"window value {entry!r} is not a [re, im] pair")
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in entry):
            raise InvalidElementError(f"window value {entry!r} is not a pair of numbers")
        try:
            vals.append(complex(float(entry[0]), float(entry[1])))
        except OverflowError:
            raise InvalidElementError(f"window value {entry!r} overflows a float") from None
    return Window(group, np.array(vals, dtype=complex))
