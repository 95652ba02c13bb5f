"""Time-frequency shift operators and Gabor frame bounds on l2(G).

Vectors over G are indexed in the canonical element order of the group, so
L2(G) is the complex |G|-space and every shift is a unitary |G| x |G| matrix.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .groups import FiniteAbelianGroup, InvalidElementError, Lattice


def _roots_of_unity(order: int) -> np.ndarray:
    """exp(2 pi i p / order) for p = 0..order-1, exact where p is a multiple
    of order / 4: 1, i, -1 and -i carry no rounding in either part."""
    powers = np.arange(order)
    roots = np.exp(2j * np.pi * (powers / order))
    quarters = powers[4 * powers % order == 0]
    roots[quarters] = np.array([1, 1j, -1, -1j])[4 * quarters // order]
    return roots


def tf_shift(group: FiniteAbelianGroup, z) -> np.ndarray:
    """The unitary (shift by x, then modulate by w): (Mf)(t) = w(t) f(t - x),
    for one phase-space row z = (x, w); a (T, 2k) stack of rows gives the T
    unitaries as one (T, |G|, |G|) array. The character values are read off
    one table of L-th roots of unity, so +-1 and +-i are exact."""
    single = np.ndim(z) == 1
    zs = group.check_points([z] if single else z)
    k, n = len(group.orders), group.size
    ts = group.decode(np.arange(n), width=1)
    phase = group.pairing(ts, zs[:, k:]).T
    mats = np.zeros((len(zs), n, n), dtype=complex)
    cols = group.code(ts - zs[:, None, :k])
    mats[np.arange(len(zs))[:, None], np.arange(n), cols] = _roots_of_unity(group.lcm)[phase]
    return mats[0] if single else mats


@lru_cache(maxsize=256)
def shift_stack(lat: Lattice) -> np.ndarray:
    """All lattice shifts as one read-only array, cached so window sweeps stay cheap."""
    stack = tf_shift(lat.group, lat.rows)
    stack.flags.writeable = False
    return stack


def frame_operator(values: np.ndarray, lat: Lattice) -> np.ndarray:
    """S = C* C for each row g of a (T, |G|) stack of window values, as (T, |G|, |G|).

    C has rows conj(shift(z) g) over z in the lattice, so (C f)_z = <f, shift(z) g>
    with the inner product linear in the first argument, and
    <S f, f> = sum_z |<f, shift(z) g>|^2.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim != 2 or values.shape[1] != lat.group.size:
        raise InvalidElementError(
            f"windows must be a (T, {lat.group.size}) stack, got shape {values.shape}"
        )
    # c[t, z, a] = conj(shift(z) g_t)_a: the T analysis matrices
    c = np.conj(shift_stack(lat) @ values.T).transpose(2, 0, 1)
    s = c.conj().transpose(0, 2, 1) @ c
    return (s + s.conj().transpose(0, 2, 1)) / 2.0


def bessel_bound_opt(values: np.ndarray, lat: Lattice) -> np.ndarray:
    """The optimal Bessel bound of each window in a (T, |G|) stack: the largest
    eigenvalue of its frame operator, as a (T,) array."""
    top = np.linalg.eigvalsh(frame_operator(values, lat))[:, -1]
    return np.maximum(top, 0.0)


# -- JSON wire format ----------------------------------------------------

def window_from_dict(data: dict, group: FiniteAbelianGroup) -> np.ndarray:
    """The (|G|,) complex values of a window's JSON, in canonical group order."""
    if not isinstance(data, dict) or not isinstance(data.get("values"), list):
        raise InvalidElementError("window JSON must be an object with a 'values' list")
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
    if len(vals) != group.size:
        raise InvalidElementError(f"window has {len(vals)} entries, group has {group.size}")
    return np.array(vals, dtype=complex)
