"""Finite abelian groups, their phase spaces, and the lattices inside them.

The ambient group is G = Z_{N1} x ... x Z_{Nk}, and its dual is identified
with G through exponential characters, so the phase space is G x G. A point
(x, w), shift by x and modulate by w, is one int64 row (x_1..x_k, w_1..w_k).

All phase arithmetic lives in FiniteAbelianGroup: `pairing` gives w(x) as an
exact integer phase mod L = lcm(N_j), `code` maps residue rows to their
canonical (mixed-radix) positions in G or G x G, and `decode` inverts it. A
point set is the sorted int64 array of its codes: lexicographic row order.

A Lattice is the span of phase-space rows, grown once by find_generators,
the one span builder; enumerated and adjoint lattices hand it their whole
point set. A lattice caches its adjoint, so it computes it at most once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np


# largest phase space |G|^2 that enumerate_subgroups will search
PHASE_SPACE_CAP = 256


class InvalidElementError(ValueError):
    """A residue tuple does not fit the group it was used with."""


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed its size cap."""


def _integers(values) -> tuple[int, ...]:
    """values as ints; a float or a string raises instead of being truncated."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise InvalidElementError(f"{values!r} is not a sequence of integers") from None


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """G = Z_{N1} x ... x Z_{Nk}; the operation is componentwise addition."""

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = _integers(self.orders)
        if not orders or any(n < 1 for n in orders):
            raise InvalidElementError(f"orders must be integers >= 1, got {self.orders!r}")
        object.__setattr__(self, "orders", orders)

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    @property
    def lcm(self) -> int:
        """L = lcm(N_j): every character value is an L-th root of unity."""
        return math.lcm(*self.orders)

    def check(self, elem: Iterable[int]) -> tuple[int, ...]:
        elem = _integers(elem)
        if len(elem) != len(self.orders) or any(
            not 0 <= c < n for c, n in zip(elem, self.orders)
        ):
            raise InvalidElementError(f"{elem!r} is not an element of Z{self.orders}")
        return elem

    def check_points(self, rows) -> np.ndarray:
        """Phase-space points as a (T, 2k) int64 array, each row (x, w) checked."""
        k = len(self.orders)
        checked = [self.check(z[:k]) + self.check(z[k:]) for z in map(_integers, rows)]
        return np.array(checked, dtype=np.int64).reshape(-1, 2 * k)

    def pairing(self, xs, ws) -> np.ndarray:
        """w_b(x_a) for residue rows xs and ws, as the exact integer phase
        [a, b] = sum_j x_aj w_bj L / N_j mod L, in units of 1/L."""
        k = len(self.orders)
        # each term x * w * L / N_j is below N_j * L; past int64, Python ints keep it exact
        dtype = np.int64 if k * max(self.orders) * self.lcm < 2**63 else object
        xs = np.asarray(xs, dtype=dtype).reshape(-1, k)
        ws = np.asarray(ws, dtype=dtype).reshape(-1, k)
        weights = np.array([self.lcm // n for n in self.orders], dtype=dtype)
        out = xs @ (ws * weights).T
        out %= self.lcm
        return out

    def code(self, rows) -> np.ndarray:
        """Canonical positions of residue rows, reduced mod the orders: a row x
        is a position in G, a row (x, w) one in G x G."""
        rows = np.asarray(rows, dtype=np.int64)
        dims = self.orders * (rows.shape[-1] // len(self.orders))
        return np.ravel_multi_index(tuple(np.moveaxis(rows, -1, 0)), dims, mode="wrap")

    def decode(self, codes, width: int = 2) -> np.ndarray:
        """Inverse of code: the rows at canonical positions, of width * k
        residues (width 1 for elements of G, 2 for phase-space points)."""
        return np.stack(np.unravel_index(codes, self.orders * width), axis=-1)


def _cyclic(group: FiniteAbelianGroup, z) -> np.ndarray:
    """The rows m * z of the cyclic subgroup <z>, one per m below its order."""
    order = math.lcm(*(n // math.gcd(c, n) for c, n in zip(z.tolist(), group.orders * 2)))
    return np.arange(order)[:, None] * z


def _join(group: FiniteAbelianGroup, codes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Sorted codes of the sum set {a + b : a in codes, b in rows}."""
    # sorted and deduplicated by hand: np.unique imports numpy.ma on first use
    sums = np.sort(group.code(group.decode(codes)[:, None] + rows[None]), axis=None)
    return sums[np.concatenate(([True], sums[1:] != sums[:-1]))]


class Lattice:
    """The subgroup of phase space G x G spanned by its generators.

    generators holds the given rows that grew the span (zero and redundant
    rows are dropped); codes holds the span as sorted phase-space codes, its
    canonical order, and rows its points in that order. Lattices are equal
    when their groups and generators are.
    """

    def __init__(self, group: FiniteAbelianGroup, generators: Iterable):
        gens, codes = find_generators(group, group.check_points(generators))
        gens.flags.writeable = codes.flags.writeable = False
        self.group, self.generators, self.codes = group, gens, codes
        self._key = (group, tuple(group.code(gens).tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    @property
    def size(self) -> int:
        return len(self.codes)

    @cached_property
    def rows(self) -> np.ndarray:
        """The points as a (size, 2k) array in canonical order."""
        rows = self.group.decode(self.codes)
        rows.flags.writeable = False
        return rows

    def index(self, rows) -> np.ndarray:
        """Canonical positions of lattice points given as rows."""
        codes = self.group.code(rows)
        pos = np.searchsorted(self.codes, codes)
        if not np.array_equal(self.codes[np.minimum(pos, self.size - 1)], codes):
            raise InvalidElementError("a point is not in the lattice")
        return pos

    @cached_property
    def adjoint(self) -> Lattice:
        """The adjoint lattice, computed on first use."""
        return adjoint_lattice(self)


def find_generators(group: FiniteAbelianGroup, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one span builder: walk the phase-space rows in order, skip each one
    already in the span and join the cyclic subgroup of every other one.
    Returns (the rows that grew the span, the span's sorted codes)."""
    have = np.zeros(group.size**2, dtype=bool)
    have[0] = True
    span, grew = np.zeros(1, dtype=np.int64), []
    for i, c in enumerate(group.code(rows).tolist()):
        if not have[c]:
            grew.append(i)
            span = _join(group, span, _cyclic(group, rows[i]))
            have[span] = True
    return rows[grew], span


def _closed(lat: Lattice, count: int) -> Lattice:
    """lat, built from a point set of count rows, if its span is that set."""
    if lat.size != count:
        raise InvalidElementError("point set is not closed under the group operation")
    return lat


def lattice_from_generators(group: FiniteAbelianGroup, gens: Iterable) -> Lattice:
    """The subgroup of G x G generated by the rows gens, in canonical order."""
    return Lattice(group, gens)


def adjoint_lattice(lat: Lattice) -> Lattice:
    """All phase-space points whose shifts commute with every shift from lat.

    The shifts at (x1, w1) and (x2, w2) commute iff the symplectic phase
    w2(x1) - w1(x2) is 0 mod L; that is the pairing of (x1, w1) with
    (w2, -x2) over G x G. One exact integer mask over the phase space tests
    it; the generators are enough because the pairing is biadditive.
    """
    group = lat.group
    k = len(group.orders)
    zs = group.decode(np.arange(group.size**2))
    turned = np.hstack([lat.generators[:, k:], -lat.generators[:, :k]])
    members = zs[np.all(FiniteAbelianGroup(group.orders * 2).pairing(zs, turned) == 0, axis=1)]
    return _closed(Lattice(group, members), len(members))


def covolume(lat: Lattice) -> Fraction:
    """Exact covolume |G| / |lat| (counting measure on G)."""
    return Fraction(lat.group.size, lat.size)


def enumerate_subgroups(group: FiniteAbelianGroup) -> list[Lattice]:
    """Every subgroup of G x G, canonically ordered and duplicate-free.

    Breadth first from the trivial subgroup: each subgroup found is joined,
    in one sum set, with every distinct cyclic subgroup it does not contain,
    and the joins are told apart by their membership masks.
    """
    n = group.size**2
    if n > PHASE_SPACE_CAP:
        raise ResourceLimitError(f"phase space has {n} points, above the cap {PHASE_SPACE_CAP}")
    # the multiples m * z for m < L cover <z> evenly, so their sorted codes name it
    multiples = np.arange(group.lcm)[None, :, None] * group.decode(np.arange(n))[:, None]
    named = np.sort(group.code(multiples), axis=1)
    cyclic = np.array(list({row.tobytes(): row for row in named}.values()))
    cyclic_rows = group.decode(cyclic)
    trivial = np.zeros(n, dtype=bool)
    trivial[0] = True
    found = {trivial.tobytes(): trivial.nonzero()[0]}
    frontier = list(found.values())
    while frontier:
        grown = []
        for sub in frontier:
            inside = np.zeros(n, dtype=bool)
            inside[sub] = True
            new = cyclic_rows[~inside[cyclic].all(axis=1)]
            sums = group.code(group.decode(sub)[None, :, None] + new[:, None])
            masks = np.zeros((len(new), n), dtype=bool)
            masks[np.arange(len(new))[:, None, None], sums] = True
            for mask in masks:
                key = mask.tobytes()
                if key not in found:
                    found[key] = mask.nonzero()[0]
                    grown.append(found[key])
        frontier = grown
    lattices = (_closed(Lattice(group, group.decode(sub)), len(sub)) for sub in found.values())
    return sorted(lattices, key=lambda lat: (lat.size, lat.codes.tolist()))


# -- JSON wire formats ---------------------------------------------------

def group_from_dict(data: dict) -> FiniteAbelianGroup:
    if not isinstance(data, dict) or "orders" not in data:
        raise InvalidElementError("group JSON must be an object with an 'orders' list")
    return FiniteAbelianGroup(data["orders"])


def lattice_to_dict(lat: Lattice) -> dict:
    k = len(lat.group.orders)
    return {
        "orders": list(lat.group.orders),
        "generators": [[z[:k], z[k:]] for z in lat.generators.tolist()],
    }


def lattice_from_dict(data: dict, group: FiniteAbelianGroup) -> Lattice:
    if not isinstance(data, dict) or not isinstance(data.get("generators"), list):
        raise InvalidElementError("lattice JSON must be an object with a 'generators' list")
    gens = []
    for pair in data["generators"]:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidElementError(f"generator {pair!r} is not an [x, w] pair")
        gens.append(group.check(pair[0]) + group.check(pair[1]))
    return lattice_from_generators(group, gens)
