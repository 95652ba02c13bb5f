"""Finite abelian groups, their phase spaces, and the lattices inside them.

The ambient group is G = Z_{N1} x ... x Z_{Nk} with elements stored as tuples
of residues. The dual group is identified with G itself through exponential
characters, so a phase-space point is a pair (x, w) of residue tuples and the
phase space is G x G.

All phase arithmetic lives in FiniteAbelianGroup: `pairing` gives w(x) as an
exact integer phase mod L = lcm(N_j), and `code` maps residue rows to their
canonical (mixed-radix) position in `elements()` or `phase_space()`.

A Lattice is defined by its generators: its element set is their span,
closed once at construction. Its adjoint lattice is cached on it, so each
lattice object computes its adjoint at most once.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np


class InvalidElementError(ValueError):
    """A residue tuple does not fit the group it was used with."""


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed its configured size cap."""


def _integers(values) -> tuple[int, ...]:
    """values as ints; a float or a string raises instead of being truncated."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise InvalidElementError(f"{values!r} is not a sequence of integers") from None


class PhasePoint(NamedTuple):
    """A phase-space point (x, w): shift by x, modulate by the character w."""

    x: tuple[int, ...]
    w: tuple[int, ...]


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
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

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

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((p + q) % n for p, q, n in zip(a, b, self.orders))

    def elements(self) -> list[tuple[int, ...]]:
        """All elements in canonical (lexicographic) order."""
        return [tuple(t) for t in itertools.product(*(range(n) for n in self.orders))]

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
        indexes elements(), a row (x, w) indexes phase_space()."""
        rows = np.asarray(rows, dtype=np.int64)
        dims = self.orders * (rows.shape[-1] // len(self.orders))
        return np.ravel_multi_index(tuple(np.moveaxis(rows, -1, 0)), dims, mode="wrap")


def character_value(group: FiniteAbelianGroup, w: Iterable[int], x: Iterable[int]) -> complex:
    """The character indexed by w evaluated at x: exp(2 pi i sum_j w_j x_j / N_j)."""
    phase = int(group.pairing(group.check(x), group.check(w))[0, 0])
    return cmath.exp(2j * math.pi * (phase / group.lcm))


def phase_point(group: FiniteAbelianGroup, x: Iterable[int], w: Iterable[int]) -> PhasePoint:
    return PhasePoint(group.check(x), group.check(w))


def phase_space(group: FiniteAbelianGroup) -> list[PhasePoint]:
    """All of G x G in canonical order."""
    elems = group.elements()
    return [PhasePoint(x, w) for x in elems for w in elems]


def pp_add(group: FiniteAbelianGroup, z1: PhasePoint, z2: PhasePoint) -> PhasePoint:
    return PhasePoint(group.add(z1.x, z2.x), group.add(z1.w, z2.w))


def _closure(
    group: FiniteAbelianGroup, base: set[PhasePoint], new: Iterable[PhasePoint]
) -> tuple[set[PhasePoint], list[PhasePoint]]:
    """Subgroup generated by base and the new points, grown one coset at a time,
    and the new points that enlarged it, in order.

    base must already be a subgroup: closed under addition and containing
    zero. Each new point g outside the current subgroup H is folded in as
    H + <g> = H | (g + H) | (2g + H) | ..., stopping at the first multiple
    k*g that lies in what has been built so far (equivalently, in H: the
    cosets j*g + H for j < k are pairwise distinct). Every pp_add yields a
    new element, so the cost is linear in the size of the result.
    """
    out = set(base)
    used = []
    for g in new:
        if g in out:
            continue
        used.append(g)
        sub = list(out)
        step = g
        while step not in out:
            out.update(pp_add(group, step, h) for h in sub)
            step = pp_add(group, step, g)
    return out, used


@dataclass(frozen=True)
class Lattice:
    """The subgroup of phase space G x G spanned by its generators; elements
    holds the span in canonical order."""

    group: FiniteAbelianGroup
    generators: tuple[PhasePoint, ...]
    elements: tuple[PhasePoint, ...] = field(init=False)

    def __post_init__(self):
        group = self.group
        gens = tuple(phase_point(group, z[0], z[1]) for z in self.generators)
        zero = PhasePoint(group.zero, group.zero)
        span, _ = _closure(group, {zero}, gens)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "elements", tuple(sorted(span)))

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def element_set(self) -> frozenset[PhasePoint]:
        return frozenset(self.elements)

    def __contains__(self, z: PhasePoint) -> bool:
        return z in self.element_set

    def index(self, z: PhasePoint) -> int:
        """Position of z in the canonical element order."""
        return self._index_map[z]

    @cached_property
    def _index_map(self) -> dict[PhasePoint, int]:
        return {z: i for i, z in enumerate(self.elements)}

    @cached_property
    def adjoint(self) -> Lattice:
        """The adjoint lattice, computed on first use."""
        return adjoint_lattice(self)


def find_generators(group: FiniteAbelianGroup, elements: Iterable[PhasePoint]) -> tuple[PhasePoint, ...]:
    """A generating set picked greedily in canonical order (deterministic)."""
    target = set(elements)
    zero = PhasePoint(group.zero, group.zero)
    span, gens = _closure(group, {zero}, sorted(target))
    if span != target:
        raise InvalidElementError("element set is not closed under the group operation")
    return tuple(gens)


def lattice_from_generators(group: FiniteAbelianGroup, gens: Iterable[PhasePoint]) -> Lattice:
    """The subgroup of G x G generated by gens, with canonical element order."""
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
    zs = np.indices(group.orders * 2).reshape(2 * k, -1).T  # phase space, canonical order
    gens = np.array(lat.generators, dtype=np.int64).reshape(-1, 2 * k)
    turned = np.hstack([gens[:, k:], -gens[:, :k]])
    keep = np.all(FiniteAbelianGroup(group.orders * 2).pairing(zs, turned) == 0, axis=1)
    pts = [PhasePoint(tuple(z[:k]), tuple(z[k:])) for z in zs[keep].tolist()]
    return Lattice(group, find_generators(group, pts))


def covolume(lat: Lattice) -> Fraction:
    """Exact covolume |G| / |lat| (counting measure on G)."""
    return Fraction(lat.group.size, lat.size)


def enumerate_subgroups(group: FiniteAbelianGroup, cap: int = 256) -> list[Lattice]:
    """Every subgroup of G x G, canonically ordered and duplicate-free."""
    if group.size ** 2 > cap:
        raise ResourceLimitError(
            f"phase space has {group.size ** 2} points, above the cap {cap}"
        )
    pts = phase_space(group)
    zero = PhasePoint(group.zero, group.zero)
    trivial = frozenset({zero})
    known: set[frozenset[PhasePoint]] = {trivial}
    frontier = [trivial]
    while frontier:
        grown: list[frozenset[PhasePoint]] = []
        for sub in frontier:
            for g in pts:
                if g in sub:
                    continue
                bigger = frozenset(_closure(group, set(sub), [g])[0])
                if bigger not in known:
                    known.add(bigger)
                    grown.append(bigger)
        frontier = grown
    lattices = [Lattice(group, find_generators(group, sub)) for sub in known]
    lattices.sort(key=lambda lat: (lat.size, lat.elements))
    return lattices


# -- JSON wire formats ---------------------------------------------------

def group_to_dict(group: FiniteAbelianGroup) -> dict:
    return {"orders": list(group.orders)}


def group_from_dict(data: dict) -> FiniteAbelianGroup:
    if not isinstance(data, dict) or "orders" not in data:
        raise InvalidElementError("group JSON must be an object with an 'orders' list")
    return FiniteAbelianGroup(data["orders"])


def lattice_to_dict(lat: Lattice) -> dict:
    return {
        "orders": list(lat.group.orders),
        "generators": [[list(z.x), list(z.w)] for z in lat.generators],
    }


def lattice_from_dict(data: dict, group: FiniteAbelianGroup | None = None) -> Lattice:
    if not isinstance(data, dict) or "generators" not in data:
        raise InvalidElementError("lattice JSON must be an object with a 'generators' list")
    if group is None:
        group = group_from_dict(data)
    gens = []
    for pair in data["generators"]:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidElementError(f"generator {pair!r} is not an [x, w] pair")
        gens.append(phase_point(group, pair[0], pair[1]))
    return lattice_from_generators(group, gens)
