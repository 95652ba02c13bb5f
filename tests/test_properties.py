"""Property-based checks for the group and cocycle layer."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from gaborlab.groups import (
    FiniteAbelianGroup,
    adjoint_lattice,
    covolume,
    lattice_from_generators,
)
from reference import add, character_value, cocycle, point


@st.composite
def groups(draw):
    k = draw(st.integers(1, 2))
    orders = tuple(draw(st.integers(2, 4)) for _ in range(k))
    return FiniteAbelianGroup(orders)


@st.composite
def group_with_points(draw, count):
    group = draw(groups())
    pts = []
    for _ in range(count):
        x = tuple(draw(st.integers(0, o - 1)) for o in group.orders)
        w = tuple(draw(st.integers(0, o - 1)) for o in group.orders)
        pts.append(point(group, x, w))
    return group, pts


@st.composite
def lattices(draw):
    group, gens = draw(group_with_points(draw(st.integers(0, 2))))
    return lattice_from_generators(group, gens)


@given(group_with_points(2))
def test_character_multiplicative(data):
    group, (z1, z2) = data
    k = len(group.orders)
    w, x1, x2 = z1[k:], z1[:k], z2[:k]
    lhs = character_value(group, w, add(group, x1, x2))
    rhs = character_value(group, w, x1) * character_value(group, w, x2)
    assert abs(lhs - rhs) <= 1e-12


@settings(max_examples=60)
@given(lattices())
def test_adjoint_is_an_involution(lat):
    adj = adjoint_lattice(lat)
    back = adjoint_lattice(adj)
    assert np.array_equal(back.codes, lat.codes)


@settings(max_examples=60)
@given(lattices())
def test_covolume_reciprocity(lat):
    adj = adjoint_lattice(lat)
    assert covolume(lat) * covolume(adj) == Fraction(1)
    assert lat.size * adj.size == lat.group.size**2


@given(group_with_points(3))
def test_cocycle_identity(data):
    group, (z1, z2, z3) = data
    z12 = add(group, z1, z2)
    z23 = add(group, z2, z3)
    lhs = cocycle(group, z1, z2) * cocycle(group, z12, z3)
    rhs = cocycle(group, z2, z3) * cocycle(group, z1, z23)
    assert abs(lhs - rhs) <= 1e-12


@given(group_with_points(2))
def test_cocycle_modulus_one(data):
    group, (z1, z2) = data
    assert abs(abs(cocycle(group, z1, z2)) - 1.0) <= 1e-12
