import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gaborlab.groups import (
    FiniteAbelianGroup,
    InvalidElementError,
    PhasePoint,
    ResourceLimitError,
    adjoint_lattice,
    character_value,
    covolume,
    enumerate_subgroups,
    find_generators,
    group_from_dict,
    group_to_dict,
    lattice_from_dict,
    lattice_from_generators,
    lattice_to_dict,
    phase_point,
    phase_space,
)

Z4 = FiniteAbelianGroup((4,))
Z2 = FiniteAbelianGroup((2,))
Z23 = FiniteAbelianGroup((2, 3))


def pp(group, x, w):
    return phase_point(group, x, w)


def test_character_trivial():
    for x in range(4):
        assert character_value(Z4, (0,), (x,)) == 1


def test_character_values():
    assert character_value(Z4, (1,), (2,)) == pytest.approx(-1)
    want = np.exp(2j * np.pi * 7 / 6)
    assert character_value(Z23, (1, 1), (1, 2)) == pytest.approx(want)
    # w * x overflows int64 here; the phase must still be exact
    n = 10**12 + 39
    want = np.exp(2j * np.pi * ((n - 2) * (n - 3) % n / n))
    assert character_value(FiniteAbelianGroup((n,)), (n - 3,), (n - 2,)) == pytest.approx(want)


def test_character_multiplicative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = tuple(rng.integers(0, o) for o in Z23.orders)
        x1 = tuple(rng.integers(0, o) for o in Z23.orders)
        x2 = tuple(rng.integers(0, o) for o in Z23.orders)
        lhs = character_value(Z23, w, Z23.add(x1, x2))
        rhs = character_value(Z23, w, x1) * character_value(Z23, w, x2)
        assert abs(lhs - rhs) <= 1e-12


def test_character_rejects_out_of_range():
    with pytest.raises(InvalidElementError):
        character_value(Z4, (4,), (0,))


def test_lattice_from_generators_closure():
    lat = lattice_from_generators(Z4, [pp(Z4, (2,), (0,)), pp(Z4, (0,), (2,))])
    got = {(z.x[0], z.w[0]) for z in lat.elements}
    assert got == {(0, 0), (2, 0), (0, 2), (2, 2)}


def test_lattice_empty_generators():
    lat = lattice_from_generators(Z4, [])
    assert lat.size == 1
    assert lat.elements[0] == PhasePoint((0,), (0,))


def test_lattice_full():
    lat = lattice_from_generators(Z4, [pp(Z4, (1,), (0,)), pp(Z4, (0,), (1,))])
    assert lat.size == 16


def commutation_pairing_trivial(group, z1, z2):
    # exact test for w2(x1) == w1(x2), with its own lcm bookkeeping so that
    # it shares no code with FiniteAbelianGroup.pairing
    lcm = math.lcm(*group.orders)
    acc = 0
    for x1j, w1j, x2j, w2j, nj in zip(z1.x, z1.w, z2.x, z2.w, group.orders):
        acc += (w2j * x1j - w1j * x2j) * (lcm // nj)
    return acc % lcm == 0


def brute_force_adjoint(lat):
    # direct transcription of the definition: z is adjoint iff the
    # commutation phase with every lattice point is trivial
    group = lat.group
    return {
        z
        for z in phase_space(group)
        if all(commutation_pairing_trivial(group, z, w) for w in lat.elements)
    }


@pytest.mark.parametrize(
    "gens,expect_size",
    [
        ([((2,), (0,)), ((0,), (2,))], 4),   # self-adjoint
        ([((1,), (0,)), ((0,), (1,))], 1),   # full lattice, trivial adjoint
        ([((2,), (0,)), ((0,), (1,))], 2),   # size 8 -> size 2
    ],
)
def test_adjoint_against_brute_force(gens, expect_size):
    lat = lattice_from_generators(Z4, [pp(Z4, x, w) for x, w in gens])
    adj = adjoint_lattice(lat)
    assert adj.element_set == brute_force_adjoint(lat)
    assert adj.size == expect_size


@pytest.mark.parametrize(
    "orders", [(n,) for n in range(2, 7)] + [(2, 2), (2, 3)], ids=lambda o: "x".join(map(str, o))
)
def test_adjoint_against_brute_force_every_lattice(orders):
    for lat in enumerate_subgroups(FiniteAbelianGroup(orders)):
        want = brute_force_adjoint(lat)
        assert adjoint_lattice(lat).element_set == want
        assert lat.adjoint.element_set == want
        assert lat.adjoint is lat.adjoint


def test_adjoint_worked_values():
    lat = lattice_from_generators(Z4, [pp(Z4, (2,), (0,)), pp(Z4, (0,), (1,))])
    adj = adjoint_lattice(lat)
    assert {(z.x[0], z.w[0]) for z in adj.elements} == {(0, 0), (0, 2)}

    sa = lattice_from_generators(Z4, [pp(Z4, (2,), (0,)), pp(Z4, (0,), (2,))])
    assert adjoint_lattice(sa).element_set == sa.element_set


def test_covolume_values():
    full = lattice_from_generators(Z4, [pp(Z4, (1,), (0,)), pp(Z4, (0,), (1,))])
    assert covolume(full) == Fraction(1, 4)
    sa = lattice_from_generators(Z4, [pp(Z4, (2,), (0,)), pp(Z4, (0,), (2,))])
    assert covolume(sa) == 1
    triv = lattice_from_generators(Z4, [])
    assert covolume(triv) == 4


def zn_squared_subgroup_count(n):
    # subgroups of Z_n x Z_n number sum_{a|n, b|n} gcd(a, b)
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return sum(math.gcd(a, b) for a in divs for b in divs)


def test_subgroup_counts():
    want = {2: 5, 3: 6, 4: 15, 5: 8, 6: 30, 7: 10, 8: 37}
    for n, count in want.items():
        assert zn_squared_subgroup_count(n) == count
        assert len(enumerate_subgroups(FiniteAbelianGroup((n,)))) == count


def test_enumeration_contains_extremes():
    lats = enumerate_subgroups(Z4)
    sizes = {lat.size for lat in lats}
    assert 1 in sizes and 16 in sizes


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_subgroups(FiniteAbelianGroup((17,)), cap=256)


def test_adjoint_involution_and_size_product():
    """|lat|*|adjoint| = |G|^2 and the double adjoint returns the lattice."""
    for group in (Z2, FiniteAbelianGroup((3,)), Z4, Z23):
        for lat in enumerate_subgroups(group):
            adj = adjoint_lattice(lat)
            assert lat.size * adj.size == group.size**2
            assert adjoint_lattice(adj).element_set == lat.element_set
            assert covolume(lat) * covolume(adj) == 1


def test_group_json_round_trip():
    data = group_to_dict(Z23)
    assert data == {"orders": [2, 3]}
    assert group_from_dict(json.loads(json.dumps(data))).orders == (2, 3)


def test_lattice_json_round_trip():
    lat = lattice_from_generators(Z4, [pp(Z4, (2,), (0,)), pp(Z4, (0,), (2,))])
    data = json.loads(json.dumps(lattice_to_dict(lat)))
    back = lattice_from_dict(data)
    assert back.element_set == lat.element_set
    # and with the group supplied separately, orders may be omitted
    back2 = lattice_from_dict({"generators": data["generators"]}, Z4)
    assert back2.element_set == lat.element_set


def test_lattice_json_rejects_garbage():
    with pytest.raises(InvalidElementError):
        lattice_from_dict({"generators": [[1, 2, 3]]}, Z4)
    with pytest.raises(InvalidElementError):
        lattice_from_dict({"nope": []})
    # residues and orders that are not integers are rejected, never truncated
    for data in (
        {"generators": [[[1.5], [0]]]},
        {"generators": [[["2"], [0]]]},
        {"generators": [[1, 2]]},
    ):
        with pytest.raises(InvalidElementError):
            lattice_from_dict(data, Z4)
    for orders in ([4.9], ["4"], 4):
        with pytest.raises(InvalidElementError):
            lattice_from_dict({"orders": orders, "generators": []})


# -- brute-force closure oracle ------------------------------------------
#
# A breadth-first closure: each round adds every frontier point to every
# point found so far. It is quadratic in the subgroup size but plainly
# correct, and it keeps its own componentwise addition so that it shares no
# code with the coset closure in groups._closure.

def bfs_closure(group, base, new):
    def add(a, b):
        return (
            tuple((p + q) % n for p, q, n in zip(a[0], b[0], group.orders)),
            tuple((p + q) % n for p, q, n in zip(a[1], b[1], group.orders)),
        )

    out = set(base)
    frontier = [z for z in new if z not in out]
    out.update(frontier)
    while frontier:
        added = []
        for a in frontier:
            for b in list(out):
                s = add(a, b)
                if s not in out:
                    out.add(s)
                    added.append(s)
        frontier = added
    return out


def bfs_generators(group, elements):
    # the greedy canonical-order pick of find_generators, on the oracle closure
    target = set(elements)
    zero = (group.zero, group.zero)
    gens, have = [], {zero}
    for z in sorted(target):
        if z not in have:
            gens.append(z)
            have = bfs_closure(group, have, [z])
            if len(have) == len(target):
                break
    assert have == target
    return tuple(gens)


ORACLE_GROUPS = [(n,) for n in range(2, 9)] + [(2, 2), (2, 3), (2, 4), (2, 2, 2)]


@pytest.mark.parametrize("orders", ORACLE_GROUPS, ids=lambda o: "x".join(map(str, o)))
def test_closure_matches_bfs_oracle(orders):
    group = FiniteAbelianGroup(orders)
    pts = phase_space(group)
    rng = random.Random(repr(orders))
    gen_sets = [[z] for z in pts]
    gen_sets += [rng.sample(pts, count) for count in (2, 3) for _ in range(12)]
    for gens in gen_sets:
        want = bfs_closure(group, [(group.zero, group.zero)], gens)
        lat = lattice_from_generators(group, gens)
        assert lat.element_set == want
        assert find_generators(group, lat.elements) == bfs_generators(group, want)
