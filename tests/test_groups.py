import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gaborlab import groups
from gaborlab.groups import (
    FiniteAbelianGroup,
    InvalidElementError,
    Lattice,
    ResourceLimitError,
    _closed,
    adjoint_lattice,
    covolume,
    enumerate_subgroups,
    find_generators,
    group_from_dict,
    lattice_from_dict,
    lattice_from_generators,
    lattice_to_dict,
)
from reference import add, all_points, character_value, point

Z4 = FiniteAbelianGroup((4,))
Z2 = FiniteAbelianGroup((2,))
Z23 = FiniteAbelianGroup((2, 3))


def pp(group, x, w):
    return point(group, x, w)


def point_set(lat):
    return set(map(tuple, lat.rows.tolist()))


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
        lhs = character_value(Z23, w, add(Z23, x1, x2))
        rhs = character_value(Z23, w, x1) * character_value(Z23, w, x2)
        assert abs(lhs - rhs) <= 1e-12


def test_character_rejects_out_of_range():
    with pytest.raises(InvalidElementError):
        character_value(Z4, (4,), (0,))


def test_lattice_from_generators_closure():
    lat = lattice_from_generators(Z4, [pp(Z4, (2,), (0,)), pp(Z4, (0,), (2,))])
    assert point_set(lat) == {(0, 0), (2, 0), (0, 2), (2, 2)}


def test_lattice_empty_generators():
    lat = lattice_from_generators(Z4, [])
    assert lat.size == 1
    assert lat.codes.tolist() == [0]
    assert lat.rows.tolist() == [[0, 0]]


def test_lattice_full():
    lat = lattice_from_generators(Z4, [pp(Z4, (1,), (0,)), pp(Z4, (0,), (1,))])
    assert lat.size == 16


def commutation_pairing_trivial(group, z1, z2):
    # exact test for w2(x1) == w1(x2), with its own lcm bookkeeping so that
    # it shares no code with FiniteAbelianGroup.pairing
    lcm = math.lcm(*group.orders)
    k = len(group.orders)
    acc = 0
    for x1j, w1j, x2j, w2j, nj in zip(z1[:k], z1[k:], z2[:k], z2[k:], group.orders):
        acc += (w2j * x1j - w1j * x2j) * (lcm // nj)
    return acc % lcm == 0


def brute_force_adjoint(lat):
    # direct transcription of the definition: z is adjoint iff the
    # commutation phase with every lattice point is trivial
    group = lat.group
    return {
        z
        for z in all_points(group)
        if all(commutation_pairing_trivial(group, z, w) for w in lat.rows.tolist())
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
    assert point_set(adj) == brute_force_adjoint(lat)
    assert adj.size == expect_size


@pytest.mark.parametrize(
    "orders", [(n,) for n in range(2, 7)] + [(2, 2), (2, 3)], ids=lambda o: "x".join(map(str, o))
)
def test_adjoint_against_brute_force_every_lattice(orders):
    for lat in enumerate_subgroups(FiniteAbelianGroup(orders)):
        want = brute_force_adjoint(lat)
        assert point_set(adjoint_lattice(lat)) == want
        assert point_set(lat.adjoint) == want
        assert lat.adjoint is lat.adjoint


def test_adjoint_worked_values():
    lat = lattice_from_generators(Z4, [pp(Z4, (2,), (0,)), pp(Z4, (0,), (1,))])
    adj = adjoint_lattice(lat)
    assert point_set(adj) == {(0, 0), (0, 2)}

    sa = lattice_from_generators(Z4, [pp(Z4, (2,), (0,)), pp(Z4, (0,), (2,))])
    assert np.array_equal(adjoint_lattice(sa).codes, sa.codes)


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


def gaussian_binomial(m, k, p):
    # [m choose k]_p, the number of k-dimensional subspaces of F_p^m
    num = math.prod(p ** (m - i) - 1 for i in range(k))
    den = math.prod(p ** (k - i) - 1 for i in range(k))
    return num // den


@pytest.mark.parametrize(
    "orders,count",
    [((2,), 5), ((3,), 6), ((5,), 8), ((7,), 10), ((2, 2), 67), ((3, 3), 212)],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_elementary_abelian_subgroup_counts(orders, count):
    # the phase space of Z_p^r is F_p^(2r); its subgroups are its subspaces
    p, m = orders[0], 2 * len(orders)
    assert sum(gaussian_binomial(m, k, p) for k in range(m + 1)) == count
    assert len(enumerate_subgroups(FiniteAbelianGroup(orders))) == count


def test_decode_inverts_code():
    for orders in ((4,), (2, 3), (2, 2, 3)):
        group = FiniteAbelianGroup(orders)
        pts = np.array(all_points(group))
        codes = group.code(pts)
        assert codes.tolist() == list(range(group.size**2))
        assert np.array_equal(group.decode(codes), pts)
        elems = group.decode(np.arange(group.size), width=1)
        assert elems.tolist() == [list(z[: len(orders)]) for z in pts[:: group.size]]


def test_lattices_are_equal_and_hashed_by_group_and_generators():
    a = lattice_from_generators(Z4, [pp(Z4, (2,), (0,)), pp(Z4, (0,), (2,))])
    b = Lattice(Z4, np.array([[2, 0], [0, 2]]))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Lattice(Z4, [(0, 2), (2, 0)])
    assert a != Lattice(FiniteAbelianGroup((2, 2)), [(1, 0, 0, 0)])
    assert b.generators.dtype == np.int64 and not b.generators.flags.writeable
    assert not b.codes.flags.writeable


def test_lattice_rejects_bad_generators():
    for gens in ([(4, 0)], [(0, -1)], [(1,)], [(1, 0, 0)], [(1.5, 0)], [("1", 0)], [3]):
        with pytest.raises(InvalidElementError):
            Lattice(Z4, gens)
    # whole arrays, checked at once, name the first bad row as the rows do
    for gens, message in (
        (np.array([[1, 0], [0, 1], [1.5, 0]]), "array([1., 0.]) is not a sequence of integers"),
        (np.array([[1, 0], ["1", 0]]), "array(['1', '0'], dtype='<U21') is not a sequence of integers"),
        (np.array([[1, 0, 0], [0, 1, 0]]), "(0, 0) is not an element of Z(4,)"),
        (np.array([[1, 0], [2, 4], [5, 0]]), "(4,) is not an element of Z(4,)"),
        (np.array([[1, 0], [-1, 0]]), "(-1,) is not an element of Z(4,)"),
    ):
        with pytest.raises(InvalidElementError) as err:
            Lattice(Z4, gens)
        assert str(err.value) == message
    assert Lattice(Z4, np.array([[3, 1]], dtype=np.uint8)) == Lattice(Z4, [(3, 1)])
    assert Lattice(Z4, np.empty((0, 2), dtype=np.int64)) == Lattice(Z4, [])


def test_index_finds_lattice_points_and_rejects_others():
    lat = lattice_from_generators(Z4, [pp(Z4, (2,), (0,)), pp(Z4, (0,), (1,))])
    assert lat.index(lat.rows).tolist() == list(range(lat.size))
    assert lat.index([(6, 5)]).tolist() == [lat.rows.tolist().index([2, 1])]
    for outside in ([(1, 0)], [(3, 3)], [(2, 0), (1, 1)]):
        with pytest.raises(InvalidElementError):
            lat.index(outside)


def test_a_point_set_that_is_not_a_subgroup_is_rejected():
    for codes in ([0, 1], [1, 2], [0, 4, 8]):
        with pytest.raises(InvalidElementError, match="not closed"):
            _closed(Lattice(Z4, Z4.decode(codes)), len(codes))
    # {(0, 0), (2, 2)} is a subgroup: its span is the set itself
    lat = _closed(Lattice(Z4, Z4.decode([0, 10])), 2)
    assert lat.codes.tolist() == [0, 10]


def test_zero_and_redundant_rows_are_dropped():
    lat = Lattice(Z4, [(2, 0), (0, 2), (2, 2), (0, 0)])
    assert lat == Lattice(Z4, [(2, 0), (0, 2)])
    assert lat.generators.tolist() == [[2, 0], [0, 2]]
    assert Lattice(Z4, [(0, 0)]) == Lattice(Z4, [])


def test_each_enumerated_and_adjoint_lattice_is_spanned_once(monkeypatch):
    joins = []

    def counted(group, codes, rows, _join=groups._join):
        joins.append(len(rows))
        return _join(group, codes, rows)

    monkeypatch.setattr(groups, "_join", counted)
    # one join per generator: the span is grown once, while picking them
    lats = enumerate_subgroups(FiniteAbelianGroup((2, 2)))
    assert len(joins) == sum(len(lat.generators) for lat in lats)
    # the group is enumerated once per process: a second call spans nothing
    joins.clear()
    assert enumerate_subgroups(FiniteAbelianGroup((2, 2))) is lats
    assert joins == []
    for lat in lats:
        joins.clear()
        adj = adjoint_lattice(lat)
        assert len(joins) == len(adj.generators)


def test_enumeration_contains_extremes():
    lats = enumerate_subgroups(Z4)
    sizes = {lat.size for lat in lats}
    assert 1 in sizes and 16 in sizes


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_subgroups(FiniteAbelianGroup((17,)))


def test_adjoint_involution_and_size_product():
    """|lat|*|adjoint| = |G|^2 and the double adjoint returns the lattice."""
    for group in (Z2, FiniteAbelianGroup((3,)), Z4, Z23):
        for lat in enumerate_subgroups(group):
            adj = adjoint_lattice(lat)
            assert lat.size * adj.size == group.size**2
            assert np.array_equal(adjoint_lattice(adj).codes, lat.codes)
            assert covolume(lat) * covolume(adj) == 1


def test_group_json_round_trip():
    data = {"orders": [2, 3]}
    assert group_from_dict(json.loads(json.dumps(data))).orders == (2, 3)


def test_lattice_json_round_trip():
    lat = lattice_from_generators(Z4, [pp(Z4, (2,), (0,)), pp(Z4, (0,), (2,))])
    data = json.loads(json.dumps(lattice_to_dict(lat)))
    back = lattice_from_dict(data, group_from_dict(data))
    assert back == lat
    # and with the group supplied separately, orders may be omitted
    back2 = lattice_from_dict({"generators": data["generators"]}, Z4)
    assert back2 == lat


def test_lattice_json_rejects_garbage():
    with pytest.raises(InvalidElementError):
        lattice_from_dict({"generators": [[1, 2, 3]]}, Z4)
    with pytest.raises(InvalidElementError):
        lattice_from_dict({"nope": []}, Z4)
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
            group_from_dict({"orders": orders})


# -- brute-force closure oracle ------------------------------------------
#
# A breadth-first closure: each round adds every frontier point to every
# point found so far. It is quadratic in the subgroup size but plainly
# correct, and it keeps its own componentwise addition so that it shares no
# code with the sum-set joins in groups.

def bfs_closure(group, base, new):
    orders = group.orders * 2

    def add(a, b):
        return tuple((p + q) % n for p, q, n in zip(a, b, orders))

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


def bfs_generators(group, rows):
    # the greedy pick of find_generators, on the oracle closure: the rows,
    # in the order given, that are not yet in the span of those before them
    zero = (0,) * (2 * len(group.orders))
    gens, have = [], {zero}
    for z in rows:
        if z not in have:
            gens.append(z)
            have = bfs_closure(group, have, [z])
    return gens


ORACLE_GROUPS = [(n,) for n in range(2, 9)] + [(2, 2), (2, 3), (2, 4), (2, 2, 2)]


@pytest.mark.parametrize("orders", ORACLE_GROUPS, ids=lambda o: "x".join(map(str, o)))
def test_closure_matches_bfs_oracle(orders):
    group = FiniteAbelianGroup(orders)
    pts = all_points(group)
    zero = pts[0]
    rng = random.Random(repr(orders))
    gen_sets = [[z] for z in pts]
    gen_sets += [rng.sample(pts, count) for count in (2, 3) for _ in range(12)]
    for gens in gen_sets:
        want = bfs_closure(group, [zero], gens)
        lat = lattice_from_generators(group, gens)
        # the span, in canonical (lexicographic) order
        assert [tuple(z) for z in lat.rows.tolist()] == sorted(want)
        assert [tuple(z) for z in lat.generators.tolist()] == bfs_generators(group, gens)
        # over the span in canonical order: the greedy canonical generators
        got, codes = find_generators(group, lat.rows)
        assert np.array_equal(codes, lat.codes)
        assert [tuple(z) for z in got.tolist()] == bfs_generators(group, sorted(want))
