"""Weight set construction, reduction mod divisors, and subgroup detection."""

import math
import zlib

import pytest

from wzs.modarith import units
from wzs.weightsets import (
    by_kind,
    coset_minima,
    cubes,
    custom,
    pm_one,
    reduced_alphabet,
    singleton_one,
    squares,
    units_weights,
)


def brute_subgroup(elems, n):
    s = set(elems)
    return 1 in s and all(a * b % n in s for a in s for b in s)


def brute_coset_minima(ws):
    """The double loop: rep[x] = min(x, min over weights w of w*x mod n)."""
    n = ws.modulus
    return [min([x] + [w * x % n for w in ws.elements]) for x in range(n)]


def test_non_subgroup_uses_no_orbits_and_builds_no_coset_table():
    ws = custom(1000, [1, 2])
    assert not ws.is_subgroup and not ws.uses_orbits
    assert "_cosets" not in vars(ws)


def test_cubes_prime_2_mod_3_is_all_units():
    for p in (5, 11, 17, 23, 29):
        assert set(cubes(p).elements) == units(p)


def test_cubes_19_subgroup_of_size_six():
    t = cubes(19)
    assert len(t) == (19 - 1) // 3 == 6
    assert t.is_subgroup


def test_cubes_9_oracle():
    expected = {pow(u, 3, 9) for u in {1, 2, 4, 5, 7, 8}}
    assert expected == {1, 8}
    assert set(cubes(9).elements) == expected


def test_cubes_size_for_primes_1_mod_3():
    for p in (7, 13, 19, 31, 37, 43):
        t = cubes(p)
        assert len(t) == (p - 1) // 3
        assert t.is_subgroup


def test_squares_11_oracle():
    expected = {pow(u, 2, 11) for u in units(11)}
    assert expected == {1, 3, 4, 5, 9}
    assert set(squares(11).elements) == expected


def test_singleton_and_pm_one():
    assert singleton_one(7).elements == (1,)
    assert pm_one(7).elements == (1, 6)
    assert pm_one(2).elements == (1,)


def test_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        cubes(1)


def test_custom_validation():
    with pytest.raises(ValueError):
        custom(7, [])
    with pytest.raises(ValueError):
        custom(7, [0])
    with pytest.raises(ValueError):
        custom(7, [7])
    assert custom(7, [3, 1, 3]).elements == (1, 3)


def test_by_kind_aliases():
    assert by_kind("pm1", 7).kind == "pm_one"
    assert by_kind("one", 7).kind == "singleton_one"
    with pytest.raises(ValueError):
        by_kind("custom", 7)
    with pytest.raises(ValueError):
        by_kind("nope", 7)


def reduce_mod(a, m):
    """The image of a weight set under reduction mod a divisor m."""
    return tuple(sorted({x % m for x in a.elements}))


def test_project_cubes_95():
    assert reduce_mod(cubes(95), 19) == cubes(19).elements
    assert reduce_mod(cubes(95), 5) == (1, 2, 3, 4)
    assert reduce_mod(singleton_one(95), 5) == (1,)


def test_project_cubes_commutes_with_divisors():
    for n in (35, 55, 95, 385):
        for m in (d for d in range(2, n) if n % d == 0):
            assert reduce_mod(cubes(n), m) == cubes(m).elements


def test_subgroup_flag_matches_brute_closure():
    kinds = (cubes, squares, units_weights, pm_one, singleton_one)
    moduli = list(range(2, 151)) + [243, 289, 343, 401, 499, 500]
    for n in moduli:
        for make in kinds:
            ws = make(n)
            assert ws.is_subgroup == brute_subgroup(ws.elements, n), (make.__name__, n)


def test_custom_non_subgroup_detected():
    assert not custom(7, [2, 3]).is_subgroup
    assert not custom(7, [1, 2]).is_subgroup
    assert custom(7, [1, 2, 4]).is_subgroup
    # closed under multiplication and contains 1, but 3 is not a unit mod 6
    assert not custom(6, [1, 3]).is_subgroup
    assert reduced_alphabet(custom(6, [1, 3])) == ([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])


def test_reduced_alphabet_divisor_anchors():
    # The symbols are the coset minima ordered by (gcd with n, value), so a
    # divisor d heads the symbols of gcd d, and the first terms (the divisors
    # below n, ascending) appear in the same order as their groups.
    kinds = (cubes, squares, units_weights, pm_one, singleton_one)
    for n in range(2, 200):
        for t in (make(n) for make in kinds):
            rep = coset_minima(t)
            firsts, symbols = reduced_alphabet(t)
            assert sorted(symbols) == [x for x in range(1, n) if rep[x] == x]
            keys = [(math.gcd(x, n), x) for x in symbols]
            assert keys == sorted(keys), (t.kind, n)
            assert firsts == [d for d in range(1, n) if n % d == 0], (t.kind, n)
            heads = [x for i, x in enumerate(symbols) if i == 0 or keys[i - 1][0] != keys[i][0]]
            assert heads == firsts, (t.kind, n)


def test_coset_minima_matches_brute_double_loop():
    kinds = (cubes, squares, units_weights, pm_one, singleton_one)
    sets = [make(n) for n in list(range(2, 151)) + [243, 343, 500] for make in kinds]
    sets.append(custom(7, [1, 2, 4]))
    for ws in sets:
        assert list(coset_minima(ws)) == brute_coset_minima(ws), (ws.kind, ws.modulus)


@pytest.mark.parametrize("ws", [custom(7, [2, 3]), custom(6, [1, 3]), custom(12, [5, 7])])
def test_coset_minima_refuse_a_non_subgroup(ws):
    # the cosets of a non-subgroup do not partition Z_n: no silent minima
    with pytest.raises(ValueError, match="subgroup"):
        coset_minima(ws)


def test_kind_constructors_return_one_instance_per_modulus():
    for make in (cubes, squares, units_weights, pm_one, singleton_one):
        assert make(95) is make(95)
    assert cubes(95) is by_kind("cubes", 95)
    assert by_kind("pm1", 95) is pm_one(95)
    assert cubes(95)._cosets is cubes(95)._cosets


def test_coset_reps_times_weights_hit_every_unit_once():
    # orbit_transform draws its unit scaling as u -> reps[u // |A|] * A[u % |A|]
    # over range(|reps| * |A|); that map must be a bijection onto the units.
    for n in (2, 19, 95, 185, 2945):
        for ws in (cubes(n), squares(n), units_weights(n), pm_one(n), singleton_one(n)):
            reps, elems = ws.unit_coset_reps, ws.elements
            hits = sorted(reps[u // len(elems)] * elems[u % len(elems)] % n
                          for u in range(len(reps) * len(elems)))
            assert hits == sorted(units(n)), (n, ws.kind)


def test_recorded_minima_reps_and_alphabet_match_their_definitions():
    # The coset pass's least members (0 first, increasing), the unit coset
    # representatives and the reduced alphabet, each against its brute-force
    # definition, for every subgroup kind at 2 <= n < 300
    kinds = (cubes, squares, units_weights, pm_one, singleton_one)
    for n in range(2, 300):
        unit_set = units(n)
        for ws in (make(n) for make in kinds):
            coset_min = {x: min(w * x % n for w in ws.elements) for x in range(n)}
            least = sorted(set(coset_min.values()))
            assert list(ws._cosets[1]) == least, (ws.kind, n)
            assert list(ws.unit_coset_reps) == [x for x in least if x in unit_set]
            assert ws.orbit_count == len(least)
            firsts, symbols = reduced_alphabet(ws)
            assert firsts == [d for d in range(1, n) if n % d == 0]
            assert symbols == sorted(least[1:], key=lambda x: (math.gcd(x, n), x))


def test_orbit_tables_are_pinned():
    # orbit_id and coset_minima of every subgroup kind at 2 <= n < 400: the
    # count and CRC-32 of their repr, pinned from the coset pass that stored
    # the n-sized minima table and remapped it to orbit ids.
    kinds = (cubes, squares, units_weights, pm_one, singleton_one)
    sets = [make(n) for n in range(2, 400) for make in kinds]
    ids = [ws.orbit_id for ws in sets]
    minima = [tuple(coset_minima(ws)) for ws in sets]
    assert (len(ids), zlib.crc32(repr(ids).encode())) == (1990, 0x95DD6D26)
    assert zlib.crc32(repr(minima).encode()) == 0x20D959F8
