"""The memoized Davenport search against the plain depth-first search it
replaced, against closed forms from the literature, and under budgets."""

import math
import time
import zlib

import pytest

from wzs import invariants
from wzs.extremal import canonicalize, enumerate_extremal
from wzs.invariants import (
    Budget,
    _sequences_of_length,
    _walk,
    davenport_search,
    lower_bound_witness,
)
from wzs.modarith import factor
from wzs.weightsets import (
    by_kind,
    custom,
    reduced_alphabet,
)
from wzs.zerosum import Sequence, has_weighted_zero_subseq

UNLIMITED = Budget(max_nodes=10**12, max_seconds=float("inf"))


def value_ordered_alphabet(weights):
    """(firsts, symbols) of the value-ordered space, a superset of the
    search's: for a subgroup, the coset-minimal residues in value order with
    the divisors below n as first terms, found here by brute force; for any
    other set, every nonzero residue."""
    n = weights.modulus
    if not weights.is_subgroup:
        return list(range(1, n)), list(range(1, n))
    symbols = [x for x in range(1, n) if all(a * x % n >= x for a in weights.elements)]
    return [d for d in range(1, n) if n % d == 0], symbols


def plain_branch(n, elements, alphabet, first):
    """Every zero-sum-free sequence in alphabet order starting at `first`,
    one by one; the first longest one met wins."""
    full = (1 << n) - 1
    shifts = {x: sorted({a * x % n for a in elements}) for x in alphabet}
    best = ()

    def extend(mask, x):
        m = mask | 1
        new = mask
        for s in shifts[x]:
            new |= ((m << s) | (m >> (n - s))) & full if s else m
        return new

    def rec(terms, mask, lo):
        nonlocal best
        if len(terms) > len(best):
            best = terms
        for i in range(lo, len(alphabet)):
            new = extend(mask, alphabet[i])
            if not new & 1:
                rec(terms + (alphabet[i],), new, i)

    first_mask = extend(0, first)
    if not first_mask & 1:
        rec((first,), first_mask, alphabet.index(first))
    return best


def plain_search(n, weights, space=None):
    """(D, witness terms) by the exhaustive search, incumbent rule included,
    over space = (firsts, alphabet), by default value_ordered_alphabet's."""
    firsts, alphabet = space or value_ordered_alphabet(weights)
    best = ()
    if weights.kind == "cubes" and n % 2 == 1 and n % 3 != 0:
        best = lower_bound_witness(factor(n)).terms
    for first in firsts:
        terms = plain_branch(n, weights.elements, alphabet, first)
        if len(terms) > len(best):
            best = terms
    return len(best) + 1, best


# {1} costs the plain search half a million nodes by n = 24 (so do the
# squares mod 24, which are {1}), so {1} stops at n = 22.
@pytest.mark.parametrize(
    "kind, top", [("one", 22), ("pm1", 40), ("units", 40), ("squares", 40), ("cubes", 40)]
)
def test_memoized_search_matches_plain_search(kind, top):
    # D from the value-ordered space, which does not rely on the gcd order's
    # anchoring argument; the witness is the first longest sequence in the
    # search's own alphabet order, compared as a multiset.
    for n in range(2, top + 1):
        weights = by_kind(kind, n)
        res = davenport_search(n, weights, UNLIMITED)
        assert res.conclusive
        assert res.value == plain_search(n, weights)[0], (kind, n)
        assert len(res.witness) == res.value - 1, (kind, n)
        assert has_weighted_zero_subseq(res.witness, weights) is None, (kind, n)
        _, terms = plain_search(n, weights, reduced_alphabet(weights))
        assert res.witness.terms == tuple(sorted(terms)), (kind, n)


def test_memoized_search_matches_plain_search_on_non_subgroup_set():
    # {1, 2} is not closed under multiplication for n >= 5, and 2 is a
    # non-unit for even n, so some first terms are zero-sums on their own.
    for n in range(5, 23):
        weights = custom(n, [1, 2])
        assert not weights.is_subgroup
        res = davenport_search(n, weights, UNLIMITED)
        assert res.conclusive
        assert (res.value, res.witness.terms) == plain_search(n, weights), n


def test_search_pins_closed_forms():
    # Adhikari, Chen, Friedlander, Konyagin and Pappalardi (2006):
    # D_{+-1}(Z_n) = floor(log2 n) + 1 and D_units(Z_n) = Omega(n) + 1.
    for n in range(2, 61):
        assert davenport_search(n, by_kind("pm1", n), UNLIMITED).value == math.floor(math.log2(n)) + 1, n
        omega = sum(e for _, e in factor(n).factors)
        assert davenport_search(n, by_kind("units", n), UNLIMITED).value == omega + 1, n


def test_search_pins_the_squares_closed_form():
    # Adhikari, David and Urroz (2008), the squares result the cube result
    # generalizes: D_squares(Z_n) = 2 * Omega(n) + 1 at square-free n
    # coprime to 6.
    moduli = [n for n in range(2, 400) if n % 6 in (1, 5) and factor(n).is_squarefree]
    assert len(moduli) == 120
    for n in moduli:
        omega = len(factor(n).factors)
        assert davenport_search(n, by_kind("squares", n), UNLIMITED).value == 2 * omega + 1, n


def test_node_cap_is_never_passed():
    # The step that would pass the cap is not taken, so a search stopped by
    # its node cap reports exactly the cap.
    weights = by_kind("cubes", 180)
    for cap in (1, 16, 20_000):
        res = davenport_search(180, weights, Budget(max_nodes=cap))
        assert not res.conclusive and res.stats.exhausted_by == "nodes"
        assert res.stats.nodes == cap


def test_search_branches_share_one_deadline():
    # {1} mod 1100 has 17 first-term branches, none of which finishes in
    # 0.5 s; they share the search's one deadline, so the search stops on
    # time, after the all-ones path is walked to its end: lower = D = 1100.
    weights = by_kind("one", 1100)
    t0 = time.perf_counter()
    res = davenport_search(1100, weights, Budget(max_seconds=0.5))
    elapsed = time.perf_counter() - t0
    assert not res.conclusive
    assert res.stats.exhausted_by == "seconds"
    assert has_weighted_zero_subseq(res.witness, weights) is None
    assert res.lower == len(res.witness) + 1 == 1100
    assert elapsed < 2.0, elapsed


def test_search_builds_its_kernel_once(monkeypatch):
    # 180 has 17 first-term branches; each built its own kernel before.  A
    # search builds one kernel: on orbit rows, with no per-child step, or
    # past the row limit ({1} mod 160, 160 orbits) with one step.
    built = []
    build = invariants._walk_kernel

    def counted(weights, symbols):
        kernel = build(weights, symbols)
        built.append(kernel[0] is None)
        return kernel

    monkeypatch.setattr(invariants, "_walk_kernel", counted)
    res = davenport_search(180, by_kind("cubes", 180))
    assert res.conclusive and res.value == 7
    assert built == [True]
    built.clear()
    res = davenport_search(160, by_kind("one", 160), Budget(max_nodes=20_000))
    assert res.stats.exhausted_by == "nodes"
    assert built == [False]


def test_budget_bounds_the_residue_kernel_set_up():
    # 299,999 symbols and 3 weights: the residue step sorts each symbol's
    # images on its first use, so the search reaches its deadline checks at
    # once rather than after an O(n*|A|) table (0.3 to 0.8 s, no nodes).
    t0 = time.perf_counter()
    res = davenport_search(300000, custom(300000, [1, 5, 7]), Budget(max_seconds=0.05))
    elapsed = time.perf_counter() - t0
    assert not res.conclusive and res.stats.exhausted_by == "seconds"
    assert res.stats.nodes > 0
    assert elapsed < 0.5, elapsed


# D, nodes, states and witness of the cube search off the theorem's
# hypotheses; each D is also the value-ordered search's.
@pytest.mark.parametrize(
    "n, value, nodes, states, witness",
    [
        (108, 7, 6068, 1059, (1, 5, 7, 9, 18, 36)),
        (144, 8, 11954, 2324, (1, 5, 7, 9, 18, 36, 72)),
        (180, 7, 22411, 3191, (1, 7, 9, 13, 18, 36)),
        (182, 6, 8291, 1194, (1, 3, 5, 14, 28)),
        (189, 7, 11646, 1799, (1, 2, 4, 9, 18, 81)),
        (224, 8, 10854, 2639, (1, 3, 5, 14, 28, 56, 112)),
        (266, 6, 7934, 1179, (1, 3, 5, 14, 28)),
        (273, 6, 5427, 826, (1, 2, 9, 21, 42)),
        (294, 7, 17210, 2971, (1, 5, 11, 14, 28, 126)),
        (351, 7, 7008, 1047, (1, 2, 4, 9, 18, 117)),
        (252, 8, 822242, 87342, (1, 5, 9, 11, 27, 45, 126)),
    ],
)
def test_cube_search_pins(n, value, nodes, states, witness):
    res = davenport_search(n, by_kind("cubes", n))
    assert res.conclusive and res.stats.exhausted_by is None
    assert (res.value, res.stats.nodes, res.stats.states) == (value, nodes, states)
    assert res.witness.terms == witness


def _classes(weights, space):
    """(longest length, canonical forms of the longest sequences) from one
    walk and read-back over space = (firsts, alphabet)."""
    firsts, alphabet = space
    walk = _walk(weights, firsts, alphabet, 10**12, float("inf"))
    assert walk.exhausted_by is None and walk.finished == firsts
    leaves = _sequences_of_length(walk)
    n = weights.modulus
    return walk.longest, {canonicalize(Sequence.make(n, t), weights).canonical.terms for t in leaves}


@pytest.mark.parametrize("n", [63, 95, 126, 185, 589, 2945])
def test_gcd_ordered_alphabet_keeps_every_class(n):
    # The gcd order walks a subset of the value-ordered space (at 126, 59,122
    # nodes against 177,735), so it must still reach every extremal class.
    weights = by_kind("cubes", n)
    longest, classes = _classes(weights, reduced_alphabet(weights))
    assert (longest, classes) == _classes(weights, value_ordered_alphabet(weights))
    assert classes


def test_search_node_count_falls_with_the_table():
    res = davenport_search(180, by_kind("cubes", 180))
    assert res.conclusive and res.value == 7
    assert res.stats.nodes <= 60_000
    assert 0 < res.stats.states <= res.stats.nodes
    assert res.stats.exhausted_by is None


@pytest.mark.parametrize("passing", [3, 4, 5])
@pytest.mark.parametrize("n, weights", [(126, by_kind("cubes", 126)), (2000, custom(2000, [1, 2]))])
def test_deadline_is_read_every_256_nodes(monkeypatch, n, weights, passing):
    # A clock that passes every deadline from its `passing`-th reading on:
    # the search reads it for its start and once on entering the first
    # branch, then every 256 nodes, so it stops at exactly 256, 512 or 768
    # nodes, rows at 126 and steps at 2000.  At about 0.1 ms a node on
    # residue masks at n >= 20000, a 4096-node interval overshot by about
    # 0.4 s.
    readings = iter([0.0] * (passing - 1))
    monkeypatch.setattr(invariants.time, "perf_counter", lambda: next(readings, 1e9))
    res = davenport_search(n, weights, Budget(max_seconds=1.0))
    assert not res.conclusive and res.stats.exhausted_by == "seconds"
    assert res.stats.nodes == 256 * (passing - 2)


def test_seconds_budget_covers_the_witness(monkeypatch):
    # The witness's DP check builds the cube tables, most of a search's
    # set-up at large n: a witness that moves the clock past the budget
    # must stop the search, and count in its wall time.
    clock = [0.0]
    monkeypatch.setattr(invariants.time, "perf_counter", lambda: clock[0])
    witness = invariants.lower_bound_witness

    def slow_witness(profile):
        clock[0] += 2.0
        return witness(profile)

    monkeypatch.setattr(invariants, "lower_bound_witness", slow_witness)
    res = davenport_search(95, by_kind("cubes", 95), Budget(max_seconds=1.0))
    assert not res.conclusive and res.stats.exhausted_by == "seconds"
    assert res.stats.wall_time == 2.0


def test_seconds_exhaustion_is_named():
    res = davenport_search(19, by_kind("one", 19), Budget(max_seconds=0))
    assert not res.conclusive
    assert res.stats.exhausted_by == "seconds"


def test_exhausted_branch_leaves_no_partial_entry():
    # A walk stopped inside its first branch writes only fully explored
    # states: every entry of its table is the depth the full walk tables.
    n = 16
    weights = by_kind("one", n)
    firsts, alphabet = reduced_alphabet(weights)
    deadline = time.perf_counter() + 60.0
    full = _walk(weights, firsts[:1], alphabet, 10**9, deadline)
    cut = _walk(weights, firsts[:1], alphabet, 500, deadline)
    assert full.exhausted_by is None
    assert cut.exhausted_by == "nodes" and cut.finished == [] and cut.table
    assert all(full.table[key] == depth for key, depth in cut.table.items())


def test_exhausted_search_returns_a_zero_sum_free_lower_bound():
    weights = by_kind("one", 40)
    res = davenport_search(40, weights, Budget(max_nodes=20_000))
    assert not res.conclusive and res.stats.exhausted_by == "nodes"
    assert res.lower == len(res.witness) + 1 >= 2
    assert has_weighted_zero_subseq(res.witness, weights) is None


def search_summary(weights, cap):
    """What a search capped at `cap` nodes reports: value, bracket, witness,
    nodes, states and the budget that ran out; for a subgroup, also what the
    enumeration under the same cap reports: D, completeness, the classes
    with their orbit sizes, nodes, states and the budget that ran out."""
    n = weights.modulus
    res = davenport_search(n, weights, Budget(max_nodes=cap))
    s = res.stats
    out = [res.value, res.lower, res.upper, res.witness.terms, s.nodes, s.states, s.exhausted_by]
    if weights.is_subgroup:
        enum = enumerate_extremal(n, weights, Budget(max_nodes=cap))
        s = enum.stats
        classes = [(c.canonical.terms, c.orbit_size) for c in enum.classes]
        out += [enum.d_value, enum.complete, classes, s.nodes, s.states, s.exhausted_by]
    return out


# (kind, n, custom elements, node cap): the search's nodes and the CRC-32 of
# the repr of search_summary, pinned from the search that read a witness
# back in every finished branch.  The caps stop the walk in its first
# branch, after some finished branches (with the incumbent at 2945), or not
# at all; at squares 45 and cubes 95 the stopped branch's path ties a
# finished branch's sequence and the incumbent, which it must not replace.
SEARCH_PINS = {
    ("one", 40, None, 1): (1, 0xCFE5D71A),
    ("one", 40, None, 255): (255, 0x398785F5),
    ("one", 40, None, 256): (256, 0x0334954A),
    ("one", 40, None, 5000): (5000, 0xC8A6995D),
    ("custom", 300, "1,5,7", 1): (1, 0x9ABC8566),
    ("custom", 300, "1,5,7", 255): (255, 0xCCE38B75),
    ("custom", 300, "1,5,7", 256): (256, 0xB082AEAE),
    ("custom", 300, "1,5,7", 5000): (5000, 0x428178CF),
    ("cubes", 126, None, 1): (1, 0xCFE5D71A),
    ("cubes", 126, None, 255): (255, 0x95DD0B2E),
    ("cubes", 126, None, 256): (256, 0x6DC50956),
    ("cubes", 126, None, 5000): (5000, 0x4A2353D4),
    ("squares", 252, None, 1): (1, 0xCFE5D71A),
    ("squares", 252, None, 255): (255, 0x5AB2CBB3),
    ("squares", 252, None, 256): (256, 0x1CED8D98),
    ("squares", 252, None, 5000): (5000, 0x9353C768),
    ("cubes", 126, None, 50000): (50000, 0x08541496),
    ("cubes", 126, None, 10**6): (59122, 0xBBD97B1D),
    ("cubes", 2945, None, 2000): (2000, 0xE9C3C3C8),
    ("cubes", 2945, None, 10**6): (2829, 0xC6853E8B),
    ("units", 60, None, 200): (200, 0x1A699986),
    ("units", 60, None, 10**6): (430, 0x599C3A19),
    ("squares", 45, None, 1123): (1123, 0x9020D73E),
    ("cubes", 95, None, 9): (9, 0x41F89399),
}


@pytest.mark.parametrize("kind, n, elems, cap", sorted(SEARCH_PINS, key=repr))
def test_node_capped_searches_are_pinned(kind, n, elems, cap):
    weights = by_kind(kind, n, [int(x) for x in elems.split(",")] if elems else None)
    summary = search_summary(weights, cap)
    assert (summary[4], zlib.crc32(repr(summary).encode())) == SEARCH_PINS[kind, n, elems, cap]


# (kind, n, custom elements, node cap): what _walk itself leaves, with no
# deadline: nodes, the budget that ran out, the CRC-32 of the repr of
# (finished, longest, partial) and that of the sorted table items, depths
# included, since a later walk reads them from a stopped walk's table.
# Cubes at 126 and 2945 and squares at 252 walk on rows; {1} at 150 (150
# orbits) and {1, 5, 7} on steps; {1} at 40 on rows with 40 orbits.
WALK_PINS = {
    ("cubes", 126, None, 1): (1, "nodes", 0xCBA39767, 0x0D4CBB29),
    ("cubes", 126, None, 255): (255, "nodes", 0x71B267AA, 0xA0069B87),
    ("cubes", 126, None, 256): (256, "nodes", 0x71B267AA, 0x7CC83A3A),
    ("cubes", 126, None, 257): (257, "nodes", 0x71B267AA, 0x7CC83A3A),
    ("cubes", 126, None, 5000): (5000, "nodes", 0x71B267AA, 0xB6EBD54E),
    ("cubes", 126, None, 10**12): (59122, None, 0x9BA07019, 0x09DE7966),
    ("cubes", 2945, None, 1): (1, "nodes", 0xCBA39767, 0x0D4CBB29),
    ("cubes", 2945, None, 255): (255, "nodes", 0xD9ADA1C6, 0xD65D7631),
    ("cubes", 2945, None, 256): (256, "nodes", 0xD9ADA1C6, 0xD65D7631),
    ("cubes", 2945, None, 257): (257, "nodes", 0xD9ADA1C6, 0xD65D7631),
    ("cubes", 2945, None, 5000): (2829, None, 0x69E93623, 0x3E416AB2),
    ("cubes", 2945, None, 10**12): (2829, None, 0x69E93623, 0x3E416AB2),
    ("squares", 252, None, 1): (1, "nodes", 0xCBA39767, 0x0D4CBB29),
    ("squares", 252, None, 255): (255, "nodes", 0xF49E776C, 0xEC781A3A),
    ("squares", 252, None, 256): (256, "nodes", 0xF49E776C, 0xEC781A3A),
    ("squares", 252, None, 257): (257, "nodes", 0xF49E776C, 0xEC781A3A),
    ("squares", 252, None, 5000): (5000, "nodes", 0x63DDD51F, 0xBB73D246),
    ("one", 40, None, 1): (1, "nodes", 0xCBA39767, 0x0D4CBB29),
    ("one", 40, None, 255): (255, "nodes", 0x8A624FF9, 0x43049DFD),
    ("one", 40, None, 256): (256, "nodes", 0x8A624FF9, 0x43049DFD),
    ("one", 40, None, 257): (257, "nodes", 0x8A624FF9, 0x43049DFD),
    ("one", 40, None, 5000): (5000, "nodes", 0x8A624FF9, 0x0727CAE0),
    ("one", 40, None, 10**12): (1734735, None, 0xA4B236B9, 0xD65F7E27),
    ("one", 150, None, 1): (1, "nodes", 0xCBA39767, 0x0D4CBB29),
    ("one", 150, None, 255): (255, "nodes", 0x11758B12, 0x0D4CBB29),
    ("one", 150, None, 256): (256, "nodes", 0x11758B12, 0x0D4CBB29),
    ("one", 150, None, 257): (257, "nodes", 0x11758B12, 0x0D4CBB29),
    ("one", 150, None, 5000): (5000, "nodes", 0x11758B12, 0x832ABED8),
    ("custom", 300, "1,5,7", 1): (1, "nodes", 0xCBA39767, 0x0D4CBB29),
    ("custom", 300, "1,5,7", 255): (255, "nodes", 0x9E1F0A76, 0x0D4CBB29),
    ("custom", 300, "1,5,7", 256): (256, "nodes", 0x9E1F0A76, 0x0D4CBB29),
    ("custom", 300, "1,5,7", 257): (257, "nodes", 0x9E1F0A76, 0x0D4CBB29),
    ("custom", 300, "1,5,7", 5000): (5000, "nodes", 0x9E1F0A76, 0x848746DA),
}


@pytest.mark.parametrize("kind, n, elems, cap", sorted(WALK_PINS, key=repr))
def test_walk_tables_are_pinned(kind, n, elems, cap):
    weights = by_kind(kind, n, [int(x) for x in elems.split(",")] if elems else None)
    firsts, alphabet = reduced_alphabet(weights)
    walk = _walk(weights, firsts, alphabet, cap, float("inf"))
    assert (
        walk.nodes,
        walk.exhausted_by,
        zlib.crc32(repr((walk.finished, walk.longest, walk.partial)).encode()),
        zlib.crc32(repr(sorted(walk.table.items())).encode()),
    ) == WALK_PINS[kind, n, elems, cap]


def test_cube_search_meets_the_closed_form_off_the_hypotheses():
    # Observed, not proved: the paper's D = 2*Omega(n1) + Omega(n2) + 1
    # also holds at every odd n < 2000 coprime to 3 that the paper leaves
    # out, those with 7 | n, 13 | n or a square factor (7 and 13 go to n1).
    moduli = [n for n in range(5, 2000, 2)
              if n % 3 and (n % 7 == 0 or n % 13 == 0 or any(e > 1 for _, e in factor(n).factors))]
    assert len(moduli) == 173
    for n in moduli:
        res = davenport_search(n, by_kind("cubes", n))
        assert res.conclusive and res.value == factor(n).extremal_length + 1, n
