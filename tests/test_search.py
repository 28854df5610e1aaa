"""The memoized Davenport search against the plain depth-first search it
replaced, against closed forms from the literature, and under budgets."""

import math
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from wzs import invariants
from wzs.invariants import Budget, _explore_branch, davenport_search, lower_bound_witness
from wzs.modarith import factor
from wzs.weightsets import (
    by_kind,
    custom,
    pm_one,
    reduced_alphabet,
    singleton_one,
    units_weights,
)
from wzs.zerosum import has_weighted_zero_subseq

UNLIMITED = Budget(max_nodes=10**12, max_seconds=float("inf"))


def plain_branch(n, elements, alphabet, first):
    """Every sorted zero-sum-free sequence starting at `first`, one by one;
    the first longest one met in sorted order wins."""
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


def plain_search(n, weights):
    """(D, witness terms) by the exhaustive search, incumbent rule included."""
    firsts, alphabet = reduced_alphabet(weights)
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
    for n in range(2, top + 1):
        weights = by_kind(kind, n)
        res = davenport_search(n, weights, UNLIMITED)
        assert res.conclusive
        assert (res.value, res.witness.terms) == plain_search(n, weights), (kind, n)


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
        assert davenport_search(n, pm_one(n), UNLIMITED).value == math.floor(math.log2(n)) + 1, n
        omega = sum(e for _, e in factor(n).factors)
        assert davenport_search(n, units_weights(n), UNLIMITED).value == omega + 1, n


def test_conclusive_answer_does_not_depend_on_jobs():
    weights = by_kind("cubes", 108)
    serial = davenport_search(108, weights, UNLIMITED, jobs=1)
    parallel = davenport_search(108, weights, UNLIMITED, jobs=2)
    assert serial.conclusive and parallel.conclusive
    assert serial.value == parallel.value
    assert serial.witness == parallel.witness


def test_node_budget_answer_does_not_depend_on_jobs():
    # 180 has 17 first terms; when each parallel branch had only its 1/17
    # share of the nodes, jobs=2 stopped inconclusive where jobs=1 finished.
    weights = by_kind("cubes", 180)
    budget = Budget(max_nodes=60_000)
    serial = davenport_search(180, weights, budget, jobs=1)
    parallel = davenport_search(180, weights, budget, jobs=2)
    assert serial.conclusive and parallel.conclusive
    assert parallel.stats.exhausted_by is None
    assert (parallel.value, parallel.witness) == (serial.value, serial.witness)
    assert serial.value == 7
    # the workers and the rerun together stay within the cap
    assert serial.stats.nodes < parallel.stats.nodes <= 60_000


def test_node_cap_is_never_passed():
    # The step that would pass the cap is not taken, and a parallel branch
    # may get no share at all (a cap of 16 over 17 first terms): the serial
    # rerun then spends what the workers left.
    weights = by_kind("cubes", 180)
    for cap in (1, 16, 20_000):
        for jobs in (1, 2):
            res = davenport_search(180, weights, Budget(max_nodes=cap), jobs=jobs)
            assert not res.conclusive and res.stats.exhausted_by == "nodes"
            assert res.stats.nodes <= cap, (cap, jobs)
            if jobs == 1:
                assert res.stats.nodes == cap


def test_parallel_rerun_past_its_deadline_keeps_the_workers_results(monkeypatch):
    # The branches short of their share get a rerun whose deadline has
    # passed: the search stops on time, but keeps the paths and the node
    # counts the workers reported (34,250 nodes, lower bound 7).
    rerun = invariants._serial_branches

    def late(weights, alphabet, firsts, max_nodes, deadline, table):
        return rerun(weights, alphabet, firsts, max_nodes, time.perf_counter() - 1, table)

    monkeypatch.setattr(invariants, "_serial_branches", late)
    res = davenport_search(180, by_kind("cubes", 180), Budget(max_nodes=60_000), jobs=2)
    assert not res.conclusive
    assert res.stats.exhausted_by == "seconds"
    assert (res.lower, res.stats.nodes) == (7, 34_250)


class _ExitOnLoad:
    def __reduce__(self):
        return os._exit, (1,)


def test_parallel_search_recovers_from_a_dead_worker(monkeypatch):
    # A worker that dies breaks its pool; the next parallel search must get
    # a fresh one rather than fail on the broken pool.
    weights = by_kind("cubes", 35)
    firsts, alphabet = reduced_alphabet(weights)
    poisoned = (firsts, alphabet + [_ExitOnLoad()])
    monkeypatch.setattr(invariants, "reduced_alphabet", lambda w: poisoned)
    with pytest.raises(BrokenProcessPool):
        davenport_search(35, weights, jobs=2)
    monkeypatch.undo()
    assert davenport_search(35, weights, jobs=2).value == davenport_search(35, weights).value


def test_parallel_search_keeps_one_deadline():
    # {1} mod 1100 has 17 first-term branches, none of which finishes in
    # 0.5 s; when each branch got the whole budget, two workers took 4 s.
    weights = singleton_one(1100)
    t0 = time.perf_counter()
    res = davenport_search(1100, weights, Budget(max_seconds=0.5), jobs=2)
    elapsed = time.perf_counter() - t0
    assert not res.conclusive
    assert res.stats.exhausted_by == "seconds"
    assert has_weighted_zero_subseq(res.witness, weights) is None
    assert res.lower == len(res.witness) + 1 >= 2
    assert elapsed < 2.0, elapsed
    # The all-ones path is walked to its end on either side: lower = D = 1100.
    serial = davenport_search(1100, weights, Budget(max_seconds=0.5))
    assert res.lower == serial.lower == 1100


# D, nodes, states and witness of the cube search off the theorem's
# hypotheses, taken from the recursive search before the explicit stack.
@pytest.mark.parametrize(
    "n, value, nodes, states, witness",
    [
        (108, 7, 8138, 1350, (1, 2, 4, 8, 16, 36)),
        (144, 8, 13654, 2759, (1, 2, 4, 8, 16, 32, 64)),
        (180, 7, 33078, 4650, (1, 2, 4, 8, 16, 36)),
        (182, 6, 19659, 2479, (1, 2, 4, 14, 28)),
        (189, 7, 21481, 2964, (1, 2, 4, 9, 18, 63)),
        (224, 8, 12213, 2819, (1, 2, 4, 8, 16, 32, 64)),
        (266, 6, 17805, 2298, (1, 2, 4, 14, 28)),
        (273, 6, 11753, 1499, (1, 2, 7, 14, 91)),
        (294, 7, 22412, 3751, (1, 2, 4, 14, 28, 98)),
        (351, 7, 12044, 1607, (1, 2, 4, 9, 18, 117)),
    ],
)
def test_cube_search_pins(n, value, nodes, states, witness):
    res = davenport_search(n, by_kind("cubes", n))
    assert res.conclusive and res.stats.exhausted_by is None
    assert (res.value, res.stats.nodes, res.stats.states) == (value, nodes, states)
    assert res.witness.terms == witness


def test_search_node_count_falls_with_the_table():
    res = davenport_search(180, by_kind("cubes", 180))
    assert res.conclusive and res.value == 7
    assert res.stats.nodes <= 60_000
    assert 0 < res.stats.states <= res.stats.nodes
    assert res.stats.exhausted_by is None


@pytest.mark.parametrize("n, weights", [(126, by_kind("cubes", 126)), (2000, custom(2000, [1, 2]))])
def test_deadline_is_read_every_256_nodes(monkeypatch, n, weights):
    # A clock that passes every deadline from its third reading on: the
    # search reads it for its start and once on entering the first branch,
    # then must stop within 256 nodes.  At about 0.1 ms a node on residue
    # masks at n >= 20000, a 4096-node interval overshot by about 0.4 s.
    readings = iter([0.0, 0.0])
    monkeypatch.setattr(invariants.time, "perf_counter", lambda: next(readings, 1e9))
    res = davenport_search(n, weights, Budget(max_seconds=1.0))
    assert not res.conclusive and res.stats.exhausted_by == "seconds"
    assert res.stats.nodes == 256


def test_seconds_exhaustion_is_named():
    res = davenport_search(19, by_kind("one", 19), Budget(max_seconds=0))
    assert not res.conclusive
    assert res.stats.exhausted_by == "seconds"


def test_exhausted_branch_leaves_no_partial_entry():
    # A table left behind by an exhausted run must give the same answer as a
    # fresh table, so only fully explored states may have been written.
    n = 16
    weights = by_kind("one", n)
    firsts, alphabet = reduced_alphabet(weights)
    deadline = time.perf_counter() + 60.0
    fresh = _explore_branch(weights, alphabet, firsts[0], 10**9, deadline)
    table: dict[int, int] = {}
    cut = _explore_branch(weights, alphabet, firsts[0], 500, deadline, table)
    assert cut[4] == "nodes"
    resumed = _explore_branch(weights, alphabet, firsts[0], 10**9, deadline, table)
    assert resumed[:2] == fresh[:2]
    assert resumed[4] is None


def test_exhausted_search_returns_a_zero_sum_free_lower_bound():
    weights = by_kind("one", 40)
    res = davenport_search(40, weights, Budget(max_nodes=20_000))
    assert not res.conclusive and res.stats.exhausted_by == "nodes"
    assert res.lower == len(res.witness) + 1 >= 2
    assert has_weighted_zero_subseq(res.witness, weights) is None
