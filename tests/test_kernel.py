"""The reachable-sum kernel against an oracle over plain Python sets, and its
two mask forms (orbit ids, residues) against each other."""

import random

from sums_oracle import reachable_sums
from wzs import zerosum
from wzs.extremal import enumerate_extremal
from wzs.invariants import Budget, davenport_search, lower_bound_witness
from wzs.modarith import factor
from wzs.weightsets import WeightSet, by_kind, cubes, custom, pm_one, singleton_one, units_weights
from wzs.zerosum import (
    Sequence,
    _reach_rows,
    _reach_step,
    full_zero_sum_weights,
    has_fixed_length_zero_subseq,
    has_weighted_zero_subseq,
)

KINDS = ("one", "pm1", "units", "squares", "cubes")
UNLIMITED = Budget(max_nodes=10**12, max_seconds=float("inf"))


def images(x, weights):
    n = weights.modulus
    return {a * x % n for a in weights.elements}


def by_orbit_size(terms, weights):
    # Both oracles give the same sets in any term order; adding the largest
    # images first keeps the set they are added to small.
    return sorted(terms, key=lambda x: -len(images(x, weights)))


def oracle_sums(terms, weights):
    """Sums of nonempty weighted subsequences, one set union per term."""
    n = weights.modulus
    reach = set()
    for x in by_orbit_size(terms, weights):
        ys = images(x, weights)
        reach |= ys | {(r + y) % n for r in reach for y in ys}
    return reach


def oracle_zero_lengths(terms, weights):
    """The lengths L >= 1 for which some L terms have a weighted sum 0."""
    n = weights.modulus
    states = {(0, 0)}
    for x in by_orbit_size(terms, weights):
        ys = images(x, weights)
        states |= {(c + 1, (s + y) % n) for c, s in states for y in ys}
    return {c for c, s in states if s == 0 and c > 0}


def check_against_oracle(seq, weights):
    n = weights.modulus
    sums = oracle_sums(seq.terms, weights)
    assert reachable_sums(seq, weights) == sums, (n, weights.kind, seq.terms)
    cert = has_weighted_zero_subseq(seq, weights)
    assert (cert is not None) == (0 in sums), (n, weights.kind, seq.terms)
    assert cert is None or cert.verify(seq, weights)
    zero_lengths = oracle_zero_lengths(seq.terms, weights)
    for length in range(1, len(seq) + 1):
        fixed = has_fixed_length_zero_subseq(seq, weights, length)
        assert (fixed is not None) == (length in zero_lengths), (n, weights.kind, seq.terms, length)
        assert fixed is None or (len(fixed.picked) == length and fixed.verify(seq, weights))


def residue_twin(weights):
    """A fresh copy of a weight set whose kernel runs on residue masks."""
    twin = WeightSet(weights.modulus, weights.elements, weights.kind, weights.is_subgroup,
                     weights.members)
    vars(twin)["uses_orbits"] = False
    return twin


def test_kernel_matches_set_oracle_for_every_kind_to_150():
    rng = random.Random(41)
    for kind in KINDS:
        for n in range(2, 151):
            weights = by_kind(kind, n)
            for length in (rng.randrange(1, 4), rng.randrange(4, 7)):
                check_against_oracle(Sequence.make(n, (rng.randrange(n) for _ in range(length))), weights)


def test_kernel_matches_set_oracle_at_2945_and_5423():
    # Terms that are multiples of all but one prime of n have small images;
    # at most one unit term keeps the oracle's set sums cheap.
    rng = random.Random(43)
    for n in (2945, 5423):
        weights = cubes(n)
        assert weights.uses_orbits
        primes = [p for p, _ in factor(n).factors]
        cofactors = [n // p for p in primes]
        witness = lower_bound_witness(factor(n)).terms
        unit = next(u for u in range(rng.randrange(2, n), n) if all(u % p for p in primes))
        seqs = [
            witness,
            [unit * x % n for x in witness],
            witness + (cofactors[0],),
            [unit] + [c * rng.randrange(1, n) % n for c in cofactors],
            [unit, 0] + [rng.choice(cofactors) * rng.randrange(1, n) % n for _ in range(4)],
        ]
        for terms in seqs:
            check_against_oracle(Sequence.make(n, terms), weights)


def test_kernel_matches_set_oracle_on_non_subgroup_sets():
    rng = random.Random(47)
    sets = [(8, [3, 5]), (6, [1, 3]), (12, [1, 5, 7]), (10, [5]), (9, [2, 4]), (30, [1, 2, 3])]
    sets += [(n, [1, 2]) for n in range(5, 40)]
    for n, elems in sets:
        weights = custom(n, elems)
        assert not weights.is_subgroup and not weights.uses_orbits
        for length in range(1, 6):
            check_against_oracle(Sequence.make(n, (rng.randrange(n) for _ in range(length))), weights)


def test_orbit_and_residue_masks_give_identical_answers():
    rng = random.Random(53)
    cases = [(cubes(n), trials) for n, trials in ((95, 12), (185, 12), (589, 8), (935, 8), (2945, 4), (5423, 3))]
    cases += [(units_weights(n), 20) for n in (5, 7, 11, 97, 105)]
    for weights, trials in cases:
        assert weights.uses_orbits
        twin = residue_twin(weights)
        assert not twin.uses_orbits
        n = weights.modulus
        for _ in range(trials):
            seq = Sequence.make(n, (rng.randrange(n) for _ in range(rng.randrange(1, 9))))
            assert reachable_sums(seq, weights) == reachable_sums(seq, twin)
            assert has_weighted_zero_subseq(seq, weights) == has_weighted_zero_subseq(seq, twin)
            for length in range(1, len(seq) + 1):
                assert has_fixed_length_zero_subseq(seq, weights, length) == (
                    has_fixed_length_zero_subseq(seq, twin, length)
                )
            assert full_zero_sum_weights(seq.terms, weights) == full_zero_sum_weights(seq.terms, twin)


def test_search_and_enumeration_agree_across_mask_forms(monkeypatch):
    # The walks on chunked orbit rows, with dead children skipped, against
    # the per-child step on residue masks: the same D, witness, nodes and
    # states, and the same classes.  126 and {1}, {+-1} past 16 take residue
    # masks in the DP but rows in the walks.
    sets = [cubes(63), cubes(126), cubes(234), singleton_one(24), pm_one(64), by_kind("squares", 100)]
    enum_sets = [cubes(95), cubes(185)]

    def walks(weight_sets, enum_weight_sets):
        searches = [davenport_search(w.modulus, w, UNLIMITED) for w in weight_sets]
        enums = [enumerate_extremal(w.modulus, w, UNLIMITED) for w in enum_weight_sets]
        return (
            [(r.value, r.witness, r.stats.nodes, r.stats.states) for r in searches],
            [(e.classes, e.d_value, e.stats.nodes, e.stats.states) for e in enums],
        )

    assert not cubes(126).uses_orbits and not singleton_one(24).uses_orbits
    assert all(_reach_rows(w, [1]) is not None for w in sets + enum_sets)
    on_rows = walks(sets, enum_sets)
    monkeypatch.setattr(zerosum, "MAX_ROW_ORBITS", 0)
    twins = [residue_twin(w) for w in sets]
    enum_twins = [residue_twin(w) for w in enum_sets]
    assert all(_reach_rows(w, [1]) is None for w in twins + enum_twins)
    assert walks(twins, enum_twins) == on_rows


def test_chunked_expand_ors_the_rows_of_the_set_bits():
    # k = 3, 8, 24, 40 and 128 orbits; the last chunk holds k mod 8 orbits
    # at k = 3 and all 8 elsewhere.
    sets = [units_weights(4), cubes(95), cubes(108), cubes(126), singleton_one(128)]
    rng = random.Random(59)
    for weights, k in zip(sets, (3, 8, 24, 40, 128)):
        rows = weights.orbit_rows
        assert len(rows) == k
        expand = _reach_rows(weights, [1])[0]
        masks = [0, 1, (1 << k) - 1, 1 << k - 1] + [rng.getrandbits(k) for _ in range(200)]
        masks += [1 << rng.randrange(k) | 1 << rng.randrange(k) for _ in range(100)]
        for mask in masks:
            want = 0
            for o in range(k):
                if mask >> o & 1:
                    want |= rows[o]
            assert expand(mask) == want, (weights.modulus, k, mask)


def test_node_cap_stays_exact_on_skipped_children(monkeypatch):
    # Every cap below covers skipped dead children at 126: a skipped child
    # counts as a node before the cap is tested, as a stepped one does.
    weights = cubes(126)
    caps = list(range(1, 400)) + [1000, 5000, 50_000]

    def capped(w):
        out = []
        for cap in caps:
            res = davenport_search(126, w, Budget(max_nodes=cap))
            out.append((res.lower, res.witness, res.stats.nodes, res.stats.states, res.stats.exhausted_by))
        return out

    on_rows = capped(weights)
    assert all(nodes == cap and by == "nodes" for cap, (_, _, nodes, _, by) in zip(caps, on_rows))
    monkeypatch.setattr(zerosum, "MAX_ROW_ORBITS", 0)
    assert capped(residue_twin(weights)) == on_rows


def test_walks_step_per_child_past_the_row_limit(monkeypatch):
    # Above MAX_ROW_ORBITS orbits the walks keep orbit masks but no rows.
    def walks():
        res = davenport_search(180, cubes(180), UNLIMITED)
        ext = enumerate_extremal(95, cubes(95), UNLIMITED)
        return res.value, res.witness, res.stats.nodes, res.stats.states, ext.classes, ext.stats

    with_rows = walks()
    monkeypatch.setattr(zerosum, "MAX_ROW_ORBITS", 0)
    assert cubes(180).uses_orbits and _reach_rows(cubes(180), [1]) is None
    without_rows = walks()
    assert without_rows[:5] == with_rows[:5]
    assert without_rows[5].nodes == with_rows[5].nodes


def test_representation_rule():
    # A subgroup with k orbits on Z_n takes orbit masks when k * k < n, or
    # when k <= min(128, 4 * |A|).
    for n, orbits in ((5423, 8), (2945, 32), (95, 8), (108, 24), (180, 30), (182, 32),
                      (224, 24), (351, 32)):
        weights = cubes(n)
        assert max(weights.orbit_id) + 1 == orbits
        assert weights.uses_orbits, n
    # 40 orbits of 4 cubes mod 126: past 4 * |A|
    assert max(cubes(126).orbit_id) + 1 == 40 and not cubes(126).uses_orbits
    assert singleton_one(4).uses_orbits and pm_one(15).uses_orbits
    for n in (5, 17, 95, 5423):
        assert not singleton_one(n).uses_orbits
    assert max(pm_one(16).orbit_id) + 1 == 9
    assert not pm_one(16).uses_orbits and not pm_one(64).uses_orbits
    assert not custom(30, [1, 2, 3]).uses_orbits


def test_orbit_tables_match_their_definitions():
    for weights in (cubes(95), cubes(185), units_weights(60), by_kind("squares", 91)):
        n = weights.modulus
        oid = weights.orbit_id
        assert oid[0] == 0
        for x in range(n):
            assert {oid[a * x % n] for a in weights.elements} == {oid[x]}
        # ids are numbered by the least member of each orbit
        firsts = [oid.index(o) for o in range(max(oid) + 1)]
        assert firsts == sorted(firsts)
        for y in random.Random(n).sample(range(n), 12):
            met = [set() for _ in range(max(oid) + 1)]
            for r in range(n):
                met[oid[r]] |= {oid[(r + a * y) % n] for a in weights.elements}
            col = weights.orbit_columns[oid[y]]
            assert col == tuple(sum(1 << p for p in m) for m in met), (n, y)


def test_orbit_rows_pack_the_columns():
    for weights in (cubes(95), cubes(185), units_weights(60), by_kind("squares", 91)):
        k = len(weights.orbit_columns)
        assert len(weights.orbit_rows) == k
        for o, row in enumerate(weights.orbit_rows):
            assert row < 1 << k * k
            for q, col in enumerate(weights.orbit_columns):
                assert row >> q * k & (1 << k) - 1 == col[o], (weights.modulus, o, q)
        # the step by any symbol is one field of the expanded source
        rng = random.Random(k)
        symbols = rng.sample(range(weights.modulus), 6)
        step = _reach_step(weights, symbols)
        expand, fields, full, _ = _reach_rows(weights, symbols)
        for _ in range(20):
            src = rng.getrandbits(k) | 1
            for i in range(len(symbols)):
                assert expand(src) >> fields[i] & full == step(0, i, src)
