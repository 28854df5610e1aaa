"""The reachable-sum kernel against an oracle over plain Python sets, and its
two mask forms (orbit ids, residues) against each other."""

import os
import random
from collections import Counter
from functools import cached_property

from sums_oracle import reachable_sums, residue_twin
import wzs
from wzs import invariants, verify, weightsets, zerosum
from wzs.extremal import enumerate_extremal
from wzs.invariants import Budget, _walk_kernel, davenport_search, lower_bound_witness
from wzs.modarith import factor
from wzs.weightsets import (
    MAX_ROW_ORBITS,
    WeightSet,
    by_kind,
    cubes,
    custom,
    kind_set,
)
from wzs.zerosum import (
    Sequence,
    crt_zero_check,
    full_zero_sum_exists,
    full_zero_sum_weights,
    has_fixed_length_zero_subseq,
    has_weighted_zero_subseq,
    is_zero_sum_free,
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
    cases += [(by_kind("units", n), 20) for n in (5, 7, 11, 97, 105)]
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


def test_search_and_enumeration_agree_across_mask_forms():
    # The walks on chunked orbit rows, with dead children skipped, against
    # the per-child step on residue masks: the same D, witness, nodes and
    # states, and the same classes.
    sets = [cubes(63), cubes(126), cubes(234), by_kind("one", 24), by_kind("pm1", 64),
            by_kind("squares", 100)]
    enum_sets = [cubes(95), cubes(185)]

    def walks(weight_sets, enum_weight_sets):
        searches = [davenport_search(w.modulus, w, UNLIMITED) for w in weight_sets]
        enums = [enumerate_extremal(w.modulus, w, UNLIMITED) for w in enum_weight_sets]
        return (
            [(r.value, r.witness, r.stats.nodes, r.stats.states) for r in searches],
            [(e.classes, e.d_value, e.stats.nodes, e.stats.states) for e in enums],
        )

    assert all(_walk_kernel(w, [1])[0] is None for w in sets + enum_sets)
    on_rows = walks(sets, enum_sets)
    twins = [residue_twin(w) for w in sets]
    enum_twins = [residue_twin(w) for w in enum_sets]
    assert all(_walk_kernel(w, [1])[0] is not None for w in twins + enum_twins)
    assert walks(twins, enum_twins) == on_rows


def test_chunked_expand_ors_the_rows_of_the_set_bits():
    # k = 3, 8, 24, 40 and 128 orbits; the last chunk holds k mod 8 orbits
    # at k = 3 and all 8 elsewhere.
    sets = [by_kind("units", 4), cubes(95), cubes(108), cubes(126), by_kind("one", 128)]
    rng = random.Random(59)
    for weights, k in zip(sets, (3, 8, 24, 40, 128)):
        rows = weights.orbit_rows
        assert len(rows) == k
        expand = _walk_kernel(weights, [1])[1]
        masks = [0, 1, (1 << k) - 1, 1 << k - 1] + [rng.getrandbits(k) for _ in range(200)]
        masks += [1 << rng.randrange(k) | 1 << rng.randrange(k) for _ in range(100)]
        for mask in masks:
            want = 0
            for o in range(k):
                if mask >> o & 1:
                    want |= rows[o]
            assert expand(mask) == want, (weights.modulus, k, mask)


def test_orbit_step_ors_the_columns_of_the_set_bits():
    # The orbit step against its definition: acc together with column
    # orbit_id[x] of each orbit in src, for every subgroup kind on orbit
    # masks at n < 150 and the cubes mod 2945, 5423 and 3458 (k = 32, 8,
    # 128).  The sweep meets every k mod 4, so a short last block of 1, 2
    # or 3 orbits is covered as well as a full one; a full src and a full
    # acc, where the step returns the full mask, are tried as well.
    sets = [by_kind(kind, n) for kind in KINDS for n in range(2, 150)]
    sets = [w for w in sets if w.uses_orbits] + [cubes(2945), cubes(5423), cubes(3458)]
    assert {w.orbit_count % 4 for w in sets} == {0, 1, 2, 3}
    assert {2, 5, 101} <= {w.orbit_count for w in sets}
    rng = random.Random(4)
    for weights in sets:
        n, k, step = weights.modulus, weights.orbit_count, weights.step
        masks = [0, 1, (1 << k) - 1] + [1 << o for o in range(k)]
        masks += [rng.getrandbits(k) for _ in range(8)]
        for x in {0, 1, n - 1, *rng.sample(range(n), min(n, 3))}:
            col = weights.orbit_columns[weights.orbit_id[x]]
            for src in masks:
                want = 0
                for o in range(k):
                    if src >> o & 1:
                        want |= col[o]
                for acc in (0, rng.getrandbits(k), (1 << k) - 1):
                    assert step(acc, x, src) == acc | want, (weights.kind, n, x, src, acc)


def test_node_cap_stays_exact_on_skipped_children():
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
    twin = residue_twin(weights)
    assert twin.orbit_rows is None
    assert capped(twin) == on_rows


def test_walks_step_per_child_past_the_row_limit(monkeypatch):
    # Past MAX_ROW_ORBITS orbits a set has no rows and the walks step by its
    # DP step: on orbit masks where k * k < n (the cubes mod 95, k = 8, and
    # mod 2945, k = 32, eight blocks of four orbits), on residue masks
    # elsewhere (mod 180, k = 30).  Rows are cached per set, so the limit is
    # patched for fresh sets.  At 2945 the walk also fills the same table.
    tables, walk = [], invariants._walk

    def tabled(*args):
        res = walk(*args)
        tables.append(res.table)
        return res

    monkeypatch.setattr(invariants, "_walk", tabled)

    def walks(c180, c95, c2945):
        tables.clear()
        res = [davenport_search(w.modulus, w, UNLIMITED) for w in (c180, c2945)]
        ext = enumerate_extremal(95, c95, UNLIMITED)
        return ([(r.value, r.witness, r.stats.nodes, r.stats.states) for r in res],
                ext.classes, ext.stats, tables[1])

    with_rows = walks(*(kind_set.__wrapped__("cubes", n) for n in (180, 95, 2945)))
    monkeypatch.setattr(weightsets, "MAX_ROW_ORBITS", 0)
    c180, c95, c2945 = (kind_set.__wrapped__("cubes", n) for n in (180, 95, 2945))
    assert c95.uses_orbits and c2945.uses_orbits and not c180.uses_orbits
    for w in (c180, c95, c2945):
        assert w.orbit_rows is None and _walk_kernel(w, [1])[0] is w.step
    without_rows = walks(c180, c95, c2945)
    assert without_rows[:2] == with_rows[:2]
    assert without_rows[2].nodes == with_rows[2].nodes
    assert without_rows[3] == with_rows[3] and len(with_rows[3]) == with_rows[0][1][3]


def test_representation_rule():
    # A subgroup with k orbits on Z_n takes orbit masks when k * k < n, or
    # when k <= 128; a set that is not a subgroup never does.
    for n, orbits in ((5423, 8), (2945, 32), (95, 8), (108, 24), (126, 40), (180, 30),
                      (182, 32), (224, 24), (351, 32)):
        weights = cubes(n)
        assert max(weights.orbit_id) + 1 == orbits
        assert weights.uses_orbits, n
    assert by_kind("one", 128).uses_orbits and not by_kind("one", 129).uses_orbits
    assert by_kind("pm1", 255).orbit_count == 128 and by_kind("pm1", 255).uses_orbits
    assert by_kind("pm1", 256).orbit_count == 129 and not by_kind("pm1", 256).uses_orbits
    assert not custom(30, [1, 2, 3]).uses_orbits


def test_walks_have_rows_exactly_where_the_dp_takes_orbit_masks():
    # One rule for both: for every subgroup kind at n < 400, the walks get
    # orbit rows (no step) exactly when the DP runs on orbit masks and k <=
    # MAX_ROW_ORBITS, so every key of a walk's table is a mask the DP reads.
    # Fresh copies, so the shared sets keep no rows.
    for kind in KINDS:
        for n in range(2, 400):
            shared = by_kind(kind, n)
            weights = WeightSet(n, shared.elements, shared.kind, shared.is_subgroup)
            on_rows = _walk_kernel(weights, [])[0] is None
            want = weights.uses_orbits and weights.orbit_count <= MAX_ROW_ORBITS
            assert on_rows == want, (kind, n)


def test_orbit_tables_match_their_definitions():
    for weights in (cubes(95), cubes(185), by_kind("units", 60), by_kind("squares", 91)):
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
    for weights in (cubes(95), cubes(185), by_kind("units", 60), by_kind("squares", 91)):
        k = len(weights.orbit_columns)
        assert len(weights.orbit_rows) == k
        for o, row in enumerate(weights.orbit_rows):
            assert row < 1 << k * k
            for q, col in enumerate(weights.orbit_columns):
                assert row >> q * k & (1 << k) - 1 == col[o], (weights.modulus, o, q)
        # the step by any symbol is one field of the expanded source
        rng = random.Random(k)
        symbols = rng.sample(range(weights.modulus), 6)
        step = weights.step
        expand, fields, full = _walk_kernel(weights, symbols)[1:4]
        for _ in range(20):
            src = rng.getrandbits(k) | 1
            for i in range(len(symbols)):
                assert expand(src) >> fields[i] & full == step(0, symbols[i], src)


def test_dp_builds_the_step_once(monkeypatch):
    # The step is the weight set's: 1000 mixed DP calls on one set build it
    # once on either mask form, and on residue masks sort each residue's
    # images once.  A verify run builds it at most once for each set it
    # steps on.
    builds, stepped = [], set()
    build = WeightSet.step.func

    def counted(weights):
        builds.append(weights.modulus)
        step = build(weights)

        def logged(acc, x, src):
            stepped.add((weights.modulus, x))
            return step(acc, x, src)

        return logged

    prop = cached_property(counted)
    prop.__set_name__(WeightSet, "step")
    monkeypatch.setattr(WeightSet, "step", prop)
    # not the shared sets, which may hold their steps; pm1 at 300 has 151
    # orbits, past MAX_ROW_ORBITS and sqrt(300), so it runs on residue masks
    on_orbits = kind_set.__wrapped__("cubes", 95)
    on_residues = kind_set.__wrapped__("pm_one", 300)
    assert on_orbits.uses_orbits and not on_residues.uses_orbits
    sorts, rng = [], random.Random(95)
    with monkeypatch.context() as m:
        m.setattr(weightsets, "sorted", lambda xs: sorts.append(1) or sorted(xs), raising=False)
        for weights in (on_orbits, on_residues):
            n = weights.modulus
            calls = [
                lambda seq: has_weighted_zero_subseq(seq, weights),
                lambda seq: is_zero_sum_free(seq, weights),
                lambda seq: has_fixed_length_zero_subseq(seq, weights, 2),
                lambda seq: full_zero_sum_weights(seq.terms, weights),
                lambda seq: full_zero_sum_exists(seq.terms, weights),
            ]
            for k in range(1000):
                seq = Sequence.make(n, [rng.randrange(n) for _ in range(1 + rng.randrange(8))])
                calls[k % len(calls)](seq)
    assert builds == [95, 300]
    assert len(sorts) == sum(1 for mod, _ in stepped if mod == 300) > 100
    builds.clear()
    payload = verify.check_matrix(95, 3, 600)
    assert payload["all_pass"] and max(Counter(builds).values(), default=1) == 1
    # crt_zero_check steps on the cubes mod 5 and mod 19, each set's own step
    builds.clear()
    prof = factor(95)
    fresh = {q: kind_set.__wrapped__("cubes", q) for q in (5, 19)}
    monkeypatch.setattr(zerosum, "cubes", fresh.__getitem__)
    for _ in range(200):
        crt_zero_check(Sequence.make(95, [rng.randrange(95) for _ in range(4)]), prof)
    assert sorted(builds) == [5, 19]


def test_residue_step_sorts_images_on_first_use():
    # On residue masks the step sorts a symbol's images on that symbol's
    # first step, so it has no O(n * |A|) set-up.
    iterations = []

    class Counted(tuple):
        def __iter__(self):
            iterations.append(1)
            return super().__iter__()

    base = by_kind("pm1", 300)  # 151 orbits: past MAX_ROW_ORBITS and sqrt(300)
    twin = WeightSet(300, Counted(base.elements), "pm_one", True)
    assert not twin.uses_orbits
    iterations.clear()
    step = twin.step
    assert not iterations
    assert step(0, 5, 1) == step(0, 5, 1) == sum(1 << t for t in images(5, base))
    assert len(iterations) == 1
    step(0, 7, 3)
    assert len(iterations) == 2


def test_only_the_weight_set_names_the_mask_form():
    # uses_orbits and MAX_ROW_ORBITS decide the mask form and the walks'
    # rows; every other module reads step, bit and orbit_rows instead
    src = os.path.dirname(wzs.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "weightsets.py":
            with open(os.path.join(src, name), encoding="utf-8") as f:
                text = f.read()
            assert "uses_orbits" not in text and "MAX_ROW_ORBITS" not in text, name


def test_the_walk_kernel_lives_beside_the_walk():
    # invariants builds the walk's kernel and its byte-chunk rows and reads
    # them; zerosum holds the DP, its certificates and the extraction only
    with open(zerosum.__file__, encoding="utf-8") as f:
        text = f.read()
    for name in ("_walk_kernel", "orbit_rows", "chunks"):
        assert name not in text, name
