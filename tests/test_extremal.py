"""Canonical forms, orbit enumeration, construction and classification."""

import random
import zlib

import pytest

from wzs import extremal
from wzs.errors import HypothesisError
from wzs.extremal import (
    canonicalize,
    classify_structure,
    construct_extremal,
    coprimality_violating_sequence,
    enumerate_extremal,
    orbit_transform,
    reconstruct,
)
from wzs.invariants import Budget, davenport_formula, davenport_search, lower_bound_witness
from wzs.modarith import factor, theorem_hypothesis_failure, units
from wzs.weightsets import by_kind, cubes, custom, squares
from wzs.zerosum import Sequence, has_weighted_zero_subseq


def orbit_of_pair(pair, weights):
    """Explicit orbit of a two-term multiset: all (c, a_1, a_2, sigma) images."""
    n = weights.modulus
    x, y = pair
    out = set()
    for c in units(n):
        for a1 in weights.elements:
            for a2 in weights.elements:
                out.add(tuple(sorted((c * a1 * x % n, c * a2 * y % n))))
    return out


def zero_sum_free_unit_pairs(n, weights):
    pairs = []
    unit_pool = sorted(units(n))
    for i, x in enumerate(unit_pool):
        for y in unit_pool[i:]:
            if has_weighted_zero_subseq(Sequence.make(n, [x, y]), weights) is None:
                pairs.append((x, y))
    return pairs


def brute_orbit_classes(pairs, weights):
    classes = []
    seen = set()
    for pair in pairs:
        if pair in seen:
            continue
        orbit = orbit_of_pair(pair, weights)
        seen |= orbit
        classes.append(orbit)
    return classes


def test_canonicalize_same_orbit_members():
    t19 = cubes(19)
    rng = random.Random(0)
    base = Sequence.make(19, [1, 3])
    for _ in range(30):
        moved = orbit_transform(base, t19, rng)
        assert canonicalize(moved, t19).canonical == canonicalize(base, t19).canonical


def test_canonicalize_fixes_zeros():
    t19 = cubes(19)
    zz = Sequence.make(19, [0, 0])
    assert canonicalize(zz, t19).canonical.terms == (0, 0)


def test_canonicalize_requires_subgroup():
    with pytest.raises(HypothesisError):
        canonicalize(Sequence.make(7, [1, 2]), custom(7, [2, 3]))


def test_canonical_partition_matches_brute_orbits_19():
    t19 = cubes(19)
    pairs = zero_sum_free_unit_pairs(19, t19)
    oracle_classes = brute_orbit_classes(pairs, t19)
    canon_of = {
        pair: canonicalize(Sequence.make(19, pair), t19).canonical.terms
        for pair in pairs
    }
    # same orbit <-> same canonical form, for every pair of pairs
    for orbit in oracle_classes:
        members = [p for p in pairs if p in orbit]
        assert len({canon_of[m] for m in members}) == 1
    assert len({canon_of[p] for p in pairs}) == len(oracle_classes)


def test_equivalent_oracle_on_pairs():
    t19 = cubes(19)
    s = Sequence.make(19, [1, 2])
    t = Sequence.make(19, [1, 4])
    in_orbit = tuple(t.terms) in orbit_of_pair((1, 2), t19)
    assert (canonicalize(s, t19).canonical == canonicalize(t, t19).canonical) == in_orbit


def test_equivalent_basics():
    t19 = cubes(19)
    s = Sequence.make(19, [3, 7])
    assert canonicalize(s, t19).canonical == canonicalize(s, t19).canonical
    # the action fixes 0, so zero multiplicities must match
    a = Sequence.make(19, [0, 5])
    b = Sequence.make(19, [5, 7])
    assert canonicalize(a, t19).canonical != canonicalize(b, t19).canonical


def test_enumerate_extremal_5():
    enum = enumerate_extremal(5, cubes(5))
    assert enum.complete and enum.d_value == 2
    assert [c.canonical.terms for c in enum.classes] == [(1,)]


def test_enumerate_extremal_19_matches_brute_count():
    t19 = cubes(19)
    enum = enumerate_extremal(19, t19)
    assert enum.complete
    oracle_count = len(brute_orbit_classes(zero_sum_free_unit_pairs(19, t19), t19))
    assert len(enum.classes) == oracle_count == 1


def test_enumerate_extremal_honors_small_budgets():
    # n = 589 has 31 classes but fewer nodes than one periodic deadline check,
    # so the deadline is also looked at once per canonicalized leaf.
    for budget in (Budget(max_seconds=0), Budget(max_nodes=0), Budget(max_seconds=1e-9)):
        enum = enumerate_extremal(589, cubes(589), budget)
        assert not enum.complete
        assert len(enum.classes) < 31
    assert len(enumerate_extremal(589, cubes(589)).classes) == 31


# (d_value, class count) pinned from the enumerator before it read its
# classes back from the search table.
@pytest.mark.parametrize(
    "kind, n, d_value, count",
    [
        ("cubes", 95, 4, 7),
        ("cubes", 91, 5, 38),
        ("cubes", 126, 7, 2801),
        ("cubes", 589, 5, 31),
        ("cubes", 2945, 6, 1249),
        ("units", 60, 5, 136),
        ("squares", 45, 8, 14),
        ("pm1", 40, 6, 90),
        ("one", 12, 12, 1),
    ],
)
def test_enumerate_extremal_pins(kind, n, d_value, count):
    weights = by_kind(kind, n)
    enum = enumerate_extremal(n, weights)
    assert enum.complete and enum.stats.exhausted_by is None
    assert (enum.d_value, len(enum.classes)) == (d_value, count)
    assert enum.d_value == davenport_search(n, weights).value


def test_exhausted_enumeration_names_its_budget():
    enum = enumerate_extremal(2945, cubes(2945), Budget(max_nodes=1000))
    assert not enum.complete and enum.stats.exhausted_by == "nodes"
    assert enum.classes == () and enum.d_value is None
    enum = enumerate_extremal(2945, cubes(2945), Budget(max_seconds=0))
    assert not enum.complete and enum.stats.exhausted_by == "seconds"
    assert enum.d_value is None


def test_enumerate_extremal_55():
    enum = enumerate_extremal(55, cubes(55))
    assert enum.complete
    assert [list(c.canonical.terms) for c in enum.classes] == [[1, 5], [1, 11], [5, 11]]


def test_enumerate_extremal_95_regression_and_classification():
    prof = factor(95)
    t95 = cubes(95)
    enum = enumerate_extremal(95, t95)
    assert enum.complete
    assert len(enum.classes) == 7  # regression value from this enumerator
    for c in enum.classes:
        assert has_weighted_zero_subseq(c.canonical, t95) is None
        report = classify_structure(c.canonical, prof)
        assert reconstruct(report) == c.canonical


def test_construct_extremal_values():
    assert construct_extremal(factor(5)).terms == (1,)
    assert construct_extremal(factor(19)).terms == (1, 2)
    assert construct_extremal(factor(55)).terms == (1, 11)
    assert construct_extremal(factor(95)).terms == (1, 2, 19)


def test_construct_is_the_lower_bound_witness():
    hypothesis_moduli = [n for n in range(5, 600) if theorem_hypothesis_failure(factor(n)) is None]
    assert len(hypothesis_moduli) == 147
    for n in hypothesis_moduli:
        prof = factor(n)
        seq = construct_extremal(prof)
        assert seq == lower_bound_witness(prof), n
        assert reconstruct(classify_structure(seq, prof)) == seq, n


def test_unit_pair_ratio_test_matches_the_dp():
    # Every unit pair mod every prime 5 <= p < 200: the cube-coset ratio
    # test that _classify's case-1 check runs, against the certificate DP.
    primes = [p for p in range(5, 200) if factor(p).factors == ((p, 1),)]
    assert len(primes) == 44
    for p in primes:
        weights = cubes(p)
        for x in range(1, p):
            for y in range(x, p):
                free = has_weighted_zero_subseq(Sequence(p, (x, y)), weights) is None
                assert extremal._unit_pair_zero_sum_free(x, y, p) == free, (p, x, y)
                assert extremal._unit_pair_zero_sum_free(y, x, p) == free, (p, y, x)


def test_extremal_reads_no_kernel_names():
    kernel = {"_reach_step", "_reach_rows"}
    assert not kernel & set(vars(extremal))


def test_construct_then_classify_roundtrip():
    for n in (5, 19, 55, 95, 209, 1045):
        prof = factor(n)
        seq = construct_extremal(prof)
        assert len(seq) == davenport_formula(prof).value - 1
        report = classify_structure(seq, prof)
        assert reconstruct(report) == seq


@pytest.mark.parametrize("n", [55, 95, 185, 589, 2945])
def test_every_divided_remainder_is_extremal(n):
    # _classify does not re-check the remainders: their length and
    # zero-sum-freeness follow from the top-level checks (the length drops
    # with D, and a cube mod n/p lifts by CRT to a cube mod n).  Check that
    # arithmetic here, level by level, over every class.
    enum = enumerate_extremal(n, cubes(n))
    assert enum.complete and enum.classes
    for c in enum.classes:
        report = classify_structure(c.canonical, factor(n))
        while report.child is not None:
            sub_n, remainder = report.child.modulus, report.remainder
            assert remainder.modulus == sub_n == report.modulus // report.p
            assert len(remainder) == davenport_formula(factor(sub_n)).value - 1, (n, c)
            assert has_weighted_zero_subseq(remainder, cubes(sub_n)) is None, (n, c)
            report = report.child


def test_classify_builds_no_weight_set_for_a_divisor():
    prof = factor(2945)
    classes = enumerate_extremal(2945, cubes(2945)).classes
    cubes.cache_clear()
    for c in classes:
        classify_structure(c.canonical, prof)
    assert cubes.cache_info().misses == 1  # cubes(2945), for the top-level check


def test_classify_case_tags_55():
    prof = factor(55)
    report = classify_structure(Sequence.make(55, [1, 5]), prof)
    assert report.case == "case2" and report.p == 5
    assert report.child.case == "base" and report.child.modulus == 11
    report = classify_structure(Sequence.make(55, [5, 11]), prof)
    assert [list(q) for q in report.qualifying] == [["case2", 5], ["case2", 11]]


def test_classify_case1_95():
    prof = factor(95)
    # two terms coprime to 19, remainder divides out to an extremal over Z_5
    report = classify_structure(Sequence.make(95, [1, 2, 19]), prof)
    assert report.case == "case1" and report.p == 19
    assert sorted(report.coprime_terms) == [1, 2]
    assert report.child.modulus == 5


def test_classify_refuses_non_extremal():
    prof = factor(95)
    with pytest.raises(HypothesisError):
        classify_structure(Sequence.make(95, [1, 2]), prof)  # wrong length
    with pytest.raises(HypothesisError):
        classify_structure(Sequence.make(95, [0, 1, 2]), prof)  # not zero-sum-free


def test_classify_respects_hypotheses():
    with pytest.raises(HypothesisError):
        classify_structure(Sequence.make(91, [1, 2, 3]), factor(91))


def test_orbit_invariance_random_trials():
    rng = random.Random(41)
    for n in (19, 55, 95):
        ws = cubes(n)
        for _ in range(100):
            seq = Sequence.make(n, (rng.randrange(n) for _ in range(1 + rng.randrange(5))))
            moved = orbit_transform(seq, ws, rng)
            assert canonicalize(seq, ws).canonical == canonicalize(moved, ws).canonical
            assert (has_weighted_zero_subseq(seq, ws) is None) == (
                has_weighted_zero_subseq(moved, ws) is None
            )


def test_enumerated_classes_meet_coprimality_minima():
    for n in (55, 95):
        prof = factor(n)
        for c in enumerate_extremal(n, cubes(n)).classes:
            for p, _ in prof.factors:
                quota = 2 if p % 3 == 1 else 1
                assert sum(1 for t in c.canonical.terms if t % p != 0) >= quota


def test_coprimality_violations_force_zero_sums():
    rng = random.Random(43)
    for n in (55, 95):
        prof = factor(n)
        ws = cubes(n)
        length = 2 * prof.big_omega_n1 + prof.big_omega_n2
        for _ in range(100):
            seq = coprimality_violating_sequence(prof, rng)
            assert len(seq) == length
            assert has_weighted_zero_subseq(seq, ws) is not None


def test_violating_sequence_shape():
    # every draw leaves fewer terms coprime to some prime than its quota: at
    # most one for 19 (of n1), none for 5 (of n2); each prime gets drawn
    rng = random.Random(47)
    prof = factor(95)
    short_at = set()
    for _ in range(40):
        seq = coprimality_violating_sequence(prof, rng)
        short = {p for p, quota in prof.unit_quotas()
                 if sum(1 for t in seq.terms if t % p != 0) < quota}
        assert short, seq.terms
        short_at |= short
    assert short_at == {19, 5}


def test_canonicalize_coset_scalings_match_all_units():
    # Reference: coset-normalize with the brute double loop and minimize over
    # every unit scaling, as the canonical form is defined.
    rng = random.Random(7)
    for n in (19, 55, 91, 95, 185):
        for ws in (cubes(n), squares(n)):
            rep = [min([x] + [w * x % n for w in ws.elements]) for x in range(n)]
            for _ in range(40):
                seq = Sequence.make(n, [rng.randrange(n) for _ in range(rng.randrange(1, 6))])
                forms = {tuple(sorted(rep[c * x % n] for x in seq.terms)) for c in units(n)}
                got = canonicalize(seq, ws)
                assert got.canonical.terms == min(forms), (n, seq)
                assert got.orbit_size == len(forms), (n, seq)


def test_canonical_forms_are_pinned():
    # (orbit_size, canonical terms) of every class enumerate_extremal lists at
    # 589 and 2945, and of canonicalize over 2000 random sequences mod 95 and
    # 185: the count and CRC-32 of their repr, pinned from the canonical form
    # that read the n-sized coset-minima table.
    for n, count, crc in ((589, 31, 0xA5D262AB), (2945, 1249, 0x00C3527B)):
        enum = enumerate_extremal(n, cubes(n))
        forms = [(c.orbit_size, c.canonical.terms) for c in enum.classes]
        assert (len(forms), zlib.crc32(repr(forms).encode())) == (count, crc), n
    for n, crc in ((95, 0xBD4231EC), (185, 0x0726882B)):
        rng = random.Random(n)
        forms = []
        for _ in range(2000):
            seq = Sequence.make(n, [rng.randrange(n) for _ in range(rng.randrange(8))])
            c = canonicalize(seq, cubes(n))
            forms.append((c.orbit_size, c.canonical.terms))
        assert zlib.crc32(repr(forms).encode()) == crc, n
