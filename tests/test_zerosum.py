"""Decision core tests: DP against full enumeration, certificates, extraction."""

import itertools
import random
import tracemalloc
import zlib
from collections import Counter

import pytest

from e_oracle import fixed_length_full_rows
from sums_oracle import reachable_sums, residue_twin
from wzs import zerosum
from wzs.errors import ContractError, HypothesisError
from wzs.invariants import lower_bound_witness
from wzs.modarith import factor, theorem_hypothesis_failure, units
from wzs.weightsets import by_kind, cubes, custom
from wzs.zerosum import (
    Certificate,
    Sequence,
    _pick_weight,
    crt_zero_check,
    extract_length_m,
    full_zero_sum_exists,
    full_zero_sum_weights,
    has_fixed_length_zero_subseq,
    has_weighted_zero_subseq,
    is_zero_sum_free,
)


def oracle_reachable(terms, weights):
    """Every weighted selection, brute force: each term skipped or weighted."""
    n = weights.modulus
    sums = set()
    options = [None] + list(weights.elements)
    for combo in itertools.product(options, repeat=len(terms)):
        if all(a is None for a in combo):
            continue
        sums.add(sum(a * x for a, x in zip(combo, terms) if a is not None) % n)
    return sums


def oracle_full_zero(terms, weights):
    n = weights.modulus
    for combo in itertools.product(weights.elements, repeat=len(terms)):
        if sum(a * x for a, x in zip(combo, terms)) % n == 0:
            return True
    return False


def all_multisets(n, max_len):
    for length in range(max_len + 1):
        yield from itertools.combinations_with_replacement(range(n), length)


def test_reachable_sums_trivial():
    t19 = cubes(19)
    assert reachable_sums(Sequence.make(19, []), t19) == set()
    assert reachable_sums(Sequence.make(19, [0]), t19) == {0}


def test_reachable_sums_pair_oracle():
    t19 = cubes(19)
    for g in (2, 3, 7):
        seq = Sequence.make(19, [1, g])
        assert reachable_sums(seq, t19) == oracle_reachable(seq.terms, t19)


def test_reachable_sums_full_cross_product_small():
    for n in (5, 7, 9):
        for weights in (cubes(n), by_kind("units", n), by_kind("one", n)):
            for ms in all_multisets(n, 4):
                seq = Sequence.make(n, ms)
                assert reachable_sums(seq, weights) == oracle_reachable(ms, weights), (
                    n,
                    weights.kind,
                    ms,
                )


def test_reachable_sums_sampled_19():
    # full enumeration at n=19 is too slow for units; sampled per weight kind
    rng = random.Random(7)
    cases = [(cubes(19), 60), (by_kind("units", 19), 20), (by_kind("one", 19), 60)]
    for weights, trials in cases:
        for _ in range(trials):
            length = rng.randrange(5)
            ms = tuple(sorted(rng.randrange(19) for _ in range(length)))
            seq = Sequence.make(19, ms)
            assert reachable_sums(seq, weights) == oracle_reachable(ms, weights)


def test_reachable_sums_monotone_under_subsequence():
    rng = random.Random(3)
    t95 = cubes(95)
    for _ in range(60):
        terms = [rng.randrange(95) for _ in range(rng.randrange(1, 7))]
        keep = [t for t in terms if rng.random() < 0.5]
        big = Sequence.make(95, terms)
        small = Sequence.make(95, keep)
        assert not Counter(small.terms) - Counter(big.terms)
        assert reachable_sums(small, t95) <= reachable_sums(big, t95)


def test_zero_term_gives_single_element_certificate():
    t95 = cubes(95)
    seq = Sequence.make(95, [0, 7, 12])
    cert = has_weighted_zero_subseq(seq, t95)
    assert cert is not None and len(cert.picked) == 1
    idx = cert.picked[0][0]
    assert seq.terms[idx] == 0
    assert cert.verify(seq, t95)


def test_single_unit_term_has_no_zero_sum():
    for n in (19, 95):
        ws = cubes(n)
        for x in sorted(units(n))[:5]:
            assert has_weighted_zero_subseq(Sequence.make(n, [x]), ws) is None


def test_three_ones_over_large_prime():
    # three unit terms always admit a full cube-weighted zero-sum for p > 13
    for p in (19, 31):
        cert = has_weighted_zero_subseq(Sequence.make(p, [1, 1, 1]), cubes(p))
        assert cert is not None
        assert cert.verify(Sequence.make(p, [1, 1, 1]), cubes(p))


def test_certificates_always_validate():
    rng = random.Random(11)
    for n in (19, 55, 95):
        ws = cubes(n)
        for _ in range(80):
            seq = Sequence.make(n, (rng.randrange(n) for _ in range(rng.randrange(7))))
            cert = has_weighted_zero_subseq(seq, ws)
            if cert is not None:
                assert cert.verify(seq, ws)
                assert cert.claimed_sum == 0 and cert.picked
            else:
                assert 0 not in reachable_sums(seq, ws)


def test_certificate_backtracking_deterministic():
    seq = Sequence.make(19, [1, 1, 1, 4])
    ws = cubes(19)
    assert has_weighted_zero_subseq(seq, ws) == has_weighted_zero_subseq(seq, ws)


def test_certificate_verify_verdicts():
    # cubes(7) = {1, 6}; each rejected certificate breaks exactly one rule
    ws = cubes(7)
    zeros = Sequence.make(7, [0, 0])
    one = Sequence.make(7, [1])
    assert Certificate(((0, 1), (1, 6)), 0).verify(zeros, ws) is True
    assert Certificate(((0, 1),), 0).verify(zeros, cubes(5)) is False  # modulus
    assert Certificate(((0, 1), (0, 1)), 0).verify(zeros, ws) is False  # repeated index
    assert Certificate(((-1, 1),), 0).verify(zeros, ws) is False
    assert Certificate(((2, 1),), 0).verify(zeros, ws) is False  # index len(seq)
    assert Certificate(((0, 2),), 0).verify(zeros, ws) is False  # weight outside A
    assert Certificate(((0, 1),), 2).verify(one, ws) is False  # wrong sum
    assert Certificate(((0, 6),), 6).verify(one, ws) is True
    assert Certificate(((0, 1),), 8).verify(one, ws) is True  # the sum is mod n
    assert Certificate((), 0).verify(one, ws) is True
    assert Certificate((), 7).verify(one, ws) is True
    assert Certificate((), 3).verify(one, ws) is False


def reference_verify(cert, seq, weights):
    """Certificate.verify's rules, one pass per rule."""
    if weights.modulus != seq.modulus:
        return False
    idxs = [i for i, _ in cert.picked]
    if len(set(idxs)) != len(idxs) or any(not 0 <= i < len(seq) for i in idxs):
        return False
    if any(a not in weights.members for _, a in cert.picked):
        return False
    total = sum(a * seq.terms[i] for i, a in cert.picked) % seq.modulus
    return total == cert.claimed_sum % seq.modulus


def test_certificate_verify_matches_the_reference_on_random_certificates():
    rng = random.Random(61)
    for ws in (cubes(19), cubes(95), cubes(7), by_kind("units", 12), custom(8, [3, 5])):
        n = ws.modulus
        for _ in range(400):
            seq = Sequence.make(n, (rng.randrange(n) for _ in range(rng.randrange(5))))
            # half the weights from A, and half the sums right (up to n)
            picked = tuple((rng.randrange(-1, len(seq) + 1),
                            rng.choice(ws.elements) if rng.randrange(2) else rng.randrange(n))
                           for _ in range(rng.randrange(4)))
            total = sum(a * seq.terms[i] for i, a in picked if 0 <= i < len(seq))
            claimed = total + n * rng.randrange(-1, 2) if rng.randrange(2) else rng.randrange(n)
            cert = Certificate(picked, claimed)
            other = cubes(5) if rng.randrange(10) == 0 else ws
            assert cert.verify(seq, other) == reference_verify(cert, seq, other), (n, cert)


def test_fixed_length_conventions():
    ws = cubes(5)
    seq = Sequence.make(5, [1, 2])
    # subsequences are nonempty: a length outside [1, len(seq)] has none
    for length in (-1, 0, 3):
        assert has_fixed_length_zero_subseq(seq, ws, length) is None


def test_fixed_length_all_zeros():
    ws = cubes(5)
    seq = Sequence.make(5, [0] * 5)
    cert = has_fixed_length_zero_subseq(seq, ws, 5)
    assert cert is not None and len(cert.picked) == 5
    assert cert.verify(seq, ws)


def test_fixed_length_random_length_98_over_95():
    # guaranteed hit: 98 terms always contain a 95-term weighted zero-sum
    rng = random.Random(5)
    ws = cubes(95)
    for _ in range(10):
        seq = Sequence.make(95, (rng.randrange(95) for _ in range(98)))
        cert = has_fixed_length_zero_subseq(seq, ws, 95)
        assert cert is not None and len(cert.picked) == 95
        assert cert.verify(seq, ws)


def test_fixed_length_band_matches_the_full_rows():
    # every kind, and {1, 2}, at every n < 120: sequences of 1 to 12 terms,
    # many of them zeros or multiples of a divisor, at every length
    rng = random.Random(67)
    for n in range(2, 120):
        divisors = factor(n).divisors()
        sets = [by_kind(kind, n) for kind in ("cubes", "squares", "units", "pm1", "one")]
        for weights in sets + ([custom(n, [1, 2])] if n > 2 else []):
            for _ in range(2):
                terms = [rng.choice(divisors) * rng.randrange(n) % n
                         for _ in range(rng.randrange(1, 13))]
                seq = Sequence.make(n, terms)
                for length in range(len(seq) + 2):
                    assert (has_fixed_length_zero_subseq(seq, weights, length)
                            == fixed_length_full_rows(seq, weights, length)), (n, weights.kind,
                                                                                terms, length)


@pytest.mark.parametrize("case", ["witness and zeros", "ones, one pick"])
def test_fixed_length_band_memory_at_2945(case):
    # the witness and n - 1 zeros, E - 1 terms, hold no n-term zero-sum: the
    # band is D - 1 = 5 cells a row, where full rows held n + 1 = 2946.  n - 1
    # ones hold no 1-term zero-sum: two cells a row, not one per skip
    n = 2945
    weights = cubes(n)
    if case == "witness and zeros":
        seq = Sequence.make(n, [*lower_bound_witness(factor(n)).terms, *[0] * (n - 1)])
        length = n
    else:
        seq, length = Sequence.make(n, [1] * (n - 1)), 1
    has_fixed_length_zero_subseq(Sequence.make(n, [1, 2]), weights, 2)  # warm the tables
    tracemalloc.start()
    try:
        assert has_fixed_length_zero_subseq(seq, weights, length) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_fixed_length_matches_subset_dp():
    rng = random.Random(13)
    ws = cubes(19)
    for _ in range(100):
        seq = Sequence.make(19, (rng.randrange(19) for _ in range(rng.randrange(6))))
        any_fixed = any(
            has_fixed_length_zero_subseq(seq, ws, L) is not None
            for L in range(1, len(seq) + 1)
        )
        assert any_fixed == (has_weighted_zero_subseq(seq, ws) is not None)


def test_full_zero_sum_weights_oracle():
    rng = random.Random(17)
    for q in (5, 9, 19):
        ws = cubes(q)
        for _ in range(60):
            terms = [rng.randrange(q) for _ in range(rng.randrange(5))]
            got = full_zero_sum_weights(terms, ws)
            if got is None:
                assert not oracle_full_zero(terms, ws)
            else:
                assert sum(a * x for a, x in zip(got, terms)) % q == 0
                assert all(a in ws.members for a in got)


def test_full_zero_sum_weights_rejects_values_out_of_range():
    ws = cubes(19)
    for values in ([19], [3, -1, 4], [0, 25, 18], [-5, 30]):
        with pytest.raises(ValueError):
            full_zero_sum_weights(values, ws)
    assert full_zero_sum_weights([], ws) == []
    assert full_zero_sum_weights([1, 18], ws) == [1, 1]


def test_unit_rich_full_zero_sums():
    # >= 3 units force a full cube-weighted zero-sum over Z_p (p not 7 or 13);
    # >= 2 units force a full unit-weighted zero-sum over odd prime powers
    rng = random.Random(19)
    for p in (11, 19, 31):
        ws = cubes(p)
        for _ in range(50):
            extra = [rng.randrange(p) for _ in range(rng.randrange(4))]
            terms = [1 + rng.randrange(p - 1) for _ in range(3)] + extra
            assert full_zero_sum_weights(terms, ws) is not None
    for q in (5, 25, 19):
        ws = by_kind("units", q)
        unit_pool = sorted(units(q))
        for _ in range(50):
            extra = [rng.randrange(q) for _ in range(rng.randrange(4))]
            terms = [rng.choice(unit_pool) for _ in range(2)] + extra
            assert full_zero_sum_weights(terms, ws) is not None


def test_crt_zero_check_trivial():
    prof = factor(95)
    assert crt_zero_check(Sequence.make(95, [0, 0, 0]), prof)
    assert crt_zero_check(Sequence.make(95, []), prof)
    # Z_1 has no prime power to project to: every sequence is a zero-sum
    assert crt_zero_check(Sequence.make(1, [0, 0]), factor(1))


def test_crt_zero_check_blocked_component():
    # the single term 19 is nonzero mod 5, so no full zero-sum exists there
    assert not crt_zero_check(Sequence.make(95, [19]), factor(95))


def test_crt_zero_check_agrees_with_direct():
    rng = random.Random(23)
    prof = factor(95)
    ws = cubes(95)
    for _ in range(200):
        seq = Sequence.make(95, (rng.randrange(95) for _ in range(rng.randrange(7))))
        direct = full_zero_sum_weights(seq.terms, ws) is not None
        assert crt_zero_check(seq, prof) == direct


def sumset_oracle(terms, weights):
    """(full, free) by plain set sums: whether the whole list has a weighted
    sum 0, and whether no nonempty subsequence has one."""
    n = weights.modulus
    full, some = {0}, set()
    for x in terms:
        ys = {a * x % n for a in weights.elements}
        full = {(s + y) % n for s in full for y in ys}
        some |= ys | {(s + y) % n for s in some for y in ys}
    return 0 in full, 0 not in some


def check_yes_no(terms, weights):
    full, free = sumset_oracle(terms, weights)
    ws = full_zero_sum_weights(terms, weights)
    assert full_zero_sum_exists(terms, weights) == (ws is not None) == full, (weights, terms)
    seq = Sequence.make(weights.modulus, terms)
    assert is_zero_sum_free(seq, weights) == (has_weighted_zero_subseq(seq, weights) is None) == free
    return weights.is_subgroup, weights.uses_orbits


def yes_no_weight_sets(n):
    """Every subgroup kind at n and its residue twin (at n <= 128 every
    subgroup takes orbit masks), and the non-subgroup {1, 2} from n = 4 on."""
    sets = [by_kind(kind, n) for kind in ("cubes", "squares", "units", "pm1", "one")]
    sets += [residue_twin(w) for w in sets]
    return sets + [custom(n, [1, 2])] if n >= 4 else sets


def test_yes_no_answers_match_the_certificates_and_brute_force():
    # every multiset of up to 4 terms at n <= 10, and random value lists of
    # up to 8 terms in random order at every n <= 40
    rng = random.Random(61)
    forms = Counter()
    for n in range(2, 41):
        for weights in yes_no_weight_sets(n):
            if n <= 10:
                for terms in all_multisets(n, 4):
                    forms[check_yes_no(list(terms), weights)] += 1
            for _ in range(12):
                terms = [rng.randrange(n) for _ in range(rng.randrange(5, 9))]
                forms[check_yes_no(terms, weights)] += 1
    # orbit masks, residue masks of a subgroup, and a non-subgroup all met
    assert set(forms) == {(True, True), (True, False), (False, False)}


def test_yes_no_answers_on_a_residue_mask_subgroup():
    # pm1 at 300 has 151 orbits, past both k * k < n and MAX_ROW_ORBITS, so
    # its DP runs on residue masks; the zero-sum-free and full answers still match
    rng = random.Random(67)
    weights = by_kind("pm1", 300)
    assert weights.is_subgroup and not weights.uses_orbits
    for _ in range(300):
        check_yes_no([rng.randrange(300) for _ in range(rng.randrange(9))], weights)


def test_crt_zero_check_agrees_with_the_direct_yes_no_answer():
    rng = random.Random(71)
    moduli = [n for n in range(2, 400) if theorem_hypothesis_failure(factor(n)) is None]
    assert len(moduli) == 98
    for n in moduli:
        prof, ws = factor(n), cubes(n)
        for _ in range(25):
            seq = Sequence.make(n, (rng.randrange(n) for _ in range(rng.randrange(7))))
            assert crt_zero_check(seq, prof) == full_zero_sum_exists(seq.terms, ws), (n, seq.terms)


def test_extract_length_m_trivial_cases():
    cert = extract_length_m(Sequence.make(5, [1, 2, 3]), factor(5), 2)
    assert len(cert.picked) == 2 and cert.verify(Sequence.make(5, [1, 2, 3]), cubes(5))

    seq19 = Sequence.make(19, [0] * 5)
    cert = extract_length_m(seq19, factor(19), 3)
    assert len(cert.picked) == 3 and cert.verify(seq19, cubes(19))


def test_extract_length_m_random_95():
    rng = random.Random(29)
    prof = factor(95)
    ws = cubes(95)
    for _ in range(50):
        seq = Sequence.make(95, (rng.randrange(95) for _ in range(8)))
        cert = extract_length_m(seq, prof, 5)
        assert len(cert.picked) == 5
        assert cert.claimed_sum == 0
        assert cert.verify(seq, ws)


def test_extract_length_m_case_paths():
    prof = factor(95)
    ws = cubes(95)
    # few terms coprime to 19 -> strip 19 first
    seq = Sequence.make(95, [19, 38, 57, 76, 19, 38, 1, 2])
    cert = extract_length_m(seq, prof, 5)
    assert cert.verify(seq, ws) and len(cert.picked) == 5
    # at most one term coprime to 5 -> strip 5 first
    seq = Sequence.make(95, [5, 10, 15, 20, 25, 30, 35, 3])
    cert = extract_length_m(seq, prof, 5)
    assert cert.verify(seq, ws) and len(cert.picked) == 5


def _extraction_log(moduli, trials: int) -> list:
    # (n, m, terms, picked) for `trials` sequences from random.Random(n) at
    # m = m_min and m_min + 2, at every hypothesis modulus among `moduli`
    log = []
    for n in moduli:
        prof = factor(n)
        if theorem_hypothesis_failure(prof):
            continue
        quota = [2 if p % 3 == 1 else 1 for p, _ in prof.factors]
        rng = random.Random(n)
        m_min = sum(q + 1 for q in quota)
        for m in (m_min, m_min + 2):
            for _ in range(trials):
                seq = Sequence.make(n, (rng.randrange(n) for _ in range(m + sum(quota))))
                log.append((n, m, seq.terms, extract_length_m(seq, prof, m).picked))
    return log


def test_extraction_certificates_are_pinned():
    # Every hypothesis n < 1200, one-prime moduli included, with 12
    # sequences at each m: the count and CRC-32 of the repr of the log,
    # pinned from the extraction that still had its own one-prime base case.
    log = _extraction_log(range(2, 1200), 12)
    assert (len(log), zlib.crc32(repr(log).encode())) == (7104, 0x99DBF816)


def test_extraction_certificates_are_pinned_at_large_moduli():
    # The same log at n = 2945 = 5*19*31 and 5423 = 11*17*29, above that
    # range, with 100 sequences at each m: about 70 % of the steps of their
    # per-prime DPs (the cubes mod each prime, 2 to 4 orbits) start from a
    # full mask.
    log = _extraction_log((2945, 5423), 100)
    assert (len(log), zlib.crc32(repr(log).encode())) == (400, 0xA796B8CF)


def _drop_path_log() -> list:
    # (n, m, terms, picked) at every hypothesis n < 600: from random.Random(n),
    # for each (p, quota) of the profile's unit quotas and m = m_min and
    # m_min + 2, 4 sequences of `quota` random terms and the rest multiples
    # of p, so the extraction divides p out first
    log = []
    for n in range(2, 600):
        prof = factor(n)
        if theorem_hypothesis_failure(prof):
            continue
        rng = random.Random(n)
        m_min = sum(quota + 1 for _, quota in prof.unit_quotas)
        for p, quota in prof.unit_quotas:
            for m in (m_min, m_min + 2):
                for _ in range(4):
                    terms = [rng.randrange(n) for _ in range(quota)]
                    terms += [p * rng.randrange(n // p)
                              for _ in range(m + prof.extremal_length - quota)]
                    seq = Sequence.make(n, terms)
                    log.append((n, m, seq.terms, extract_length_m(seq, prof, m).picked))
    return log


def test_extraction_drop_path_is_pinned(monkeypatch):
    # The random logs above never divide a prime out; here every extraction
    # does, at least once, and the weights it lifts back are pinned.
    drops, drop = [], zerosum._drop_and_recurse
    monkeypatch.setattr(zerosum, "_drop_and_recurse",
                        lambda *args: drops.append(args[3]) or drop(*args))
    log = _drop_path_log()
    assert (len(log), len(drops)) == (1512, 1513)
    assert zlib.crc32(repr(log).encode()) == 0x6BB60922


def test_extract_length_m_hypothesis_refusals():
    with pytest.raises(HypothesisError, match=r"7 does not divide n \(n = 91\)"):
        extract_length_m(Sequence.make(91, [0] * 9), factor(91), 5)
    with pytest.raises(HypothesisError):
        extract_length_m(Sequence.make(95, [0] * 7), factor(95), 5)  # wrong length
    with pytest.raises(HypothesisError):
        extract_length_m(Sequence.make(95, [0] * 7), factor(95), 4)  # m too small
    with pytest.raises(HypothesisError, match=r"n is odd \(n = 50\)"):
        extract_length_m(Sequence.make(50, [0] * 8), factor(50), 6)
    with pytest.raises(HypothesisError, match=r"n is square-free \(n = 25\)"):
        extract_length_m(Sequence.make(25, [0] * 4), factor(25), 2)
    with pytest.raises(HypothesisError, match=r"n >= 2$"):
        extract_length_m(Sequence.make(1, []), factor(1), 0)


def test_sequence_validation():
    with pytest.raises(ValueError):
        Sequence.make(5, [5])
    with pytest.raises(ValueError):
        Sequence.make(5, [-1])
    # a bad term at either end of the sorted terms, with good ones between
    for terms in ([2, 1, 5], [3, -1, 4], [-2, 0, 9]):
        with pytest.raises(ValueError):
            Sequence.make(5, terms)
    for n in (0, -3):
        with pytest.raises(ValueError):
            Sequence.make(n, [])
    assert Sequence.make(5, []).terms == ()
    assert Sequence.make(5, [4, 0]).terms == (0, 4)
    assert Sequence.make(5, [3, 1, 2]).terms == (1, 2, 3)
    assert Counter(Sequence.make(6, [2, 2, 4]).terms)[2] == 2


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError):
        reachable_sums(Sequence.make(5, [1]), cubes(7))


def test_custom_weights_supported():
    ws = custom(8, [3, 5])
    seq = Sequence.make(8, [1, 1])
    got = reachable_sums(seq, ws)
    assert got == oracle_reachable(seq.terms, ws)


def scan_pick(weights, bit, prev, t, x):
    """The reference backtracking step: scan A in increasing order."""
    n = weights.modulus
    for a in weights.elements:
        s = (t - a * x) % n
        if prev >> bit[s] & 1:
            return a, s
    raise ContractError("no weight reproduces a reachable DP state")


def pick_or_error(pick, weights, t, x):
    try:
        return pick(weights, weights.bit, 1, t, x)
    except ContractError:
        return "no weight"


SPARSE_126 = custom(126, [1, 2, 5, 8, 55, 84])
PICK_SETS = [cubes(2945), cubes(5423), cubes(180), cubes(126), by_kind("units", 180),
             by_kind("squares", 126), SPARSE_126, custom(45, [3, 9, 21])]


def test_last_pick_is_solved_as_the_scan_picks_it():
    # prev == 1: the weight solves a*x = t.  Every x (0 and non-units too),
    # one t that some weight reaches and one at random, often with no weight.
    rng = random.Random(53)
    for weights in PICK_SETS:
        n = weights.modulus
        for x in range(n):
            ts = (rng.choice(weights.elements) * x % n, rng.randrange(n))
            for t in ts[: 1 if n > 5000 else 2]:
                want = pick_or_error(scan_pick, weights, t, x)
                assert pick_or_error(_pick_weight, weights, t, x) == want, (n, weights.kind, t, x)
    # gcd(5, 2945) = 5 does not divide 1; 2*a = 6 mod 126 only for a = 3, 66
    for weights, t, x in ((cubes(2945), 1, 5), (SPARSE_126, 6, 2)):
        with pytest.raises(ContractError):
            _pick_weight(weights, weights.bit, 1, t, x)
    assert _pick_weight(cubes(2945), cubes(2945).bit, 1, 0, 0) == (1, 0)


def certificates(weights, terms):
    seq = Sequence.make(weights.modulus, terms)
    fixed = [has_fixed_length_zero_subseq(seq, weights, k) for k in range(1, len(seq) + 1)]
    return has_weighted_zero_subseq(seq, weights), fixed, full_zero_sum_weights(terms, weights)


def test_certificates_match_the_scan_reference(monkeypatch):
    rng = random.Random(59)
    cases = []
    for weights in PICK_SETS:
        n = weights.modulus
        divisors = factor(n).divisors()
        for _ in range(100):
            cases.append((weights, [rng.choice(divisors) * rng.randrange(n) % n
                                    for _ in range(rng.randrange(1, 8))]))
    solved = [certificates(w, terms) for w, terms in cases]
    monkeypatch.setattr(zerosum, "_pick_weight", scan_pick)
    for (weights, terms), got in zip(cases, solved):
        assert got == certificates(weights, terms), (weights.modulus, weights.kind, terms)


# The count of sequences with a weighted zero-sum and the CRC-32 of the repr
# of every DP answer on 200 sequences from random.Random(n), 0 to 8 terms
# each: the certificates of has_weighted_zero_subseq,
# has_fixed_length_zero_subseq (length 0 included) and full_zero_sum_weights
# (on the terms as drawn), and the yes/no answers; crt_zero_check for the
# cubes.  Orbit masks (cubes 95 and 5423; cubes 2945 and 3458, k = 32 and
# 128, where most steps start from a full mask), residue masks (cubes 18, 63
# and 126, {1} mod 100, {+-1} mod 200, squares mod 120) and a set that is
# not a subgroup ({1, 7, 11} mod 60).  New sets go last: the id of the
# custom set holds its index.
DP_PINS = {
    ("cubes", 126, None): (96, 0x8027F5D1),
    ("cubes", 5423, None): (146, 0x2B59E676),
    ("cubes", 95, None): (143, 0xCF764992),
    ("custom", 60, (1, 7, 11)): (115, 0x9609E3D2),
    ("cubes", 18, None): (130, 0x0CEC78C2),
    ("cubes", 63, None): (115, 0x64409A5C),
    ("one", 100, None): (72, 0xEF57AC52),
    ("pm1", 200, None): (79, 0x71203BC5),
    ("squares", 120, None): (86, 0x47017896),
    ("cubes", 2945, None): (128, 0x5D6D8892),
    ("cubes", 3458, None): (106, 0xF1E31624),
}


@pytest.mark.parametrize("kind, n, elems", list(DP_PINS))
def test_dp_answers_are_pinned(kind, n, elems):
    weights = by_kind(kind, n, elems and list(elems))
    prof = factor(n)
    rng = random.Random(n)
    log = []
    for _ in range(200):
        values = [rng.randrange(n) for _ in range(rng.randrange(9))]
        seq = Sequence.make(n, values)
        sub = has_weighted_zero_subseq(seq, weights)
        full = full_zero_sum_weights(values, weights)
        assert is_zero_sum_free(seq, weights) == (sub is None)
        assert full_zero_sum_exists(values, weights) == (full is not None)
        log.append((seq.terms, sub, full,
                    has_fixed_length_zero_subseq(seq, weights, rng.randrange(len(seq) + 1)),
                    kind == "cubes" and crt_zero_check(seq, prof)))
    found = sum(entry[1] is not None for entry in log)
    assert (found, zlib.crc32(repr(log).encode())) == DP_PINS[kind, n, elems]
