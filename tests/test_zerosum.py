"""Decision core tests: DP against full enumeration, certificates, extraction."""

import itertools
import random
from collections import Counter

import pytest

from wzs.errors import HypothesisError
from wzs.modarith import factor, units
from wzs.weightsets import cubes, custom, singleton_one, units_weights
from wzs.zerosum import (
    Certificate,
    Sequence,
    crt_zero_check,
    extract_length_m,
    full_zero_sum_weights,
    has_fixed_length_zero_subseq,
    has_weighted_zero_subseq,
    reachable_sums,
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
        for weights in (cubes(n), units_weights(n), singleton_one(n)):
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
    cases = [(cubes(19), 60), (units_weights(19), 20), (singleton_one(19), 60)]
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


def test_fixed_length_conventions():
    ws = cubes(5)
    seq = Sequence.make(5, [1, 2])
    assert has_fixed_length_zero_subseq(seq, ws, 0) is None
    empty = has_fixed_length_zero_subseq(seq, ws, 0, allow_empty=True)
    assert empty == Certificate(picked=(), claimed_sum=0)
    assert has_fixed_length_zero_subseq(seq, ws, 3) is None


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
                assert all(a in ws for a in got)


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
        ws = units_weights(q)
        unit_pool = sorted(units(q))
        for _ in range(50):
            extra = [rng.randrange(q) for _ in range(rng.randrange(4))]
            terms = [rng.choice(unit_pool) for _ in range(2)] + extra
            assert full_zero_sum_weights(terms, ws) is not None


def test_crt_zero_check_trivial():
    prof = factor(95)
    assert crt_zero_check(Sequence.make(95, [0, 0, 0]), prof)
    assert crt_zero_check(Sequence.make(95, []), prof)


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


def test_extract_length_m_hypothesis_refusals():
    with pytest.raises(HypothesisError):
        extract_length_m(Sequence.make(91, [0] * 9), factor(91), 5)  # 7 | 91
    with pytest.raises(HypothesisError):
        extract_length_m(Sequence.make(95, [0] * 7), factor(95), 5)  # wrong length
    with pytest.raises(HypothesisError):
        extract_length_m(Sequence.make(95, [0] * 7), factor(95), 4)  # m too small
    with pytest.raises(HypothesisError):
        extract_length_m(Sequence.make(50, [0] * 8), factor(50), 6)  # even
    with pytest.raises(HypothesisError):
        extract_length_m(Sequence.make(25, [0] * 4), factor(25), 2)  # not square-free


def test_sequence_validation():
    with pytest.raises(ValueError):
        Sequence.make(5, [5])
    with pytest.raises(ValueError):
        Sequence.make(5, [-1])
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
