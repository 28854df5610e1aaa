"""Factorization, units, and power-residue checks with enumeration oracles."""

import math
import zlib

import pytest

from wzs import modarith
from wzs.modarith import (
    factor,
    is_cube_mod_prime,
    is_kth_power_residue,
    unit_quota,
    units,
)
from wzs.weightsets import cubes


def three_part(prof):
    """The powers of 2 and 3 in n, which neither n1 nor n2 takes."""
    return math.prod(p**e for p, e in prof.factors if not unit_quota(p))


def big_omega(prof):
    """Omega(n), the prime factors of n counted with multiplicity."""
    return sum(e for _, e in prof.factors)


def test_factor_95():
    prof = factor(95)
    assert prof.factors == ((5, 1), (19, 1))
    assert prof.n1 == 19 and prof.n2 == 5
    assert prof.big_omega_n1 == 1 and prof.big_omega_n2 == 1


def test_factor_one():
    prof = factor(1)
    assert prof.factors == ()
    assert prof.n1 == prof.n2 == three_part(prof) == 1


def test_factor_prime_power_split():
    prof = factor(7**3 * 11)
    assert prof.n1 == 343 and prof.n2 == 11
    assert prof.big_omega_n1 == 3 and prof.small_omega_n1 == 1


def test_unit_quotas_state_the_per_prime_rule():
    # (p, 2) for the primes 1 mod 3, then (q, 1) for the odd primes 2 mod 3,
    # each in increasing order; 2 and 3 carry no quota
    assert factor(95).unit_quotas == ((19, 2), (5, 1))
    assert factor(2 * 3 * 5 * 7 * 11 * 13).unit_quotas == ((7, 2), (13, 2), (5, 1), (11, 1))
    assert factor(1).unit_quotas == () and factor(1).extremal_length == 0
    for n in range(1, 2000):
        prof = factor(n)
        quotas = prof.unit_quotas
        assert [p for p, q in quotas if q == 2] == [p for p, _ in prof.factors if p % 3 == 1]
        assert [p for p, q in quotas if q == 1] == [p for p, _ in prof.factors if p % 3 == 2 and p > 2]
        assert [q for _, q in quotas] == sorted((q for _, q in quotas), reverse=True)
        assert prof.extremal_length == sum(dict(quotas).get(p, 0) * e for p, e in prof.factors)


def test_derived_profile_values_are_pinned():
    # Every value a profile derives from its factorization, for 1 <= n < 5000:
    # the count and CRC-32 of their repr, pinned from the profile that stored
    # the split as fields filled by factor(), with the quotas listed as they
    # were then.
    log = []
    for n in range(1, 5000):
        prof = factor(n)
        log.append((n, prof.n1, prof.n2, three_part(prof), prof.big_omega_n1, prof.big_omega_n2,
                    prof.small_omega_n1, prof.small_omega_n2, list(prof.unit_quotas),
                    prof.extremal_length, prof.divisors()))
    assert (len(log), zlib.crc32(repr(log).encode())) == (4999, 0xBDDBF5D5)


def test_unit_quota_is_the_split_by_class_mod_3():
    assert [unit_quota(p) for p in (2, 3, 5, 7, 11, 13, 17, 19)] == [0, 0, 1, 2, 1, 2, 1, 2]
    for n in (1, 95, 2 * 3 * 5 * 7 * 11 * 13, 7**3 * 11, 2**4 * 3**2 * 5**2 * 19):
        prof = factor(n)
        assert prof.unit_quotas == tuple((p, q) for q in (2, 1) for p, _ in prof.factors
                                         if unit_quota(p) == q)
        assert prof.n1 * prof.n2 * three_part(prof) == n


def test_cube_test_mod_a_prime_is_membership_in_the_cubes():
    # Euler's criterion against the exhaustive cube set, every unit mod every
    # prime below 2000
    primes = [p for p in range(2, 2000) if factor(p).factors == ((p, 1),)]
    assert len(primes) == 303
    for p in primes:
        assert all(is_cube_mod_prime(r, p) == (r in cubes(p).members) for r in range(1, p)), p


def test_factor_out_of_range():
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(ValueError):
        factor(10**6 + 1)


def test_factor_bound_configurable(monkeypatch):
    # the cap is DEFAULT_BOUND, read on each call; the unwrapped function
    # keeps a profile past the usual cap out of factor's cache
    monkeypatch.setattr(modarith, "DEFAULT_BOUND", 2 * 10**6)
    prof = factor.__wrapped__(10**6 + 1)
    assert prof.factors == ((101, 1), (9901, 1))


def test_factorization_identities():
    for n in range(1, 400):
        prof = factor(n)
        assert big_omega(prof) >= len(prof.factors)
        assert prof.n1 * prof.n2 * three_part(prof) == n
        assert big_omega(prof) == (
            prof.big_omega_n1 + prof.big_omega_n2 + big_omega(factor(three_part(prof)))
        )
        assert all(p % 3 == 1 for p, _ in factor(prof.n1).factors)
        assert all(p % 3 == 2 and p != 2 for p, _ in factor(prof.n2).factors)
        product = 1
        for p, e in prof.factors:
            product *= p**e
        assert product == n


def _factor_by_every_divisor(n):
    """(p, e) pairs of n by trial division by every integer d >= 2."""
    out, d = [], 2
    while n > 1:
        if d * d > n:
            out.append((n, 1))
            break
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return tuple(out)


# 997^2, 3^6 * 37^2, 2 * 499979, the largest prime below 10^6, 757 * 1321
# and the cap itself, beyond the exhaustive range
_FACTOR_EXTRAS = (1, 961, 994009, 998001, 999958, 999983, 999997, 999999, 10**6)


def test_factor_matches_trial_division_by_every_integer():
    for n in (*range(1, 20001), *_FACTOR_EXTRAS):
        assert factor(n).factors == _factor_by_every_divisor(n), n
    assert factor(998001).factors == ((3, 6), (37, 2))
    assert factor(999997).factors == ((757, 1), (1321, 1))


def test_units():
    assert units(5) == {1, 2, 3, 4}
    assert units(9) == {1, 2, 4, 5, 7, 8}
    assert units(1) == {0}


def test_units_size_is_totient():
    for m in range(2, 200):
        phi = sum(1 for x in range(1, m) if math.gcd(x, m) == 1)
        assert len(units(m)) == phi


def test_one_is_always_a_cube():
    for m in range(1, 80):
        assert is_kth_power_residue(1 % m, 3, m)


def test_cube_residue_mod_19_oracle():
    cubes_19 = {pow(x, 3, 19) for x in range(1, 19)}
    assert is_kth_power_residue(2, 3, 19) == (2 in cubes_19)
    assert not is_kth_power_residue(2, 3, 19)


def test_cube_residue_splits_mod_95():
    for a in range(95):
        assert is_kth_power_residue(a, 3, 95) == (
            is_kth_power_residue(a % 5, 3, 5) and is_kth_power_residue(a % 19, 3, 19)
        )


def test_power_residue_matches_enumeration_small():
    # acceptance covers m <= 1000; keep the module-level spot check quick
    for m in range(1, 120):
        for k in (2, 3):
            values = {pow(x, k, m) for x in range(m)}
            for a in range(m):
                assert is_kth_power_residue(a, k, m) == (a in values)


def test_power_residue_rejects_bad_args():
    with pytest.raises(ValueError):
        is_kth_power_residue(5, 3, 5)
    with pytest.raises(ValueError):
        is_kth_power_residue(0, 0, 5)
