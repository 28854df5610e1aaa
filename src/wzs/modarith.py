"""Residue arithmetic groundwork: factorization, units, power residues.

Everything is exact integer arithmetic.  Moduli are capped at DEFAULT_BOUND
for trial division; nothing here needs probabilistic primality or big-number
factoring.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

from .errors import HypothesisError, Record

DEFAULT_BOUND = 10**6


def unit_quota(p: int) -> int:
    """The per-prime unit rule of the structure result, the one place the
    primes of n are split by class mod 3: a prime p = 1 (mod 3) goes to n1
    with quota 2, an odd p = 2 (mod 3) to n2 with quota 1, and 2 and 3 to
    neither (quota 0).  An extremal sequence keeps at least `quota` terms
    coprime to p, and exactly that many at some p where it decomposes."""
    if p in (2, 3):
        return 0
    return 2 if p % 3 == 1 else 1


def is_cube_mod_prime(r: int, p: int) -> bool:
    """Whether the unit r is a cube mod the prime p, by Euler's criterion:
    r^((p-1)/gcd(3, p-1)) = 1."""
    return pow(r, (p - 1) // math.gcd(3, p - 1), p) == 1


class ModulusProfile(Record):
    """A modulus with its factorization.  The split of its primes by
    unit_quota is derived on first read and kept: factor() shares profiles.

    n1 collects the prime powers p^e with p = 1 (mod 3) and n2 those with odd
    p = 2 (mod 3); powers of 2 and 3 land in neither, and the closed forms
    refuse them explicitly (theorem_hypothesis_failure).
    """

    _fields = ("n", "factors")

    def __init__(self, n: int, factors: tuple[tuple[int, int], ...]) -> None:
        self.n, self.factors = n, factors

    def _part(self, quota: int) -> list[tuple[int, int]]:
        return [(p, e) for p, e in self.factors if unit_quota(p) == quota]

    @cached_property
    def n1(self) -> int:
        return math.prod(p**e for p, e in self._part(2))

    @cached_property
    def n2(self) -> int:
        return math.prod(p**e for p, e in self._part(1))

    @cached_property
    def big_omega_n1(self) -> int:
        return sum(e for _, e in self._part(2))

    @cached_property
    def big_omega_n2(self) -> int:
        return sum(e for _, e in self._part(1))

    @cached_property
    def small_omega_n1(self) -> int:
        return len(self._part(2))

    @cached_property
    def small_omega_n2(self) -> int:
        return len(self._part(1))

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def prime_powers(self) -> list[int]:
        return [p**e for p, e in self.factors]

    @cached_property
    def unit_quotas(self) -> tuple[tuple[int, int], ...]:
        """(p, 2) for each prime of n1, then (q, 1) for each of n2, each in
        increasing order: unit_quota's rule at the primes of n, derived once
        (extraction and verify's violating sequences read them every trial)."""
        return tuple((p, quota) for quota in (2, 1) for p, _ in self._part(quota))

    @cached_property
    def extremal_length(self) -> int:
        """D - 1 = 2*Omega(n1) + Omega(n2): each quota once per multiplicity."""
        return 2 * self.big_omega_n1 + self.big_omega_n2

    def divisors(self) -> list[int]:
        ds = [1]
        for p, e in self.factors:
            ds = [d * p**k for d in ds for k in range(e + 1)]
        return sorted(ds)


def theorem_hypothesis_failure(profile: ModulusProfile, exact: bool = True) -> str | None:
    """Name the first failed hypothesis of the exact-value statement, if any;
    with exact=False, only of the cube bounds (the lower-bound witness and
    the prior ceiling), which need n odd and coprime to 3."""
    if profile.n % 2 == 0:
        return "n is odd"
    if profile.n % 3 == 0:
        return "n is coprime to 3"
    if not exact:
        return None
    if not profile.is_squarefree:
        return "n is square-free"
    if profile.n % 7 == 0:
        return "7 does not divide n"
    if profile.n % 13 == 0:
        return "13 does not divide n"
    return None


def require_hypotheses(profile: ModulusProfile, exact: bool = True) -> None:
    """Refuse, naming the failed hypothesis, unless the exact-value statement
    (with exact=False, the cube bounds) applies to n."""
    failure = theorem_hypothesis_failure(profile, exact)
    if failure:
        raise HypothesisError(failure, f"n = {profile.n}")


@lru_cache(maxsize=4096)
def factor(n: int) -> ModulusProfile:
    """Factor n by trial division by 2 and the odd numbers, for 1 <= n <= DEFAULT_BOUND."""
    if not 1 <= n <= DEFAULT_BOUND:
        raise ValueError(f"modulus {n} outside supported range [1, {DEFAULT_BOUND}]")
    factors: list[tuple[int, int]] = []
    rest, p = n, 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return ModulusProfile(n, tuple(factors))


def units(m: int) -> set[int]:
    """The unit residues mod m; the trivial modulus 1 yields {0}."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return {0}
    return {x for x in range(1, m) if math.gcd(x, m) == 1}


@lru_cache(maxsize=64)
def _power_parts(k: int, m: int) -> tuple[tuple[int, frozenset[int]], ...]:
    # (q, every k-th power mod q, non-units included) per maximal prime power
    # q of m, decided once per (k, m) rather than on each of a check's m calls
    return tuple((q, frozenset(pow(x, k, q) for x in range(q)))
                 for q in factor(m).prime_powers())


def is_kth_power_residue(a: int, k: int, m: int) -> bool:
    """Whether x**k = a (mod m) has a solution.

    Decided prime power by prime power and combined: solvable mod m exactly
    when solvable mod every maximal prime-power divisor.  Each component is
    settled by exhaustive enumeration of k-th powers.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    if k < 1:
        raise ValueError("exponent must be positive")
    if not 0 <= a < m:
        raise ValueError(f"residue {a} not in [0, {m - 1}]")
    return all(a % q in values for q, values in _power_parts(k, m))
