"""Independent arithmetic for checking the program's answers.

Nothing here imports wzs.  Factorizations, cube sets, certificate checks and
zero-sum-freeness are recomputed from first principles, so a wrong answer
from the program cannot pass by agreeing with itself.
"""

from __future__ import annotations

import math
from functools import lru_cache


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n by trial division."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=None)
def cube_set(n: int) -> frozenset[int]:
    """{a^3 mod n : gcd(a, n) = 1}."""
    return frozenset(pow(a, 3, n) for a in range(1, n) if math.gcd(a, n) == 1)


def in_hypothesis(n: int) -> bool:
    """Odd, square-free, coprime to 3, 7 and 13: where the closed form holds."""
    fs = factorize(n)
    return (
        n % 2 == 1
        and all(e == 1 for e in fs.values())
        and not any(p in fs for p in (3, 7, 13))
    )


def formula_d(n: int) -> int:
    """2*Omega(n1) + Omega(n2) + 1, n1 (n2) collecting primes 1 (2) mod 3."""
    fs = factorize(n)
    omega1 = sum(e for p, e in fs.items() if p % 3 == 1)
    omega2 = sum(e for p, e in fs.items() if p % 3 == 2 and p != 2)
    return 2 * omega1 + omega2 + 1


def witness(n: int) -> list[int]:
    """A zero-sum-free sequence of length D - 1 for square-free odd n.

    With primes p1 < ... < pk, the atom of p_i (1, plus the least non-cube
    unit when p_i = 1 mod 3) is scaled by n / (p1 * ... * p_i).
    """
    terms = []
    scale = n
    for p in sorted(factorize(n)):
        scale //= p
        atom = [1]
        if p % 3 == 1:
            atom.append(next(x for x in range(2, p) if x not in cube_set(p)))
        terms += [scale * x for x in atom]
    return sorted(terms)


def certificate_error(
    terms, picked, n: int, length: int | None = None
) -> str | None:
    """Why (index, weight) pairs fail to witness a cube-weighted zero-sum."""
    if not picked:
        return "empty certificate"
    idxs = [i for i, _ in picked]
    if len(set(idxs)) != len(idxs):
        return f"repeated index in {picked}"
    if any(not 0 <= i < len(terms) for i in idxs):
        return f"index out of range in {picked}"
    cubes = cube_set(n)
    bad = [a for _, a in picked if a not in cubes]
    if bad:
        return f"weights {bad} are not cubes of units mod {n}"
    total = sum(a * terms[i] for i, a in picked) % n
    if total:
        return f"weighted sum is {total}, not 0 mod {n}"
    if length is not None and len(picked) != length:
        return f"certificate has {len(picked)} terms, wanted {length}"
    return None


def zero_sum_free(terms, n: int) -> bool:
    """Whether no nonempty subsequence has a cube-weighted sum of 0 mod n.

    Grows the set of reachable sums term by term, iterating over the
    reachable residues rather than over the weights.
    """
    full = (1 << n) - 1
    cubes = cube_set(n)
    reach = 0
    for x in terms:
        own = 0
        for a in cubes:
            own |= 1 << (a * x % n)
        new = reach | own
        rest = reach
        while rest:
            low = rest & -rest
            s = low.bit_length() - 1
            new |= ((own << s) | (own >> (n - s))) & full
            rest ^= low
        reach = new
        if reach & 1:
            return False
    return True
