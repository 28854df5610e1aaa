"""Exhaustive reference for E_A(Z_n), the least length that forces a weighted
zero-sum subsequence of exactly n terms.

It scans every multiset (up to the scaling action) at each length from n
upward, one fixed-length DP per multiset, so it is a test oracle for small
n only: the tests compare it with E = D + n - 1.
"""

from itertools import combinations_with_replacement

from wzs.errors import ContractError
from wzs.weightsets import WeightSet, reduced_alphabet
from wzs.zerosum import Sequence, has_fixed_length_zero_subseq


def scaling_reduced_multisets(n: int, weights: WeightSet, length: int):
    """One representative per scaling-equivalence class of multisets.

    Zeros are fixed by the action, so a multiset splits into zeros plus a
    nonzero part enumerated over the reduced alphabet.
    """
    if weights.is_subgroup:
        firsts, symbols = reduced_alphabet(weights)
        for z in range(length, -1, -1):
            k = length - z
            if k == 0:
                yield (0,) * z
                continue
            for first in firsts:
                lo = symbols.index(first)
                for rest in combinations_with_replacement(symbols[lo:], k - 1):
                    yield (0,) * z + (first,) + rest
    else:
        yield from combinations_with_replacement(range(n), length)


def e_direct(n: int, weights: WeightSet) -> int:
    """E_A(Z_n) by exhaustive multiset enumeration."""
    if weights.modulus != n:
        raise ValueError("weight set modulus does not match n")
    for length in range(n, 2 * n + 1):
        if all(
            has_fixed_length_zero_subseq(Sequence.make(n, ms), weights, n) is not None
            for ms in scaling_reduced_multisets(n, weights, length)
        ):
            return length
    raise ContractError(f"exhaustive E scan for n={n} exceeded 2n; enumerator broken")
