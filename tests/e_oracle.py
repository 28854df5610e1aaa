"""Exhaustive reference for E_A(Z_n), the least length that forces a weighted
zero-sum subsequence of exactly n terms, and the fixed-length DP on full rows.

e_direct scans every multiset (up to the scaling action) at each length from
n upward, one fixed-length DP per multiset, so it is a test oracle for small
n only: the tests compare it with E = D + n - 1.  fixed_length_full_rows is
the fixed-length DP with a row of length + 1 masks per term, the reference
for the band that has_fixed_length_zero_subseq keeps.
"""

from itertools import combinations_with_replacement

from wzs.errors import ContractError
from wzs.weightsets import WeightSet, reduced_alphabet
from wzs.zerosum import (
    Certificate,
    Sequence,
    _check_moduli,
    _pick_weight,
    has_fixed_length_zero_subseq,
)


def fixed_length_full_rows(seq: Sequence, weights: WeightSet, length: int) -> Certificate | None:
    """has_fixed_length_zero_subseq's certificate from full rows: layers[j][c]
    holds the sums of c weighted picks among the first j terms, computed
    where c >= j - (len(seq) - length), and the backtracking prefers the
    skip to the pick."""
    _check_moduli(seq, weights)
    if not 1 <= length <= len(seq):
        return None
    step = weights.step
    spare = len(seq) - length
    layers = [[1] + [0] * length]
    prev = layers[0]
    for j, x in enumerate(seq.terms):
        cur = prev[:]
        for c in range(max(1, j + 1 - spare), min(j + 1, length) + 1):
            if prev[c - 1]:
                cur[c] = step(cur[c], x, prev[c - 1])
        layers.append(cur)
        prev = cur
        if cur[length] & 1:
            break
    else:
        return None
    bit = weights.bit
    picked = []
    t, c, j = 0, length, len(layers) - 1
    while c > 0:
        if layers[j - 1][c] >> bit[t] & 1:
            j -= 1
            continue
        a, t = _pick_weight(weights, bit, layers[j - 1][c - 1], t, seq.terms[j - 1])
        picked.append((j - 1, a))
        c, j = c - 1, j - 1
    cert = Certificate(picked=tuple(sorted(picked)), claimed_sum=0)
    assert cert.verify(seq, weights), cert
    return cert


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
