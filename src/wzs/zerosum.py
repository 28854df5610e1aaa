"""Weighted zero-sum decision core: the DP, its certificates and the
constructive extraction.

Reachable weighted sums are tracked as bitmasks with a snapshot kept per
term for certificate backtracking; the yes/no functions (is_zero_sum_free,
full_zero_sum_exists) fold the same steps to the last mask.  The weight set
alone decides the mask form, one bit per orbit A*x (every reachable set of a
subgroup is a union of orbits) or one per residue, and owns the DP's step
(WeightSet.step, which extends a mask by a term) and the bit of each residue
(WeightSet.bit).  Certificates name term indices and weights and are always
re-verified arithmetically before being returned.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ContractError, HypothesisError, Record, TheoremViolation
from .modarith import ModulusProfile, factor, require_hypotheses
from .weightsets import WeightSet, cubes


class Sequence(Record):
    """A finite multiset over Z_n, stored as a sorted tuple of residues."""

    __slots__ = _fields = ("modulus", "terms")

    def __init__(self, modulus: int, terms: tuple[int, ...]) -> None:
        self.modulus, self.terms = modulus, terms

    @classmethod
    def make(cls, n: int, terms) -> Sequence:
        ts = tuple(sorted(terms))
        if n < 1:
            raise ValueError("modulus must be positive")
        if ts and not (0 <= ts[0] and ts[-1] < n):  # sorted: the ends bound the rest
            raise ValueError(f"terms must lie in [0, {n - 1}]")
        return cls(n, ts)

    def __len__(self) -> int:
        return len(self.terms)


class Certificate(NamedTuple):
    """Chosen (term index, weight) pairs witnessing a weighted sum.

    Indices refer to the sorted term storage of the associated sequence.
    """

    picked: tuple[tuple[int, int], ...]
    claimed_sum: int

    def verify(self, seq: Sequence, weights: WeightSet) -> bool:
        """Whether the moduli agree, no index repeats or leaves [0, len(seq)),
        every weight lies in A and the weighted sum is claimed_sum mod n, in
        one pass over picked."""
        n, terms, members = seq.modulus, seq.terms, weights.members
        if weights.modulus != n:
            return False
        seen = set()
        total = 0
        for i, a in self.picked:
            if i in seen or not 0 <= i < len(terms) or a not in members:
                return False
            seen.add(i)
            total += a * terms[i]
        return total % n == self.claimed_sum % n

    def to_dict(self) -> dict:
        return {
            "picked": [{"index": i, "weight": a} for i, a in self.picked],
            "sum": self.claimed_sum,
        }


def _subset_layers(seq: Sequence, weights: WeightSet) -> list[int]:
    """Mask per prefix of the sums of nonempty weighted subsequences."""
    step = weights.step
    layers = [0]
    for x in seq.terms:
        mask = layers[-1]
        layers.append(step(mask, x, mask | 1))
    return layers


def _check_moduli(seq: Sequence, weights: WeightSet) -> None:
    if seq.modulus != weights.modulus:
        raise ValueError(
            f"sequence modulus {seq.modulus} != weight modulus {weights.modulus}"
        )


def _pick_weight(weights: WeightSet, bit, prev: int, t: int, x: int) -> tuple[int, int]:
    """The first weight a whose residual s = t - a*x lies in the mask prev,
    as (a, s): one backtracking step of every certificate.

    The last pick of a certificate has prev == 1 (residue 0 only, which is
    bit 0 in both mask forms), so it needs a*x = t.  With g = gcd(x, n) and
    m = n/g those a are a0, a0 + m, ... for a0 = (t/g)*(x/g)^-1 mod m, none
    if g does not divide t.  Tried in increasing order they give the scan's
    weight in at most g membership tests, so this solve replaces the scan
    when g < |A|.  Other steps scan A in order."""
    n = weights.modulus
    if prev == 1 and (g := math.gcd(x, n)) < len(weights):
        if t % g == 0:
            m = n // g
            for a in range(t // g * pow(x // g, -1, m) % m, n, m):
                if a in weights.members:
                    return a, 0
        raise ContractError("no weight reproduces a reachable DP state")
    for a in weights.elements:
        s = (t - a * x) % n
        if prev >> bit[s] & 1:
            return a, s
    raise ContractError("no weight reproduces a reachable DP state")


def _backtrack_subset(seq: Sequence, weights: WeightSet, layers: list[int]) -> Certificate:
    # Skip a term whenever the residual sum survives without it (smallest
    # index set), then take the smallest usable weight.  Bit 0 is residue 0
    # (orbit 0 is {0}), so prev | 1 lets a residual of 0 end the subset.
    bit = weights.bit
    terms = seq.terms
    picked: list[tuple[int, int]] = []
    t = 0
    j = len(terms)
    while True:
        if j > 0 and layers[j - 1] >> bit[t] & 1:
            j -= 1
            continue
        if j == 0:
            raise ContractError("certificate backtracking fell off the table")
        a, t = _pick_weight(weights, bit, layers[j - 1] | 1, t, terms[j - 1])
        picked.append((j - 1, a))
        if t == 0:
            break
        j -= 1
    cert = Certificate(picked=tuple(sorted(picked)), claimed_sum=0)
    if not cert.verify(seq, weights):
        raise ContractError(f"backtracked certificate failed verification {cert}")
    return cert


def has_weighted_zero_subseq(seq: Sequence, weights: WeightSet) -> Certificate | None:
    """Certificate for a nonempty weighted zero-sum subsequence, if any."""
    _check_moduli(seq, weights)
    layers = _subset_layers(seq, weights)
    if not layers[-1] & 1:
        return None
    return _backtrack_subset(seq, weights, layers)


def is_zero_sum_free(seq: Sequence, weights: WeightSet) -> bool:
    """Whether no nonempty subsequence has a weighted sum 0: the answer of
    has_weighted_zero_subseq(seq, weights) is None, from the same steps,
    folded to the last mask."""
    _check_moduli(seq, weights)
    step = weights.step
    mask = 0
    for x in seq.terms:
        mask = step(mask, x, mask | 1)
    return not mask & 1


def has_fixed_length_zero_subseq(seq: Sequence, weights: WeightSet,
                                 length: int) -> Certificate | None:
    """Certificate for a weighted zero-sum subsequence of exactly `length` terms.

    A length outside [1, len(seq)] yields None: subsequences are nonempty.
    """
    _check_moduli(seq, weights)
    if not 1 <= length <= len(seq):
        return None
    # layers[j][c] holds the sums of c weighted picks among the first j
    # terms.  A cell with c < length - (len(seq) - j) cannot grow to `length`
    # picks, and backtracking starts from the first row where `length` picks
    # reach 0, so neither those cells nor later rows are computed.
    step = weights.step
    spare = len(seq) - length
    layers: list[list[int]] = [[1] + [0] * length]
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
    terms = seq.terms
    picked: list[tuple[int, int]] = []
    t, c, j = 0, length, len(layers) - 1
    while c > 0:
        if layers[j - 1][c] >> bit[t] & 1:
            j -= 1
            continue
        a, t = _pick_weight(weights, bit, layers[j - 1][c - 1], t, terms[j - 1])
        picked.append((j - 1, a))
        c, j = c - 1, j - 1
    cert = Certificate(picked=tuple(sorted(picked)), claimed_sum=0)
    if not cert.verify(seq, weights):
        raise ContractError(f"fixed-length certificate failed verification {cert}")
    return cert


def _full_values(values, weights: WeightSet) -> list[int]:
    vals = list(values)
    if vals and not (0 <= min(vals) and max(vals) < weights.modulus):
        raise ValueError("values outside residue range")
    return vals


def _full_mask(vals: list[int], weights: WeightSet) -> int:
    # the whole list's sums, one weight per value, as the last mask; no range check
    step = weights.step
    mask = 1
    for x in vals:
        mask = step(0, x, mask)
    return mask


def full_zero_sum_exists(values, weights: WeightSet) -> bool:
    """Whether some weights make the WHOLE value list sum to zero: the answer
    of full_zero_sum_weights(values, weights) is not None, from the same
    steps, folded to the last mask."""
    return bool(_full_mask(_full_values(values, weights), weights) & 1)


def full_zero_sum_weights(values, weights: WeightSet) -> list[int] | None:
    """Weights making the WHOLE value list sum to zero, or None.

    The values are taken in the order given (one weight per entry); this is
    the exhaustive stand-in for the unit-count existence guarantees.
    """
    vals = _full_values(values, weights)
    step = weights.step
    layers = [1]  # layers[j]: the sums of the first j values, one weight each
    for x in vals:
        layers.append(step(0, x, layers[-1]))
    if not layers[-1] & 1:
        return None
    bit = weights.bit
    ws: list[int] = []
    t = 0
    for j in range(len(vals) - 1, -1, -1):
        a, t = _pick_weight(weights, bit, layers[j], t, vals[j])
        ws.append(a)
    if t != 0:
        raise ContractError("full-selection backtracking ended off zero")
    return ws[::-1]


def crt_zero_check(seq: Sequence, profile: ModulusProfile) -> bool:
    """Whether the whole sequence is a cube-weighted zero-sum, componentwise.

    Checks each maximal prime-power projection for a full-selection weighted
    zero-sum; the conjunction (empty at n = 1) equals the check over Z_n.
    """
    if profile.n != seq.modulus:
        raise ValueError("profile does not match sequence modulus")
    for q in profile.prime_powers():
        if not _full_mask([t % q for t in seq.terms], cubes(q)) & 1:
            return False
    return True


def _lift_weight(w: int, sub_n: int, weights: WeightSet) -> int:
    """Smallest member of the weight set reducing to w mod sub_n: the first
    member of w, w + sub_n, ..., at most n/sub_n membership tests."""
    for a in range(w, weights.modulus, sub_n):
        if a in weights.members:
            return a
    raise ContractError(f"no lift of weight {w} from modulus {sub_n}")


def _extract(pairs: list[tuple[int, int]], n: int, m: int) -> list[tuple[int, int]]:
    """Recursive zero-sum extraction; returns (original index, weight) picks.

    A prime with no more coprime terms than its unit quota is divided out;
    past that, every prime sees quota + 1 units and the picks combine by CRT.
    Z_1 takes any m terms, each with weight 0 mod 1."""
    prof = factor(n)
    for p, quota in prof.unit_quotas:
        if sum(1 for _, v in pairs if v % p != 0) <= quota:
            return _drop_and_recurse(pairs, n, m, p)
    return _combine_by_crt(pairs, prof, m)


def _drop_and_recurse(pairs, n: int, m: int, p: int) -> list[tuple[int, int]]:
    sub_n = n // p
    needed = m + factor(sub_n).extremal_length
    keep = [(idx, v) for idx, v in pairs if v % p == 0]
    if len(keep) < needed:
        raise ContractError(f"not enough p-divisible terms to recurse at p={p}")
    child = _extract([(idx, v // p) for idx, v in keep[:needed]], sub_n, m)
    weight_set = cubes(n)
    return [(idx, _lift_weight(w, sub_n, weight_set)) for idx, w in child]


def _combine_by_crt(pairs, prof: ModulusProfile, m: int) -> list[tuple[int, int]]:
    # Every prime sees enough units: pick a unit-rich core (each prime tops it
    # up to quota + 1 units with its first unused ones), pad it with the first
    # unused positions to m terms, solve per prime with full-selection DP,
    # then glue the weights by CRT: with n square-free, e_r = (n/r) *
    # ((n/r)^-1 mod r) is 1 mod r and 0 mod n/r, so the sum over r of e_r
    # times the weight mod r is, mod n, the one weight with those residues.
    # A CRT of cubes mod each prime is a cube mod n, as extract_length_m's
    # final check confirms.
    selected: set[int] = set()
    quotas = prof.unit_quotas
    for p, quota in quotas:
        short = quota + 1 - sum(1 for pos in selected if pairs[pos][1] % p)
        for pos, (_, v) in enumerate(pairs):
            if short <= 0:
                break
            if v % p and pos not in selected:
                selected.add(pos)
                short -= 1
        if short > 0:
            raise ContractError(f"could not gather {quota + 1} units for prime {p}")
    selected.update([pos for pos in range(len(pairs)) if pos not in selected][:m - len(selected)])
    chosen = sorted(selected)

    n, glued = prof.n, [0] * len(chosen)
    for r, _ in quotas:
        ws = full_zero_sum_weights([pairs[pos][1] % r for pos in chosen], cubes(r))
        if ws is None:
            raise TheoremViolation(
                "unit-rich core admitted no weighted zero-sum at a prime",
                {"prime": r, "pairs": pairs, "chosen": chosen},
            )
        e = n // r * pow(n // r, -1, r)
        glued = [g + e * w for g, w in zip(glued, ws)]
    return [(pairs[pos][0], g % n) for pos, g in zip(chosen, glued)]


def extract_length_m(seq: Sequence, profile: ModulusProfile, m: int) -> Certificate:
    """Constructively extract an m-term cube-weighted zero-sum subsequence.

    Requires the exact-value hypotheses (odd square-free n coprime to 3, 7 and
    13), m at least 3*omega(n1) + 2*omega(n2), and sequence length exactly
    m + 2*Omega(n1) + Omega(n2); under these the certificate always exists.
    """
    n = profile.n
    if n != seq.modulus:
        raise ValueError("profile does not match sequence modulus")
    if n < 2:
        raise HypothesisError("n >= 2")
    require_hypotheses(profile)
    m_min = sum(quota + 1 for _, quota in profile.unit_quotas)
    if m < m_min:
        raise HypothesisError(f"m >= 3*omega(n1) + 2*omega(n2) = {m_min}", f"got m = {m}")
    expected_len = m + profile.extremal_length
    if len(seq) != expected_len:
        raise HypothesisError(
            f"sequence length = m + 2*Omega(n1) + Omega(n2) = {expected_len}",
            f"got {len(seq)}",
        )
    picks = _extract(list(enumerate(seq.terms)), n, m)
    cert = Certificate(picked=tuple(sorted(picks)), claimed_sum=0)
    if len(cert.picked) != m or not cert.verify(seq, cubes(n)):
        raise ContractError(f"extraction produced an invalid certificate {cert}")
    return cert
