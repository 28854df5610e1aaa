"""Weighted Davenport and E constants: exact search, closed forms, witnesses.

The search enumerates zero-sum-free sequences as sorted multisets over an
orbit-reduced alphabet (one representative per weight-coset, first term
anchored to a divisor of n) and kills a branch the moment 0 becomes a
reachable weighted sum.  Budgets cap node-steps and wall time; an exhausted
budget yields an explicit inconclusive bracket, never a silent wrong answer.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import NamedTuple

from .errors import ContractError, HypothesisError
from .modarith import ModulusProfile, factor, require_hypotheses, theorem_hypothesis_failure
from .weightsets import WeightSet, cubes, reduced_alphabet
from .zerosum import (
    Sequence,
    has_fixed_length_zero_subseq,
    has_weighted_zero_subseq,
)


@dataclass(frozen=True)
class Budget:
    """Caps for the exhaustive searches: DP node-steps and wall time."""

    max_nodes: int = 10**8
    max_seconds: float = 60.0


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    wall_time: float


@dataclass(frozen=True)
class InvariantResult:
    """Value of D_A or E_A for one modulus, with provenance.

    Inconclusive results (budget ran out) carry value None plus the best
    bracket found; a witness, when present, is a verified zero-sum-free
    sequence one shorter than the (claimed) value.
    """

    n: int
    weights: str
    value: int | None
    method: str
    conclusive: bool = True
    lower: int | None = None
    upper: int | None = None
    witness: Sequence | None = None
    stats: SearchStats | None = None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "weights": self.weights,
            "value": self.value,
            "method": self.method,
            "conclusive": self.conclusive,
            "lower": self.lower,
            "upper": self.upper,
            "witness": list(self.witness.terms) if self.witness is not None else None,
            "stats": (
                {"nodes": self.stats.nodes, "wall_time": self.stats.wall_time}
                if self.stats is not None
                else None
            ),
        }


class PriorBound(NamedTuple):
    d_bound: int
    e_bound: int


def davenport_formula(profile: ModulusProfile) -> InvariantResult:
    """Closed form 2*Omega(n1) + Omega(n2) + 1 for cube weights.

    Only valid for odd square-free n coprime to 3, 7 and 13; anything else is
    refused with the failed hypothesis named.
    """
    require_hypotheses(profile)
    value = 2 * profile.big_omega_n1 + profile.big_omega_n2 + 1
    return InvariantResult(n=profile.n, weights="cubes", value=value, method="formula")


def e_formula(profile: ModulusProfile) -> InvariantResult:
    """Closed form n + 2*Omega(n1) + Omega(n2) for cube weights."""
    require_hypotheses(profile)
    value = profile.n + 2 * profile.big_omega_n1 + profile.big_omega_n2
    return InvariantResult(n=profile.n, weights="cubes", value=value, method="formula")


def gao_E(d_value: int, n: int) -> int:
    """E from D via the general relation E_A = D_A + n - 1."""
    if d_value < 1 or n < 1:
        raise ValueError("need d_value >= 1 and n >= 1")
    return d_value + n - 1


def prior_upper_bound(profile: ModulusProfile) -> PriorBound:
    """Previously known ceilings 3*Omega(n1) + Omega(n2) + 5l + 1 (and the E
    analogue), where 7^l is split off and excluded from n1.

    Valid for odd n coprime to 3; serves as a sanity ceiling for searches.
    """
    if profile.n % 2 == 0:
        raise HypothesisError("n is odd", f"n = {profile.n}")
    if profile.n % 3 == 0:
        raise HypothesisError("n is coprime to 3", f"n = {profile.n}")
    l = next((e for p, e in profile.factors if p == 7), 0)
    bo1 = profile.big_omega_n1 - l
    bo2 = profile.big_omega_n2
    d = 3 * bo1 + bo2 + 5 * l + 1
    return PriorBound(d_bound=d, e_bound=profile.n + d - 1)


def _least_non_cube(p: int) -> int:
    cube_set = cubes(p)
    for x in range(2, p):
        if x not in cube_set:
            return x
    raise ContractError(f"no non-cube unit mod {p}")


def _prime_witness(p: int) -> list[int]:
    # Zero-sum-free atom for one prime: a unit pair with non-cube ratio when
    # the cube subgroup is proper, the single unit (1) otherwise.
    if p % 3 == 1:
        return [1, _least_non_cube(p)]
    return [1]


def _witness_terms(n: int) -> list[int]:
    if n == 1:
        return []
    p = min(p for p, _ in factor(n).factors)
    sub = n // p
    scaled = [sub * x for x in _prime_witness(p)]
    return scaled + _witness_terms(sub)


def lower_bound_witness(profile: ModulusProfile, family: str = "cubes") -> Sequence:
    """Concatenation witness: a zero-sum-free sequence of length
    2*Omega(n1) + Omega(n2) over Z_n for the cube weights.

    Built by scaling a one-prime atom into each factor and lifting the rest;
    the result is re-verified by the DP check before being returned.
    """
    if family != "cubes":
        raise HypothesisError("witness construction is defined for the cubes family")
    n = profile.n
    if n % 2 == 0:
        raise HypothesisError("n is odd", f"n = {profile.n}")
    if n % 3 == 0:
        raise HypothesisError("n is coprime to 3", f"n = {profile.n}")
    seq = Sequence.make(n, _witness_terms(n))
    if n >= 2 and has_weighted_zero_subseq(seq, cubes(n)) is not None:
        raise ContractError(f"witness construction for n={n} is not zero-sum-free: {seq}")
    return seq


def _explore_branch(
    n: int,
    weight_elements: tuple[int, ...],
    alphabet: list[int],
    first: int,
    max_nodes: int,
    max_seconds: float,
) -> tuple[int, tuple[int, ...], int, bool]:
    """Exhaust all zero-sum-free sorted sequences starting at `first`.

    Pure function of its arguments so branches can run on independent
    workers; returns (best length, best terms, nodes used, budget exhausted).
    """
    full = (1 << n) - 1
    shifts = {
        x: sorted({a * x % n for a in weight_elements}) for x in alphabet
    }
    deadline = time.perf_counter() + max_seconds
    start_idx = alphabet.index(first)
    best_len = 0
    best: tuple[int, ...] = ()
    nodes = 0
    exhausted = False

    def extend(mask: int, x: int) -> int:
        m = mask | 1
        new = mask
        for s in shifts[x]:
            new |= ((m << s) | (m >> (n - s))) & full if s else m
        return new

    def rec(terms: tuple[int, ...], mask: int, lo: int) -> None:
        nonlocal best_len, best, nodes, exhausted
        if len(terms) > best_len:
            best_len, best = len(terms), terms
        for i in range(lo, len(alphabet)):
            if exhausted:
                return
            nodes += 1
            if nodes > max_nodes or (nodes % 4096 == 0 and time.perf_counter() > deadline):
                exhausted = True
                return
            x = alphabet[i]
            new = extend(mask, x)
            if new & 1:
                continue
            rec(terms + (x,), new, i)

    if max_seconds <= 0 or max_nodes <= 0:
        return 0, (), 0, True
    nodes += 1
    first_mask = extend(0, first)
    if not first_mask & 1:
        rec((first,), first_mask, start_idx)
    return best_len, best, nodes, exhausted


def davenport_search(
    n: int, weights: WeightSet, budget: Budget | None = None, jobs: int = 1
) -> InvariantResult:
    """Exact D_A by longest zero-sum-free sequence search.

    Sequences are explored in sorted order so every multiset is visited once;
    for subgroup weight sets the alphabet is reduced to coset-minimal
    representatives with the first term anchored to a divisor of n.  A known
    lower-bound witness seeds the incumbent when available.
    """
    if weights.modulus != n:
        raise ValueError("weight set modulus does not match n")
    if n < 2:
        raise ValueError("search needs n >= 2")
    budget = budget or Budget()
    firsts, alphabet = reduced_alphabet(weights)

    incumbent: Sequence | None = None
    if weights.kind == "cubes" and n % 2 == 1 and n % 3 != 0:
        incumbent = lower_bound_witness(factor(n))

    t0 = time.perf_counter()
    results: list[tuple[int, tuple[int, ...], int, bool]] = []
    if jobs <= 1:
        remaining = budget.max_nodes
        for first in firsts:
            left = budget.max_seconds - (time.perf_counter() - t0)
            res = _explore_branch(n, weights.elements, alphabet, first, remaining, left)
            results.append(res)
            remaining -= res[2]
            if res[3]:
                break
    else:
        share = max(1, budget.max_nodes // max(1, len(firsts)))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(
                    _explore_branch, n, weights.elements, alphabet, first, share, budget.max_seconds
                )
                for first in firsts
            ]
            results = [f.result() for f in futures]

    best_len = len(incumbent) if incumbent is not None else 0
    best_terms = incumbent.terms if incumbent is not None else ()
    total_nodes = 0
    exhausted = False
    for blen, bterms, bnodes, bex in results:
        total_nodes += bnodes
        exhausted = exhausted or bex
        if blen > best_len:
            best_len, best_terms = blen, bterms
    stats = SearchStats(nodes=total_nodes, wall_time=time.perf_counter() - t0)

    witness = Sequence.make(n, best_terms)
    if has_weighted_zero_subseq(witness, weights) is not None:
        raise ContractError(f"search produced a witness that is not zero-sum-free: {witness}")

    if exhausted:
        upper = None
        if weights.kind == "cubes":
            try:
                upper = prior_upper_bound(factor(n)).d_bound
            except HypothesisError:
                pass
        return InvariantResult(
            n=n,
            weights=weights.kind,
            value=None,
            method="search",
            conclusive=False,
            lower=best_len + 1,
            upper=upper,
            witness=witness,
            stats=stats,
        )
    return InvariantResult(
        n=n,
        weights=weights.kind,
        value=best_len + 1,
        method="search",
        witness=witness,
        stats=stats,
    )


def _scaling_reduced_multisets(n: int, weights: WeightSet, length: int):
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


def e_direct(
    n: int,
    weights: WeightSet,
    budget: Budget | None = None,
    exhaustive_limit: int = 8,
    rng_seed: int = 0,
) -> InvariantResult:
    """Least length forcing a weighted zero-sum subsequence of exactly n terms.

    Exhaustive multiset enumeration (up to the scaling action) for small n;
    beyond the guard it only hunts counterexamples and reports a bracket.
    """
    if weights.modulus != n:
        raise ValueError("weight set modulus does not match n")
    budget = budget or Budget()
    deadline = time.perf_counter() + budget.max_seconds

    if n <= exhaustive_limit:
        length = n
        while length <= 2 * n:
            all_ok = True
            for ms in _scaling_reduced_multisets(n, weights, length):
                if time.perf_counter() > deadline:
                    return InvariantResult(
                        n=n,
                        weights=weights.kind,
                        value=None,
                        method="direct_E",
                        conclusive=False,
                        lower=length,
                        upper=None,
                    )
                seq = Sequence.make(n, ms)
                if has_fixed_length_zero_subseq(seq, weights, n) is None:
                    all_ok = False
                    break
            if all_ok:
                return InvariantResult(
                    n=n, weights=weights.kind, value=length, method="direct_E"
                )
            length += 1
        raise ContractError(f"exhaustive E scan for n={n} exceeded 2n; enumerator broken")

    # Falsification only: a refuted length L proves E >= L + 1.
    rng = random.Random(rng_seed)
    best_refuted = n - 1
    if weights.kind == "cubes":
        try:
            w = lower_bound_witness(factor(n))
            padded = Sequence.make(n, w.terms + (0,) * (n - 1))
            if has_fixed_length_zero_subseq(padded, weights, n) is None:
                best_refuted = max(best_refuted, len(padded))
        except HypothesisError:
            pass
    while time.perf_counter() < deadline:
        target = best_refuted + 1
        refuted = False
        for _ in range(200):
            if time.perf_counter() > deadline:
                break
            seq = Sequence.make(n, (rng.randrange(n) for _ in range(target)))
            if has_fixed_length_zero_subseq(seq, weights, n) is None:
                refuted = True
                break
        if not refuted:
            break
        best_refuted = target
    return InvariantResult(
        n=n,
        weights=weights.kind,
        value=None,
        method="direct_E",
        conclusive=False,
        lower=best_refuted + 1,
        upper=None,
    )
