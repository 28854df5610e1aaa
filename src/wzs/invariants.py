"""Weighted Davenport and E constants: exact search, closed forms, witnesses.

The search enumerates zero-sum-free sequences as sorted multisets over an
orbit-reduced alphabet (one representative per weight-coset, first term
anchored to a divisor of n) and kills a branch the moment 0 becomes a
reachable weighted sum.  Everything below a sequence depends only on its
state: the mask of its reachable sums and the index lo of its last symbol.
A table keyed by mask << bits | lo holds depth(mask, lo), the length of the
longest zero-sum-free extension over alphabet[lo:], so each state is
explored once; the serial first-term branches share one table per search,
and each parallel branch builds its own.  The witness is read back from the
table by walking down from the first term, taking at each level the first
symbol whose state has the depth still needed, which is the first longest
sequence in sorted order.  Budgets cap nodes (extend steps taken from states
not yet in the table) and wall time; an exhausted budget yields an explicit
inconclusive bracket from the longest path seen, never a silent wrong answer.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import asdict, dataclass
from itertools import combinations_with_replacement
from typing import NamedTuple

from .errors import ContractError, HypothesisError
from .modarith import ModulusProfile, factor, require_hypotheses, theorem_hypothesis_failure
from .weightsets import WeightSet, cubes, reduced_alphabet
from .zerosum import (
    Sequence,
    _reach_step,
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
    """Work done by a search: nodes are extend steps from states not yet in
    the table, states the table entries written, and exhausted_by the budget
    that ran out ("nodes", "seconds", or "depth" when a sequence grew as long
    as the interpreter's recursion limit allows), or None."""

    nodes: int
    wall_time: float
    exhausted_by: str | None = None
    states: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


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
            "stats": self.stats.to_dict() if self.stats is not None else None,
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


class _Exhausted(Exception):
    """Unwinds a search whose budget ran out; args[0] names the budget."""


def _frames_left(margin: int = 50) -> int:
    """How many more Python frames a recursive walk may open below its
    caller before the interpreter's recursion limit, less a margin."""
    used, frame = 0, sys._getframe()
    while frame is not None:
        used, frame = used + 1, frame.f_back
    return sys.getrecursionlimit() - used - margin


def _explore_branch(
    weights: WeightSet,
    alphabet: list[int],
    first: int,
    max_nodes: int,
    deadline: float,
    table: dict[int, int] | None = None,
) -> tuple[int, tuple[int, ...], int, int, str | None]:
    """Longest zero-sum-free sorted sequence starting at `first`.

    `table` maps a state key mask << bits | lo to depth(mask, lo); it may be
    shared by branches over the same alphabet, and an entry is written only
    once its state is fully explored.  A finished branch reads its witness
    back from the table; an exhausted one reports the longest path it saw.
    The walk recurses one frame per term, so a path as long as the frames
    left stops it like a budget ("depth").  `deadline` is a perf_counter()
    reading, the same for every branch of one search.  Apart from filling
    `table`, a pure function of its arguments, so branches can run on
    independent workers; returns (best length, best terms, nodes used,
    states added, exhausted budget or None).
    """
    out_of_time = time.perf_counter() >= deadline
    if out_of_time or max_nodes <= 0:
        return 0, (), 0, 0, "seconds" if out_of_time else "nodes"
    table = {} if table is None else table
    states_before = len(table)
    step = _reach_step(weights, alphabet)
    size = len(alphabet)
    bits = size.bit_length()
    room = _frames_left()
    path: list[int] = []
    best: tuple[int, ...] = ()
    nodes = 0

    def walk(mask: int, lo: int, need: int) -> tuple[int, ...]:
        # The first longest extension in sorted order, read from the table:
        # at each level the first symbol whose state has the depth still needed.
        terms = []
        while need:
            for i in range(lo, size):
                new = step(mask, i, mask | 1)
                if not new & 1 and table[new << bits | i] == need - 1:
                    terms.append(alphabet[i])
                    mask, lo, need = new, i, need - 1
                    break
            else:
                raise ContractError("witness walk found no state at the tabled depth")
        return tuple(terms)

    def depth(mask: int, lo: int) -> int:
        # Longest zero-sum-free extension over alphabet[lo:] of a sequence
        # whose nonempty weighted sums are `mask`; `path` holds that sequence
        # so that an exhausted search can report the longest one it saw.
        nonlocal best, nodes
        key = mask << bits | lo
        d = table.get(key)
        if d is not None:
            return d
        if len(path) > len(best):
            best = tuple(path)
            if len(path) >= room:
                raise _Exhausted("depth")
        d = 0
        for i in range(lo, size):
            nodes += 1
            if nodes > max_nodes:
                raise _Exhausted("nodes")
            if nodes % 4096 == 0 and time.perf_counter() > deadline:
                raise _Exhausted("seconds")
            new = step(mask, i, mask | 1)
            if new & 1:
                continue
            path.append(alphabet[i])
            d = max(d, 1 + depth(new, i))
            path.pop()
        table[key] = d
        return d

    exhausted_by = None
    nodes += 1
    start_idx = alphabet.index(first)
    first_mask = step(0, start_idx, 1)
    if not first_mask & 1:
        path.append(first)
        try:
            d = depth(first_mask, start_idx)
        except _Exhausted as exc:
            exhausted_by = exc.args[0]
        else:
            best = (first,) + walk(first_mask, start_idx, d)
    # depth refers to itself; break that cycle so the table it holds is freed
    # now rather than at some later run of the cycle collector.
    del depth
    return len(best), best, nodes, len(table) - states_before, exhausted_by


def davenport_search(
    n: int, weights: WeightSet, budget: Budget | None = None, jobs: int = 1
) -> InvariantResult:
    """Exact D_A by longest zero-sum-free sequence search.

    Sequences are explored in sorted order, and each state (reachable sums,
    last symbol) once, through one table shared by the serial branches; for
    subgroup weight sets the alphabet is reduced to coset-minimal
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
    # One deadline for every branch, serial or on workers: on Linux
    # perf_counter reads CLOCK_MONOTONIC, one clock for all processes.
    deadline = t0 + budget.max_seconds
    results: list[tuple[int, tuple[int, ...], int, int, str | None]] = []
    if jobs <= 1:
        table: dict[int, int] = {}
        remaining = budget.max_nodes
        for first in firsts:
            res = _explore_branch(weights, alphabet, first, remaining, deadline, table)
            results.append(res)
            remaining -= res[2]
            if res[4]:
                break
    else:
        # imported here so that serial runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        share = max(1, budget.max_nodes // max(1, len(firsts)))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_explore_branch, weights, alphabet, first, share, deadline)
                for first in firsts
            ]
            results = [f.result() for f in futures]

    best_len = len(incumbent) if incumbent is not None else 0
    best_terms = incumbent.terms if incumbent is not None else ()
    total_nodes = total_states = 0
    exhausted_by = None
    for blen, bterms, bnodes, bstates, bex in results:
        total_nodes += bnodes
        total_states += bstates
        exhausted_by = exhausted_by or bex
        if blen > best_len:
            best_len, best_terms = blen, bterms
    stats = SearchStats(
        nodes=total_nodes,
        wall_time=time.perf_counter() - t0,
        exhausted_by=exhausted_by,
        states=total_states,
    )

    witness = Sequence.make(n, best_terms)
    if has_weighted_zero_subseq(witness, weights) is not None:
        raise ContractError(f"search produced a witness that is not zero-sum-free: {witness}")

    if exhausted_by:
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
