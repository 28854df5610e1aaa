"""Weighted Davenport and E constants: exact search, closed forms, witnesses.

The search enumerates zero-sum-free sequences as multisets, each listed in
the order of an orbit-reduced alphabet (for a subgroup, one representative
per weight-coset, ordered by gcd with n and then by value, first term
anchored to a divisor of n), and kills a branch the moment 0 becomes a
reachable weighted sum.  Everything below a sequence depends only on its
state: the mask of its reachable sums and the index lo of its last symbol.
A table keyed by mask << bits | lo holds depth(mask, lo), the length of the
longest zero-sum-free extension over alphabet[lo:], so each state is
explored once, by one explicit-stack walk; the first-term branches run in
turn and share one table and one reachable-sum kernel per search.
Sequences are read back from the table lazily and in alphabet order, entering
only states with the depth still needed: the first one is the witness, and
the extremal enumeration takes all of them.  Budgets cap nodes (extend steps
taken from states not yet in the table) and wall time; an exhausted budget
yields an explicit inconclusive bracket from the longest path seen, never a
silent wrong answer.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .errors import ContractError
from .modarith import (
    ModulusProfile,
    factor,
    is_cube_mod_prime,
    require_hypotheses,
    theorem_hypothesis_failure,
    unit_quota,
)
from .weightsets import WeightSet, cubes, reduced_alphabet
from .zerosum import Sequence, _reach_rows, _reach_step, has_weighted_zero_subseq


class Budget(NamedTuple):
    """Caps for the exhaustive searches: DP node-steps and wall time."""

    max_nodes: int = 10**8
    max_seconds: float = 60.0


class SearchStats(NamedTuple):
    """Work done by a search: nodes are extend steps from states not yet in
    the table, states the table entries written, and exhausted_by the budget
    that ran out ("nodes" or "seconds"), or None."""

    nodes: int
    wall_time: float
    exhausted_by: str | None = None
    states: int = 0

    def to_dict(self) -> dict:
        return self._asdict()


class InvariantResult(NamedTuple):
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


def davenport_formula(profile: ModulusProfile) -> InvariantResult:
    """Closed form 2*Omega(n1) + Omega(n2) + 1 for cube weights.

    Only valid for odd square-free n coprime to 3, 7 and 13; anything else is
    refused with the failed hypothesis named.
    """
    require_hypotheses(profile)
    value = profile.extremal_length + 1
    return InvariantResult(n=profile.n, weights="cubes", value=value, method="formula")


def e_formula(profile: ModulusProfile) -> InvariantResult:
    """Closed form n + 2*Omega(n1) + Omega(n2) for cube weights."""
    require_hypotheses(profile)
    value = profile.n + profile.extremal_length
    return InvariantResult(n=profile.n, weights="cubes", value=value, method="formula")


def gao_E(d_value: int, n: int) -> int:
    """E from D via the general relation E_A = D_A + n - 1."""
    if d_value < 1 or n < 1:
        raise ValueError("need d_value >= 1 and n >= 1")
    return d_value + n - 1


def prior_upper_bound(profile: ModulusProfile) -> int:
    """The previously known ceiling on D, 3*Omega(n1) + Omega(n2) + 5l + 1,
    where 7^l is split off and excluded from n1.

    Valid for odd n coprime to 3; serves as a sanity ceiling for searches.
    """
    require_hypotheses(profile, exact=False)
    l = next((e for p, e in profile.factors if p == 7), 0)
    return 3 * (profile.big_omega_n1 - l) + profile.big_omega_n2 + 5 * l + 1


def _prime_witness(p: int) -> list[int]:
    # Zero-sum-free atom for one prime: a unit pair with non-cube ratio when
    # the cube subgroup is proper (p of n1), the single unit (1) otherwise.
    if unit_quota(p) == 2:
        return [1, next(x for x in range(2, p) if not is_cube_mod_prime(x, p))]
    return [1]


def _witness_terms(n: int) -> list[int]:
    if n == 1:
        return []
    p = min(p for p, _ in factor(n).factors)
    sub = n // p
    scaled = [sub * x for x in _prime_witness(p)]
    return scaled + _witness_terms(sub)


def lower_bound_witness(profile: ModulusProfile) -> Sequence:
    """Concatenation witness: a zero-sum-free sequence of length
    2*Omega(n1) + Omega(n2) over Z_n for the cube weights, for any odd n
    coprime to 3.

    Built smallest prime first: a one-prime atom (a unit pair with non-cube
    ratio when the cube subgroup mod p is proper, the unit 1 otherwise)
    scaled by n/p, followed by the witness for n/p; the result is
    re-verified by the DP check before being returned.
    """
    require_hypotheses(profile, exact=False)
    n = profile.n
    seq = Sequence.make(n, _witness_terms(n))
    if n >= 2 and has_weighted_zero_subseq(seq, cubes(n)) is not None:
        raise ContractError(f"witness construction for n={n} is not zero-sum-free: {seq}")
    return seq


class Walk(NamedTuple):
    """What _walk leaves: its kernel (step, rows) over the alphabet, its
    table, the first terms whose branches finished, the longest sequence
    those branches hold, the longest path of the branch a budget stopped
    (empty when none did), the nodes used and the budget that ran out."""

    kernel: tuple
    alphabet: list[int]
    table: dict[int, int]
    finished: list[int]
    longest: int
    partial: tuple[int, ...]
    nodes: int
    exhausted_by: str | None


def _walk(
    weights: WeightSet,
    firsts: list[int],
    alphabet: list[int],
    max_nodes: int,
    deadline: float,
    table: dict[int, int],
) -> Walk:
    """Walk the branch of each first term in turn, over one table, one
    kernel and one node budget, until a budget runs out.

    The kernel is that of _reach_rows over the alphabet, or failing that of
    _reach_step.  A child that would make 0 reachable (bit neg[i] of the
    mask) is skipped unbuilt, but counts as a node, as does each first
    term.  `table` maps a state key mask << bits | lo to depth(mask, lo),
    and an entry is written only once its state is fully explored, so a
    table left by a stopped walk serves a later one.  The walk keeps its own
    stack, so only the budget bounds how deep it goes.  `deadline` is a
    perf_counter() reading, read on entering each branch and every 256
    nodes.
    """
    rows = _reach_rows(weights, alphabet)
    step = None if rows else _reach_step(weights, alphabet)
    size = len(alphabet)
    # without rows, neg = 0 never skips: bit 0 of a zero-sum-free mask is clear
    expand, fields, full, neg = rows or (None, None, 0, [0] * size)
    bits = size.bit_length()
    finished: list[int] = []
    longest = nodes = 0
    exhausted_by = None
    best: tuple[int, ...] = ()
    for first in firsts:
        if time.perf_counter() >= deadline:
            exhausted_by = "seconds"
        elif nodes >= max_nodes:
            exhausted_by = "nodes"
        if exhausted_by:
            best = ()
            break
        nodes += 1
        start = alphabet.index(first)
        first_mask = expand(1) >> fields[start] & full if rows else step(0, start, 1)
        root = first_mask << bits | start
        # A frame: a state (mask, lo), the next symbol index to try, the longest
        # extension found so far and the state's row; alphabet[lo] is its term.
        row, best = expand(first_mask | 1) if rows else 0, (first,)
        live = not first_mask & 1 and root not in table
        frames = [[first_mask, start, start, 0, row]] if live else []
        while frames:
            frame = frames[-1]
            mask, lo, i, d, row = frame
            while i < size:
                if nodes >= max_nodes:
                    exhausted_by = "nodes"
                    break
                nodes += 1
                # at about 0.1 ms a node on large residue masks, 256 nodes
                # overshoot the deadline by at most about 25 ms
                if nodes % 256 == 0 and time.perf_counter() > deadline:
                    exhausted_by = "seconds"
                    break
                if mask >> neg[i] & 1:
                    i += 1
                    continue
                new = mask | row >> fields[i] & full if rows else step(mask, i, mask | 1)
                i += 1
                if not new & 1:
                    known = table.get(new << bits | i - 1)
                    if known is None:
                        break
                    if known >= d:
                        d = known + 1
            else:
                table[mask << bits | lo] = d
                frames.pop()
                if frames and d >= frames[-1][3]:
                    frames[-1][3] = d + 1
                continue
            if exhausted_by:
                break
            frame[2], frame[3] = i, d
            frames.append([new, i - 1, i - 1, 0, row | expand(new ^ mask) if rows else 0])
            if len(frames) > len(best):
                # A list, not a generator expression: with one, repeated searches
                # held memory until a full collection ran (+0.5 MB of peak RSS).
                best = tuple([alphabet[f[1]] for f in frames])
        if exhausted_by:
            break
        finished.append(first)
        if not first_mask & 1:
            longest = max(longest, table[root] + 1)
    partial = best if exhausted_by else ()
    return Walk((step, rows), alphabet, table, finished, longest, partial, nodes, exhausted_by)


def _sequences_of_length(walk: Walk, length: int):
    """Every zero-sum-free sequence of `length` terms from a first term whose
    branch the walk finished, in alphabet order, read lazily from its table
    on its kernel: a child state is entered only when its tabled depth
    leaves room for the terms still needed."""
    if length == 0:
        yield ()
        return
    (step, rows), alphabet, table = walk.kernel, walk.alphabet, walk.table
    size = len(alphabet)
    expand, fields, full, neg = rows or (None, None, 0, [0] * size)
    bits = size.bit_length()
    for lo in map(alphabet.index, walk.finished):
        mask = expand(1) >> fields[lo] & full if rows else step(0, lo, 1)
        if mask & 1 or table[mask << bits | lo] < length - 1:
            continue
        if length == 1:
            yield (alphabet[lo],)
            continue
        path = [alphabet[lo]]
        frames = [[mask, lo, expand(mask | 1) if rows else 0]]  # mask, next symbol, row
        found = False
        while frames:
            frame = frames[-1]
            mask, i, row = frame
            left = length - 1 - len(frames)  # depth the next child must have
            while i < size:
                if mask >> neg[i] & 1:
                    i += 1
                    continue
                new = mask | row >> fields[i] & full if rows else step(mask, i, mask | 1)
                i += 1
                if not new & 1 and table[new << bits | i - 1] >= left:
                    break
            else:
                frames.pop()
                path.pop()
                continue
            frame[1] = i
            if left:
                path.append(alphabet[i - 1])
                frames.append([new, i - 1, row | expand(new ^ mask) if rows else 0])
            else:
                found = True
                yield (*path, alphabet[i - 1])
        if not found:
            raise ContractError("table read-back found no state at the tabled depth")


def davenport_search(n: int, weights: WeightSet, budget: Budget | None = None) -> InvariantResult:
    """Exact D_A by longest zero-sum-free sequence search.

    Sequences are explored in alphabet order, and each state (reachable sums,
    last symbol) once, through one table shared by the first-term branches;
    for subgroup weight sets the alphabet is reduced to coset-minimal
    representatives ordered by (gcd with n, value), with the first term
    anchored to a divisor of n (reduced_alphabet).  A known
    lower-bound witness seeds the incumbent when available.
    """
    if weights.modulus != n:
        raise ValueError("weight set modulus does not match n")
    if n < 2:
        raise ValueError("search needs n >= 2")
    budget = budget or Budget()

    # the witness seeds the incumbent, the prior bound caps an inconclusive answer
    cube_bounds = weights.kind == "cubes" and not theorem_hypothesis_failure(factor(n), exact=False)
    incumbent = lower_bound_witness(factor(n)).terms if cube_bounds else ()

    t0 = time.perf_counter()
    firsts, alphabet = reduced_alphabet(weights)
    walk = _walk(weights, firsts, alphabet, budget.max_nodes, t0 + budget.max_seconds, {})
    # the first longest sequence: the incumbent, a finished branch's, or the
    # stopped branch's partial path, in that order
    best = incumbent
    if walk.longest > len(best):
        best = next(_sequences_of_length(walk, walk.longest))
    if len(walk.partial) > len(best):
        best = walk.partial
    stats = SearchStats(
        nodes=walk.nodes,
        wall_time=time.perf_counter() - t0,
        exhausted_by=walk.exhausted_by,
        states=len(walk.table),
    )

    witness = Sequence.make(n, best)
    if has_weighted_zero_subseq(witness, weights) is not None:
        raise ContractError(f"search produced a witness that is not zero-sum-free: {witness}")

    stopped = walk.exhausted_by is not None
    return InvariantResult(
        n=n,
        weights=weights.kind,
        value=None if stopped else len(best) + 1,
        method="search",
        conclusive=not stopped,
        lower=len(best) + 1 if stopped else None,
        upper=prior_upper_bound(factor(n)) if stopped and cube_bounds else None,
        witness=witness,
        stats=stats,
    )
