"""Weighted Davenport and E constants: exact search, closed forms, witnesses.

The search enumerates zero-sum-free sequences as sorted multisets over an
orbit-reduced alphabet (one representative per weight-coset, first term
anchored to a divisor of n) and kills a branch the moment 0 becomes a
reachable weighted sum.  Everything below a sequence depends only on its
state: the mask of its reachable sums and the index lo of its last symbol.
A table keyed by mask << bits | lo holds depth(mask, lo), the length of the
longest zero-sum-free extension over alphabet[lo:], so each state is
explored once, by one explicit-stack walk; the serial first-term branches
share one table per search, and each parallel branch builds its own.
Sequences are read back from the table lazily and in sorted order, entering
only states with the depth still needed: the first one is the witness, and
the extremal enumeration takes all of them.  Budgets cap nodes (extend steps
taken from states not yet in the table) and wall time; an exhausted budget
yields an explicit inconclusive bracket from the longest path seen, never a
silent wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from typing import NamedTuple

from .errors import ContractError
from .modarith import ModulusProfile, factor, require_hypotheses, theorem_hypothesis_failure
from .weightsets import WeightSet, cubes, reduced_alphabet
from .zerosum import Sequence, _reach_rows, _reach_step, has_weighted_zero_subseq


@dataclass(frozen=True)
class Budget:
    """Caps for the exhaustive searches: DP node-steps and wall time."""

    max_nodes: int = 10**8
    max_seconds: float = 60.0


@dataclass(frozen=True)
class SearchStats:
    """Work done by a search: nodes are extend steps from states not yet in
    the table, states the table entries written, and exhausted_by the budget
    that ran out ("nodes" or "seconds"), or None."""

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
    require_hypotheses(profile, exact=False)
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


def _longest_paths(step, rows, alphabet, table, bits, mask, lo, need):
    """Every sorted extension of the state (mask, lo) by `need` terms over
    alphabet[lo:], in sorted order, read lazily from a table that
    _explore_branch filled: a child state is entered only when its tabled
    depth leaves room for the terms still needed.  Yields nothing when the
    state's own depth is short of `need`; the state must be fully explored.
    """
    if table[mask << bits | lo] < need:
        return
    if need == 0:
        yield ()
        return
    expand, fields, full = rows or (None, None, 0)
    size = len(alphabet)
    path: list[int] = []
    frames = [[mask, lo, expand(mask | 1) if rows else 0]]  # mask, next symbol, row
    found = False
    while frames:
        frame = frames[-1]
        mask, i, row = frame
        left = need - len(frames)  # depth the next child must have
        while i < size:
            new = mask | row >> fields[i] & full if rows else step(mask, i, mask | 1)
            i += 1
            if not new & 1 and table[new << bits | i - 1] >= left:
                break
        else:
            frames.pop()
            if path:
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


def _sequences_of_length(weights, alphabet, firsts, table, length):
    """Every sorted zero-sum-free sequence of `length` terms over the
    alphabet with its first term in `firsts`, in sorted order, read back from
    a table that _serial_branches filled for those first terms to the end."""
    if length == 0:
        yield ()
        return
    step, rows = _reach_step(weights, alphabet), _reach_rows(weights, alphabet)
    bits = len(alphabet).bit_length()
    for lo in map(alphabet.index, firsts):
        mask = step(0, lo, 1)
        if not mask & 1:
            for rest in _longest_paths(step, rows, alphabet, table, bits, mask, lo, length - 1):
                yield (alphabet[lo], *rest)


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
    once its state is fully explored.  The walk keeps its own stack, so
    only the budget bounds how deep it goes.  A finished branch reads its
    witness back from the table; an exhausted one reports the longest path
    it saw.  `deadline` is a perf_counter() reading, the same for every
    branch of one search.  Apart from filling `table`, a pure function of
    its arguments, so branches can run on independent workers; returns (best
    length, best terms, nodes used, states added, exhausted budget or None).
    """
    out_of_time = time.perf_counter() >= deadline
    if out_of_time or max_nodes <= 0:
        return 0, (), 0, 0, "seconds" if out_of_time else "nodes"
    table = {} if table is None else table
    states_before = len(table)
    step, rows = _reach_step(weights, alphabet), _reach_rows(weights, alphabet)
    expand, fields, full = rows or (None, None, 0)
    size = len(alphabet)
    bits = size.bit_length()
    nodes = 1
    start = alphabet.index(first)
    first_mask = step(0, start, 1)
    if first_mask & 1:
        return 0, (), nodes, 0, None
    root = first_mask << bits | start
    exhausted_by = None
    # A frame: a state (mask, lo), the next symbol index to try, the longest
    # extension found so far and the state's row; alphabet[lo] is its term.
    row, best = expand(first_mask | 1) if rows else 0, (first,)
    frames = [] if root in table else [[first_mask, start, start, 0, row]]
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
    if exhausted_by is None:
        rest = _longest_paths(step, rows, alphabet, table, bits, first_mask, start, table[root])
        best = (first,) + next(rest)
    return len(best), best, nodes, len(table) - states_before, exhausted_by


@lru_cache(maxsize=None)
def _pool(jobs: int):
    """One process pool per worker count, shared by all searches of a process.
    Workers are spawned: a process that keeps a pool has threads to fork."""
    import multiprocessing  # never loaded by serial runs
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn"))


def _tabled_branch(weights, alphabet, max_nodes, deadline, first):
    """_explore_branch on a table of its own, returned too if it ran out of nodes."""
    table: dict[int, int] = {}
    res = _explore_branch(weights, alphabet, first, max_nodes, deadline, table)
    return res, table if res[4] == "nodes" else {}


def _serial_branches(
    weights: WeightSet,
    alphabet: list[int],
    firsts: list[int],
    max_nodes: int,
    deadline: float,
    table: dict[int, int],
) -> list[tuple[int, tuple[int, ...], int, int, str | None]]:
    """_explore_branch for each first term in turn over one shared table and
    one node budget, stopping at the first branch that exhausts it."""
    results = []
    for first in firsts:
        res = _explore_branch(weights, alphabet, first, max_nodes, deadline, table)
        results.append(res)
        max_nodes -= res[2]
        if res[4]:
            break
    return results


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

    # the witness seeds the incumbent, the prior bound caps an inconclusive answer
    cube_bounds = weights.kind == "cubes" and not theorem_hypothesis_failure(factor(n), exact=False)
    incumbent = lower_bound_witness(factor(n)) if cube_bounds else None

    t0 = time.perf_counter()
    # One deadline for every branch, serial or on workers: on Linux
    # perf_counter reads CLOCK_MONOTONIC, one clock for all processes.
    deadline = t0 + budget.max_seconds
    if jobs <= 1:
        results = _serial_branches(weights, alphabet, firsts, budget.max_nodes, deadline, {})
    else:
        share = budget.max_nodes // max(1, len(firsts))
        pool, branch = _pool(jobs), partial(_tabled_branch, weights, alphabet, share, deadline)
        try:  # map cancels the branches still queued when one fails
            runs = list(pool.map(branch, firsts))
        except BaseException:
            _pool.cache_clear()  # a broken pool would fail every later search
            pool.shutdown(wait=False)
            raise
        results = [res for res, _ in runs]
        # Branches short of their share run again serially, over one table of
        # the states their workers finished, on the nodes the workers left.
        short = [i for i, res in enumerate(results) if res[4] == "nodes"]
        table = {key: d for i in short for key, d in runs[i][1].items()}
        left = budget.max_nodes - sum(res[2] for res in results)
        again = [firsts[i] for i in short]
        redo = _serial_branches(weights, alphabet, again, left, deadline, table)
        for i, new in zip(short, redo):
            # a rerun cut short keeps the longer path; a finished one is exact
            old = results[i]
            keep = new if new[0] >= old[0] else old
            results[i] = (*keep[:2], old[2] + new[2], old[3] + new[3], new[4])

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
        return InvariantResult(
            n=n,
            weights=weights.kind,
            value=None,
            method="search",
            conclusive=False,
            lower=best_len + 1,
            upper=prior_upper_bound(factor(n)).d_bound if cube_bounds else None,
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

