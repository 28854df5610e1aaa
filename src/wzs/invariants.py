"""Weighted Davenport and E constants: search, closed forms, their gate, witnesses.

The search enumerates zero-sum-free sequences as multisets, each listed in
the order of an orbit-reduced alphabet (for a subgroup, one representative
per weight-coset, ordered by gcd with n and then by value, first term
anchored to a divisor of n), and kills a branch the moment 0 becomes a
reachable weighted sum.  Everything below a sequence depends only on its
state: the mask of its reachable sums and the index lo of its last symbol.
A table keyed by mask << bits | lo holds depth(mask, lo), the length of the
longest zero-sum-free extension over alphabet[lo:], so each state is
explored once, by one explicit-stack walk; the first-term branches run in
turn and share the walk's table and one kernel per search.  The kernel
(_walk_kernel) expands a state by every symbol at once where the weight set
has orbit rows, ORing the rows of its orbits a byte at a time, and steps it
per child by the set's DP step where orbit_rows is None.
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

from .errors import ContractError, HypothesisError
from .modarith import (
    ModulusProfile,
    factor,
    is_cube_mod_prime,
    require_hypotheses,
    theorem_hypothesis_failure,
    unit_quota,
)
from .weightsets import WeightSet, cubes, reduced_alphabet
from .zerosum import Sequence, has_weighted_zero_subseq


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


class InvariantResult(NamedTuple):
    """What davenport_search reports for D_A at one modulus.

    An inconclusive result (budget ran out) carries value None plus the best
    bracket found; the witness is a verified zero-sum-free sequence one
    shorter than the (claimed) value.
    """

    value: int | None
    conclusive: bool
    lower: int | None
    upper: int | None
    witness: Sequence
    stats: SearchStats


def cube_forms_failure(weights: WeightSet, exact: bool = True) -> HypothesisError | None:
    """The refusal of the cube closed forms for these weights, or None where
    they apply: the weights must be the cubes, and n must meet the
    exact-value hypotheses (with exact=False, only those of the cube bounds,
    the lower-bound witness and the prior ceiling)."""
    if weights.kind != "cubes":
        return HypothesisError("the weights are the cubes", f"kind = {weights.kind}")
    failure = theorem_hypothesis_failure(factor(weights.modulus), exact)
    return HypothesisError(failure, f"n = {weights.modulus}") if failure else None


def davenport_formula(profile: ModulusProfile) -> int:
    """Closed form 2*Omega(n1) + Omega(n2) + 1 for cube weights.

    Only valid for odd square-free n coprime to 3, 7 and 13; anything else is
    refused with the failed hypothesis named.
    """
    require_hypotheses(profile)
    return profile.extremal_length + 1


def e_formula(profile: ModulusProfile) -> int:
    """Closed form n + 2*Omega(n1) + Omega(n2) for cube weights: D + n - 1."""
    require_hypotheses(profile)
    return profile.n + profile.extremal_length


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


def _walk_kernel(weights: WeightSet, symbols):
    """(step, expand, fields, full, dead, chunks), the walks' kernel over
    symbols.  Where the set has orbit rows, step is None and the step from
    src by symbols[i] is expand(src) >> fields[i] & full, where expand ORs
    the rows of src's orbits a byte at a time from per-walk tables,
    chunks[c][v] = OR of orbit_rows[8c + b] over the set bits b of v; a
    zero-sum-free mask meeting dead[i], the bit of the orbit of
    -symbols[i], reaches 0 on adding symbols[i].  Where orbit_rows is None,
    step is the set's DP step and the dead bits are 0: the step's zero test
    skips those children."""
    if weights.orbit_rows is None:
        return weights.step, None, None, 0, [0] * len(symbols), None
    rows, oid, n = weights.orbit_rows, weights.orbit_id, weights.modulus
    chunks = []
    for c in range(0, len(rows), 8):
        chunk = [0]
        for row in rows[c : c + 8]:
            chunk += [v | row for v in chunk]
        chunks.append(chunk)

    def expand(src: int) -> int:
        acc = 0
        for chunk in chunks:
            acc |= chunk[src & 255]
            src >>= 8
            if not src:
                break
        return acc

    k = len(rows)
    dead = [1 << oid[-x % n] for x in symbols]
    return None, expand, [k * oid[x] for x in symbols], (1 << k) - 1, dead, chunks


class Walk(NamedTuple):
    """What _walk leaves: its kernel over the alphabet (_walk_kernel's), its
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
) -> Walk:
    """Walk the branch of each first term in turn, over one table, one
    kernel and one node budget, until a budget runs out.

    The kernel is _walk_kernel's over the alphabet.  A child that would make
    0 reachable (one that meets bit dead[i] of the mask on rows, or whose
    step sets bit 0) is skipped, but counts as a node, as does each first
    term.  The walk's table maps a state key mask << bits | lo to
    depth(mask, lo), and an entry is written only once its state is fully
    explored, so a stopped walk's table holds exact depths only; distinct
    first terms give distinct root keys.  The state being explored
    lives in locals; the walk keeps its suspended ancestors on its own
    stack, so only the budget bounds how deep it goes.  `deadline` is a
    perf_counter() reading, read on entering each branch and every 256
    nodes.
    """
    kernel = _walk_kernel(weights, alphabet)
    step, expand, fields, full, dead, chunks = kernel
    size = len(alphabet)
    bits = size.bit_length()
    table: dict[int, int] = {}
    get = table.get
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
        # The explored state (mask, lo), the next symbol index i to try, the
        # longest extension d found so far and the state's row; alphabet[lo]
        # is its term.  An ancestor waits on the stack as the same five,
        # with i past the child it descended to.
        lo = i = alphabet.index(first)
        mask = first_mask = step(0, first, 1) if step else expand(1) >> fields[lo] & full
        root, best = mask << bits | lo, (first,)
        if not mask & 1:
            row, d, stack = 0 if step else expand(mask | 1), 0, []
            while True:
                while i < size:
                    if nodes >= max_nodes:
                        exhausted_by = "nodes"
                        break
                    nodes += 1
                    # at about 0.1 ms a node on large residue masks, 256 nodes
                    # overshoot the deadline by at most about 25 ms
                    if not nodes & 255 and time.perf_counter() > deadline:
                        exhausted_by = "seconds"
                        break
                    if mask & dead[i]:
                        i += 1
                        continue
                    if step:
                        new = step(mask, alphabet[i], mask | 1)
                        if new & 1:
                            i += 1
                            continue
                    else:
                        new = mask | row >> fields[i] & full
                    known = get(new << bits | i)
                    if known is None:
                        break
                    i += 1
                    if known >= d:
                        d = known + 1
                else:
                    table[mask << bits | lo] = d
                    if not stack:
                        break
                    mask, lo, i, parent, row = stack.pop()
                    d = d + 1 if d >= parent else parent
                    continue
                if exhausted_by:
                    break
                stack.append((mask, lo, i + 1, d, row))
                if chunks:  # row |= expand(new ^ mask), inline
                    added = new ^ mask
                    for chunk in chunks:
                        row |= chunk[added & 255]
                        added >>= 8
                        if not added:
                            break
                mask, lo, d = new, i, 0
                if len(stack) >= len(best):
                    # A list, not a generator expression: with one, repeated searches
                    # held memory until a full collection ran (+0.5 MB of peak RSS).
                    best = tuple([alphabet[f[1]] for f in stack] + [alphabet[i]])
            if exhausted_by:
                break
        finished.append(first)
        if not first_mask & 1:
            longest = max(longest, table[root] + 1)
    partial = best if exhausted_by else ()
    return Walk(kernel, alphabet, table, finished, longest, partial, nodes, exhausted_by)


def _sequences_of_length(walk: Walk):
    """Every zero-sum-free sequence of walk.longest terms from a first term
    whose branch the walk finished, in alphabet order, read lazily from its
    table on its kernel: a child state is entered only when its tabled depth
    leaves room for the terms still needed; walk.longest is at least 1."""
    alphabet, table, length = walk.alphabet, walk.table, walk.longest
    step, expand, fields, full, dead, _ = walk.kernel
    size = len(alphabet)
    bits = size.bit_length()
    for lo in map(alphabet.index, walk.finished):
        mask = step(0, alphabet[lo], 1) if step else expand(1) >> fields[lo] & full
        if mask & 1 or table[mask << bits | lo] < length - 1:
            continue
        if length == 1:
            yield (alphabet[lo],)
            continue
        path = [alphabet[lo]]
        frames = [[mask, lo, 0 if step else expand(mask | 1)]]  # mask, next symbol, row
        found = False
        while frames:
            frame = frames[-1]
            mask, i, row = frame
            left = length - 1 - len(frames)  # depth the next child must have
            while i < size:
                if mask & dead[i]:
                    i += 1
                    continue
                new = step(mask, alphabet[i], mask | 1) if step else mask | row >> fields[i] & full
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
                frames.append([new, i - 1, 0 if step else row | expand(new ^ mask)])
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

    # the budget covers the witness, whose DP check builds the cube tables
    t0 = time.perf_counter()
    # the witness seeds the incumbent, the prior bound caps an inconclusive answer
    cube_bounds = cube_forms_failure(weights, exact=False) is None
    incumbent = lower_bound_witness(factor(n)).terms if cube_bounds else ()
    firsts, alphabet = reduced_alphabet(weights)
    walk = _walk(weights, firsts, alphabet, budget.max_nodes, t0 + budget.max_seconds)
    # the first longest sequence: the incumbent, a finished branch's, or the
    # stopped branch's partial path, in that order
    best = incumbent
    if walk.longest > len(best):
        best = next(_sequences_of_length(walk))
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
        value=None if stopped else len(best) + 1,
        conclusive=not stopped,
        lower=len(best) + 1 if stopped else None,
        upper=prior_upper_bound(factor(n)) if stopped and cube_bounds else None,
        witness=witness,
        stats=stats,
    )
