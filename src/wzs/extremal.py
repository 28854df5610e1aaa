"""Extremal sequences: canonical forms under the orbit action, exhaustive
enumeration of classes (read back from the Davenport search's state table),
recursive construction, and structure classification.

Two sequences are in the same orbit when one is a uniform unit multiple of a
per-term weight rescaling of the other, up to permutation; zero-sum-freeness
is an orbit invariant, so one canonical representative per class suffices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import ContractError, HypothesisError, TheoremViolation
from .modarith import ModulusProfile, crt_combine, factor, require_hypotheses
from .weightsets import WeightSet, coset_minima, cubes, reduced_alphabet
from .invariants import (
    Budget,
    SearchStats,
    _least_non_cube,
    _longest_paths,
    _serial_branches,
    davenport_formula,
)
from .zerosum import Sequence, _reach_step, has_weighted_zero_subseq


@dataclass(frozen=True)
class CanonicalSequence:
    """A sequence with its canonical orbit representative.

    orbit_size counts the distinct coset-normalized forms the unit scaling
    produces; canonical is the lexicographically least of them.
    """

    base: Sequence
    orbit_size: int
    canonical: Sequence


@dataclass(frozen=True)
class StructureReport:
    """Recursive decomposition of an extremal sequence.

    case1 strips a prime p of n1 leaving two p-coprime terms whose mod-p image
    pair is itself zero-sum-free; case2 strips a prime of n2 leaving one
    coprime term; base is an undecomposed prime (or trivial) level.  When
    several primes qualify, all are recorded and the first is expanded.
    """

    modulus: int
    case: str
    p: int | None
    coprime_terms: tuple[int, ...]
    remainder: Sequence | None
    child: StructureReport | None
    qualifying: tuple[tuple[str, int], ...]

    def to_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "case": self.case,
            "p": self.p,
            "coprime_terms": list(self.coprime_terms),
            "remainder": list(self.remainder.terms) if self.remainder is not None else None,
            "child": self.child.to_dict() if self.child is not None else None,
            "qualifying": [list(q) for q in self.qualifying],
        }


@dataclass(frozen=True)
class ExtremalClasses:
    classes: tuple[CanonicalSequence, ...]
    complete: bool
    d_value: int | None
    stats: SearchStats


def _require_subgroup(weights: WeightSet) -> None:
    if not weights.is_subgroup:
        raise HypothesisError(
            "weight set is a subgroup of the units",
            f"kind={weights.kind}, n={weights.modulus}",
        )


def canonicalize(seq: Sequence, weights: WeightSet) -> CanonicalSequence:
    """Least orbit element: coset-normalize each term, minimize over scalings
    (one unit per coset of A suffices, since rep[c*a*x] = rep[c*x])."""
    if weights.modulus != seq.modulus:
        raise ValueError("weight set modulus does not match sequence")
    _require_subgroup(weights)
    n = seq.modulus
    rep = coset_minima(weights)
    candidates = {
        tuple(sorted(rep[c * x % n] for x in seq.terms)) for c in weights.unit_coset_reps
    }
    return CanonicalSequence(
        base=seq,
        orbit_size=len(candidates),
        canonical=Sequence(n, min(candidates)),
    )


def equivalent(s: Sequence, t: Sequence, weights: WeightSet) -> bool:
    """Whether two sequences lie in the same orbit."""
    if s.modulus != t.modulus:
        raise ValueError("sequences live over different moduli")
    if len(s) != len(t):
        return False
    return canonicalize(s, weights).canonical == canonicalize(t, weights).canonical


def enumerate_extremal(
    n: int, weights: WeightSet, budget: Budget | None = None
) -> ExtremalClasses:
    """All canonical classes of zero-sum-free sequences of length D - 1.

    One memoized search over the orbit-reduced space fills a state table;
    D is 1 + the longest branch of that walk, so it is certified by the
    same walk that yields the classes, and None when the walk ran out of
    budget.  The classes are read back from the table: every sorted
    sequence of length D - 1 along states with enough tabled depth is
    canonicalized and deduped by canonical form.  A stop inside the search
    returns no classes; a stop during the read-back returns the classes
    found so far.
    """
    if weights.modulus != n:
        raise ValueError("weight set modulus does not match n")
    _require_subgroup(weights)
    budget = budget or Budget()

    t0 = time.perf_counter()
    deadline = t0 + budget.max_seconds
    firsts, alphabet = reduced_alphabet(weights)
    table: dict[int, int] = {}
    results = _serial_branches(weights, alphabet, firsts, budget.max_nodes, deadline, table)
    exhausted_by = next((res[4] for res in results if res[4]), None)
    longest = max((res[0] for res in results), default=0)
    d_value = None if exhausted_by else longest + 1

    step = _reach_step(weights, alphabet)
    bits = len(alphabet).bit_length()
    roots = [(lo, step(0, lo, 1)) for lo in map(alphabet.index, firsts)]
    # Every zero-sum-free sorted sequence of length D - 1, in sorted order.
    leaves = [()] if longest == 0 else (
        (alphabet[lo],) + rest
        for lo, mask in roots
        if not mask & 1
        for rest in _longest_paths(step, alphabet, table, bits, mask, lo, longest - 1)
    )
    found: dict[tuple[int, ...], CanonicalSequence] = {}
    for terms in () if exhausted_by else leaves:
        canon = canonicalize(Sequence(n, terms), weights)
        found.setdefault(canon.canonical.terms, canon)
        if time.perf_counter() > deadline:
            exhausted_by = "seconds"
            break

    classes = tuple(found[key] for key in sorted(found))
    stats = SearchStats(sum(res[2] for res in results), time.perf_counter() - t0,
                        exhausted_by, len(table))
    return ExtremalClasses(classes, exhausted_by is None, d_value, stats)


def _construct_terms(n: int) -> list[int]:
    if n == 1:
        return []
    p = max(q for q, _ in factor(n).factors)
    sub = n // p
    rest = [p * x for x in _construct_terms(sub)]
    if p % 3 == 1:
        x_star = crt_combine([(1, p), (0, sub)])
        x_dstar = crt_combine([(_least_non_cube(p), p), (0, sub)])
        return [x_star, x_dstar] + rest
    x_star = crt_combine([(1, p), (0, sub)])
    return [x_star] + rest


def construct_extremal(profile: ModulusProfile) -> Sequence:
    """Build an extremal sequence recursively, largest prime first.

    Strips the largest prime p: a zero-sum-free unit pair (images 1 and the
    least non-cube mod p, both 0 mod n/p) when the cube subgroup mod p is
    proper, a single unit lift otherwise; the recursive tail is multiplied by
    p.  The output is re-verified before being returned.
    """
    require_hypotheses(profile)
    n = profile.n
    seq = Sequence.make(n, _construct_terms(n))
    expected = 2 * profile.big_omega_n1 + profile.big_omega_n2
    if len(seq) != expected:
        raise ContractError(f"construction length {len(seq)} != {expected} for n={n}")
    if n >= 2 and has_weighted_zero_subseq(seq, cubes(n)) is not None:
        raise ContractError(f"constructed sequence is not zero-sum-free: {seq}")
    return seq


def _classify(seq: Sequence, profile: ModulusProfile) -> StructureReport:
    n = profile.n
    if len(profile.factors) <= 1:
        return StructureReport(
            modulus=n,
            case="base",
            p=n if len(profile.factors) == 1 else None,
            coprime_terms=seq.terms,
            remainder=None,
            child=None,
            qualifying=(),
        )

    def coprime_terms(q: int) -> tuple[int, ...]:
        return tuple(t for t in seq.terms if t % q != 0)

    qualifying: list[tuple[str, int]] = []
    for p in profile.primes_n1():
        cnt = len(coprime_terms(p))
        if cnt < 2:
            raise TheoremViolation(
                "extremal sequence has fewer than two terms coprime to a prime of n1",
                {"n": n, "p": p, "terms": list(seq.terms)},
            )
        if cnt == 2:
            qualifying.append(("case1", p))
    for q in profile.primes_n2():
        cnt = len(coprime_terms(q))
        if cnt < 1:
            raise TheoremViolation(
                "extremal sequence has no term coprime to a prime of n2",
                {"n": n, "q": q, "terms": list(seq.terms)},
            )
        if cnt == 1:
            qualifying.append(("case2", q))
    if not qualifying:
        raise TheoremViolation(
            "no prime divisor qualifies for decomposition",
            {"n": n, "terms": list(seq.terms)},
        )

    case, p = qualifying[0]
    coprime = coprime_terms(p)
    divided = tuple(t // p for t in seq.terms if t % p == 0)
    sub_n = n // p
    sub_profile = factor(sub_n)
    remainder = Sequence.make(sub_n, divided)

    if case == "case1":
        image = Sequence.make(p, (t % p for t in coprime))
        if has_weighted_zero_subseq(image, cubes(p)) is not None:
            raise TheoremViolation(
                "coprime pair image admits a weighted zero-sum",
                {"n": n, "p": p, "pair": list(coprime)},
            )

    sub_d = davenport_formula(sub_profile).value
    if len(remainder) != sub_d - 1:
        raise TheoremViolation(
            "divided remainder does not have extremal length",
            {"n": n, "p": p, "remainder": list(remainder.terms), "expected": sub_d - 1},
        )
    if has_weighted_zero_subseq(remainder, cubes(sub_n)) is not None:
        raise TheoremViolation(
            "divided remainder is not zero-sum-free",
            {"n": n, "p": p, "remainder": list(remainder.terms)},
        )
    child = _classify(remainder, sub_profile)
    return StructureReport(
        modulus=n,
        case=case,
        p=p,
        coprime_terms=coprime,
        remainder=remainder,
        child=child,
        qualifying=tuple(qualifying),
    )


def classify_structure(seq: Sequence, profile: ModulusProfile) -> StructureReport:
    """Decompose a verified extremal sequence per the structure result.

    Extremality is enforced here (length D - 1 and zero-sum-free by the DP
    check), never trusted from the caller; a sequence that then fails to
    decompose raises TheoremViolation with a full dump.
    """
    require_hypotheses(profile)
    if profile.n != seq.modulus:
        raise ValueError("profile does not match sequence modulus")
    d = davenport_formula(profile).value
    if len(seq) != d - 1:
        raise HypothesisError(
            "sequence is extremal", f"length {len(seq)} != D - 1 = {d - 1}"
        )
    if profile.n >= 2 and has_weighted_zero_subseq(seq, cubes(profile.n)) is not None:
        raise HypothesisError(
            "sequence is extremal", "it has a weighted zero-sum subsequence"
        )
    return _classify(seq, profile)


def reconstruct(report: StructureReport) -> Sequence:
    """Rebuild the sequence a StructureReport describes."""
    if report.case == "base":
        return Sequence.make(report.modulus, report.coprime_terms)
    child_seq = reconstruct(report.child)
    terms = list(report.coprime_terms) + [report.p * y for y in child_seq.terms]
    return Sequence.make(report.modulus, terms)


def orbit_transform(seq: Sequence, weights: WeightSet, rng) -> Sequence:
    """A random element of the orbit: uniform unit scaling times per-term
    weights (the permutation is absorbed by sorted storage)."""
    _require_subgroup(weights)
    n = seq.modulus
    unit_pool = weights.unit_group
    c = unit_pool[rng.randrange(len(unit_pool))]
    elems = weights.elements
    terms = [c * elems[rng.randrange(len(elems))] * x % n for x in seq.terms]
    return Sequence.make(n, terms)


def coprimality_violating_sequence(
    profile: ModulusProfile, rng, prime: int | None = None
) -> Sequence:
    """A length-(D-1) sequence violating the coprimality minima on purpose.

    For a chosen prime of n1 at most one term is left coprime; for a prime of
    n2 none is.  Such sequences must always contain a weighted zero-sum
    subsequence.
    """
    require_hypotheses(profile)
    n = profile.n
    length = 2 * profile.big_omega_n1 + profile.big_omega_n2
    pool_n1, pool_n2 = profile.primes_n1(), profile.primes_n2()
    if prime is None:
        pool = pool_n1 + pool_n2
        if not pool:
            raise HypothesisError("n has an odd prime divisor", f"n = {n}")
        prime = pool[rng.randrange(len(pool))]
    coprime_quota = rng.randrange(2) if prime in pool_n1 else 0
    terms = []
    for _ in range(coprime_quota):
        t = rng.randrange(n)
        while t % prime == 0:
            t = rng.randrange(n)
        terms.append(t)
    while len(terms) < length:
        terms.append(prime * rng.randrange(n // prime))
    return Sequence.make(n, terms)
