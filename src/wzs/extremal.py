"""Extremal sequences: canonical forms under the orbit action, exhaustive
enumeration of classes (read back from the Davenport search's state table),
and structure classification.  The one extremal construction is
`invariants.lower_bound_witness`.

Two sequences are in the same orbit when one is a uniform unit multiple of a
per-term weight rescaling of the other, up to permutation; zero-sum-freeness
is an orbit invariant, so one canonical representative per class suffices.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .errors import HypothesisError, TheoremViolation
from .modarith import ModulusProfile, factor, is_cube_mod_prime, require_hypotheses
from .weightsets import WeightSet, cubes, reduced_alphabet
from .invariants import Budget, SearchStats, _sequences_of_length, _walk, davenport_formula
from .zerosum import Sequence, has_weighted_zero_subseq


class CanonicalSequence(NamedTuple):
    """The canonical orbit representative of a sequence, with its orbit size.

    orbit_size counts the distinct coset-normalized forms the unit scaling
    produces; canonical is the lexicographically least of them.
    """

    orbit_size: int
    canonical: Sequence


class StructureReport(NamedTuple):
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


class ExtremalClasses(NamedTuple):
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
    (one unit per coset of A suffices, since orbit_id[c*a*x] = orbit_id[c*x];
    ids rise with least members, so the least id tuple gives the least form)."""
    if weights.modulus != seq.modulus:
        raise ValueError("weight set modulus does not match sequence")
    _require_subgroup(weights)
    n = seq.modulus
    oid, least = weights._cosets
    candidates = {
        tuple(sorted(oid[c * x % n] for x in seq.terms)) for c in weights.unit_coset_reps
    }
    return CanonicalSequence(
        orbit_size=len(candidates),
        canonical=Sequence(n, tuple(map(least.__getitem__, min(candidates)))),
    )


def enumerate_extremal(
    n: int, weights: WeightSet, budget: Budget | None = None
) -> ExtremalClasses:
    """All canonical classes of zero-sum-free sequences of length D - 1.

    One memoized search over the orbit-reduced space fills a state table;
    D is 1 + the longest branch of that walk, so it is certified by the
    same walk that yields the classes, and None when the walk ran out of
    budget.  The classes are read back from the table: every sequence of
    length D - 1 in alphabet order along states with enough tabled depth is
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
    walk = _walk(weights, firsts, alphabet, budget.max_nodes, deadline)
    exhausted_by = walk.exhausted_by
    d_value = None if exhausted_by else walk.longest + 1

    found: dict[tuple[int, ...], CanonicalSequence] = {}
    for terms in () if exhausted_by else _sequences_of_length(walk):
        canon = canonicalize(Sequence.make(n, terms), weights)
        found.setdefault(canon.canonical.terms, canon)
        if time.perf_counter() > deadline:
            exhausted_by = "seconds"
            break

    classes = tuple(found[key] for key in sorted(found))
    stats = SearchStats(walk.nodes, time.perf_counter() - t0, exhausted_by, len(walk.table))
    return ExtremalClasses(classes, exhausted_by is None, d_value, stats)


def _unit_pair_zero_sum_free(x: int, y: int, p: int) -> bool:
    """Whether units x, y mod the prime p are cube-weighted zero-sum-free:
    a*x + b*y = 0 needs -y/x = a/b, a cube."""
    return not is_cube_mod_prime(-y * pow(x, -1, p) % p, p)


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
    for p, quota in profile.unit_quotas:
        cnt = len(coprime_terms(p))
        if cnt < quota:
            raise TheoremViolation(
                f"extremal sequence has fewer than {quota} terms coprime to a prime of n",
                {"n": n, "p": p, "terms": list(seq.terms)},
            )
        if cnt == quota:
            qualifying.append(("case1" if quota == 2 else "case2", p))
    if not qualifying:
        raise TheoremViolation(
            "no prime divisor qualifies for decomposition",
            {"n": n, "terms": list(seq.terms)},
        )

    case, p = qualifying[0]
    coprime = coprime_terms(p)
    if case == "case1" and not _unit_pair_zero_sum_free(*coprime, p):
        raise TheoremViolation(
            "coprime pair image admits a weighted zero-sum",
            {"n": n, "p": p, "pair": list(coprime)},
        )

    # The remainder needs no check.  Its length is D(n/p) - 1: D drops by 2
    # at a p of n1 and by 1 at a p of n2, the terms just stripped.  It is
    # zero-sum-free: n is square-free, so its cube weights mod n/p lift by CRT
    # to cubes mod n, and a zero-sum of it would be one of its p-multiples.
    sub_n = n // p
    remainder = Sequence.make(sub_n, (t // p for t in seq.terms if t % p == 0))
    child = _classify(remainder, factor(sub_n))
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
    decompose raises TheoremViolation with a full dump.  Each divided
    remainder inherits extremality over Z_{n/p} from these two checks: its
    length drops with D, and since n is square-free every cube mod n/p lifts
    by CRT to a cube mod n, so a weighted zero-sum of the remainder would be
    one of the sequence's p-multiples.  No level re-checks it.
    """
    require_hypotheses(profile)
    if profile.n != seq.modulus:
        raise ValueError("profile does not match sequence modulus")
    d = davenport_formula(profile)
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
    # u -> reps[u // |A|] * A[u % |A|] maps range(|U|) onto the units U, once
    # each: reps holds one unit per coset of A
    reps, elems = weights.unit_coset_reps, weights.elements
    u = rng.randrange(len(reps) * len(elems))
    c = reps[u // len(elems)] * elems[u % len(elems)]
    terms = [c * elems[rng.randrange(len(elems))] * x % n for x in seq.terms]
    return Sequence.make(n, terms)


def coprimality_violating_sequence(profile: ModulusProfile, rng) -> Sequence:
    """A length-(D-1) sequence violating the coprimality minima on purpose.

    For a prime of n drawn at random, fewer terms than its unit quota are
    left coprime: at most one for a prime of n1, none for a prime of n2.
    Such sequences must always contain a weighted zero-sum subsequence.
    """
    require_hypotheses(profile)
    n = profile.n
    quotas = dict(profile.unit_quotas)
    if not quotas:
        raise HypothesisError("n has an odd prime divisor", f"n = {n}")
    pool = list(quotas)
    prime = pool[rng.randrange(len(pool))]
    # not randrange(quota): randrange(1) draws bits and would shift the stream
    coprime_quota = rng.randrange(2) if quotas.get(prime) == 2 else 0
    terms = []
    for _ in range(coprime_quota):
        t = rng.randrange(n)
        while t % prime == 0:
            t = rng.randrange(n)
        terms.append(t)
    while len(terms) < profile.extremal_length:
        terms.append(prime * rng.randrange(n // prime))
    return Sequence.make(n, terms)
