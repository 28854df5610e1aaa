"""The `verify` command's check matrix for one modulus.

`wzs.cli` imports this module only when `verify` runs; it prints the
matrix and picks the exit code from the checks the budget left undecided.
"""

from __future__ import annotations

import random
import time

from .extremal import (
    canonicalize,
    classify_structure,
    coprimality_violating_sequence,
    enumerate_extremal,
    orbit_transform,
    reconstruct,
)
from .invariants import (
    Budget,
    davenport_formula,
    e_formula,
    gao_E,
    lower_bound_witness,
    prior_upper_bound,
)
from .modarith import factor, is_kth_power_residue, require_hypotheses
from .weightsets import by_kind
from .zerosum import (
    Sequence,
    crt_zero_check,
    extract_length_m,
    full_zero_sum_exists,
    has_weighted_zero_subseq,
    is_zero_sum_free,
)

_RESIDUE_CHUNK = 4096  # residues power_residue_split checks between deadline reads


def check_matrix(n: int, seed: int, seconds: float) -> tuple[dict, set[str]]:
    """The check matrix for one n, and the names of the checks the budget
    left undecided: a walk stopped before it knew D, an incomplete
    enumeration, or a check the deadline cut before it failed or ended."""
    prof = factor(n)
    require_hypotheses(prof)
    rng = random.Random(seed)
    weights = by_kind("cubes", n)
    checks: dict[str, dict] = {}
    deadline = time.perf_counter() + seconds

    d_form = davenport_formula(prof).value
    # one walk gives D (None if the budget ran out) and the extremal classes;
    # the per-class checks see only the classes found, so a cut walk
    # leaves both undecided
    enum = enumerate_extremal(n, weights, Budget(max_seconds=seconds))
    undecided = set() if enum.complete else {"extremal_classification", "coprimality_minima"}
    if enum.d_value is None:
        undecided |= {"formula_matches_search", "e_value_relation", "prior_bound_ceiling"}
    checks["formula_matches_search"] = {
        "pass": enum.d_value == d_form,
        "formula": d_form,
        "search": enum.d_value,
    }
    # E from the searched D by E = D + n - 1, against the closed form
    e_form = e_formula(prof).value
    checks["e_value_relation"] = {
        "pass": enum.d_value is not None and gao_E(enum.d_value, n) == e_form,
        "e_formula": e_form,
    }
    witness = lower_bound_witness(prof)
    checks["lower_bound_witness_tight"] = {
        "pass": len(witness) == d_form - 1,
        "witness": list(witness.terms),
    }

    def passes(name: str, trials, trial) -> tuple[bool, int]:
        """Whether trial(t) holds for every t of trials, in order, reading
        the deadline before each, and how many trials ran, a failing one
        included; a check the deadline cuts is undecided."""
        for ran, t in enumerate(trials):
            if time.perf_counter() > deadline:
                undecided.add(name)
                return False, ran
            if not trial(t):
                return False, ran + 1
        return True, len(trials)

    quotas = prof.unit_quotas()
    m = sum(quota + 1 for _, quota in quotas)
    length = m + prof.extremal_length

    def extracted(_) -> bool:
        seq = Sequence.make(n, (rng.randrange(n) for _ in range(length)))
        cert = extract_length_m(seq, prof, m)
        return len(cert.picked) == m and cert.verify(seq, weights)

    ok, ran = passes("extraction_certificates", range(25), extracted)
    checks["extraction_certificates"] = {"pass": ok, "trials": ran, "m": m}

    def forced(_) -> bool:
        violator = coprimality_violating_sequence(prof, rng)
        return has_weighted_zero_subseq(violator, weights) is not None

    ok, ran = passes("violation_forces_zero_sum", range(100), forced)
    checks["violation_forces_zero_sum"] = {"pass": ok, "trials": ran}

    # the CRT and invariance checks compare yes/no answers, so they build no
    # certificates; every check that claims a zero-sum above verifies one
    def factored(_) -> bool:
        seq = Sequence.make(n, (rng.randrange(n) for _ in range(rng.randrange(7))))
        return crt_zero_check(seq, prof) == full_zero_sum_exists(seq.terms, weights)

    ok, ran = passes("crt_factorization", range(200), factored)
    checks["crt_factorization"] = {"pass": ok, "trials": ran}

    # every residue, cubes before squares, against the exhaustive pow sets;
    # a trial is a chunk of residues, so the deadline is read once a chunk
    powers: dict[int, set[int]] = {}

    def split(chunk) -> bool:
        k, start = chunk
        if k not in powers:
            powers[k] = {pow(x, k, n) for x in range(n)}
        return all(is_kth_power_residue(a, k, n) == (a in powers[k])
                   for a in range(start, min(start + _RESIDUE_CHUNK, n)))

    chunks = [(k, start) for k in (3, 2) for start in range(0, n, _RESIDUE_CHUNK)]
    checks["power_residue_split"] = {"pass": passes("power_residue_split", chunks, split)[0]}

    def invariant(_) -> bool:
        seq = Sequence.make(n, (rng.randrange(n) for _ in range(1 + rng.randrange(5))))
        moved = orbit_transform(seq, weights, rng)
        if canonicalize(seq, weights).canonical != canonicalize(moved, weights).canonical:
            return False
        return is_zero_sum_free(seq, weights) == is_zero_sum_free(moved, weights)

    ok, ran = passes("equivalence_invariance", range(100), invariant)
    checks["equivalence_invariance"] = {"pass": ok, "trials": ran}

    # the per-class checks, one trial a class, draw nothing from the RNG, and
    # run only on a complete enumeration. classify_structure refuses a class
    # whose length is not the closed form's D - 1, so a walk that disagrees
    # fails this check, not the run
    def classified(c) -> bool:
        return reconstruct(classify_structure(c.canonical, prof)) == c.canonical

    ok = enum.complete and enum.d_value == d_form
    ok = ok and passes("extremal_classification", enum.classes, classified)[0]
    checks["extremal_classification"] = {"pass": ok, "classes": len(enum.classes)}

    def coprime_enough(c) -> bool:
        return all(sum(1 for t in c.canonical.terms if t % p) >= quota for p, quota in quotas)

    ok = enum.complete and passes("coprimality_minima", enum.classes, coprime_enough)[0]
    checks["coprimality_minima"] = {"pass": ok}

    bound = prior_upper_bound(prof)
    checks["prior_bound_ceiling"] = {
        "pass": enum.d_value is not None and enum.d_value <= bound,
        "bound": bound,
    }

    return {
        "n": n,
        "weights": "cubes",
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks.values()),
    }, undecided
