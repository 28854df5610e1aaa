"""Acceptance suite: one test per exit criterion, exact tolerances.

Each test prints a single pass/fail line (visible with `pytest -s`); every
assertion is exact, and the randomized criteria run at their full stated
trial counts under fixed seeds.
"""

import random
import time

from e_oracle import e_direct
from wzs.extremal import (
    canonicalize,
    classify_structure,
    coprimality_violating_sequence,
    enumerate_extremal,
    orbit_transform,
    reconstruct,
)
from wzs.invariants import (
    davenport_formula,
    davenport_search,
    e_formula,
    lower_bound_witness,
    prior_upper_bound,
)
from wzs.modarith import factor, is_kth_power_residue
from wzs.weightsets import cubes, units_weights
from wzs.zerosum import (
    Sequence,
    crt_zero_check,
    extract_length_m,
    full_zero_sum_weights,
    has_weighted_zero_subseq,
)

VERIFICATION_LIST = (5, 11, 17, 19, 23, 29, 31, 55, 85, 95)


def report(number, name, ok, started):
    elapsed = time.perf_counter() - started
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} [{elapsed:.1f}s]")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_formula_search_agreement():
    t0 = time.perf_counter()
    expected = {19: 3, 55: 3, 95: 4}
    ok = True
    for n in VERIFICATION_LIST:
        prof = factor(n)
        formula = davenport_formula(prof).value
        search = davenport_search(n, cubes(n))
        if not search.conclusive or search.value != formula:
            ok = False
        if n in expected and formula != expected[n]:
            ok = False
    report(1, "formula-search agreement", ok, t0)


def test_criterion_2_e_constant():
    t0 = time.perf_counter()
    ok = e_formula(factor(95)).value == 98
    direct = e_direct(5, cubes(5))
    search = davenport_search(5, cubes(5))
    ok = ok and direct.conclusive and direct.value == 6
    ok = ok and direct.value == search.value + 4
    report(2, "E constant", ok, t0)


def test_criterion_3_lower_bound_construction():
    t0 = time.perf_counter()
    ok = True
    for n in VERIFICATION_LIST:
        prof = factor(n)
        witness = lower_bound_witness(prof)
        if len(witness) != davenport_formula(prof).value - 1:
            ok = False
        if has_weighted_zero_subseq(witness, cubes(n)) is not None:
            ok = False
    report(3, "lower-bound construction", ok, t0)


def test_criterion_4_constructive_extraction():
    t0 = time.perf_counter()
    rng = random.Random(0)
    prof = factor(95)
    weights = cubes(95)
    ok = True
    for _ in range(1000):
        seq = Sequence.make(95, (rng.randrange(95) for _ in range(8)))
        cert = extract_length_m(seq, prof, 5)
        if len(cert.picked) != 5 or cert.claimed_sum != 0 or not cert.verify(seq, weights):
            ok = False
            break
    report(4, "constructive extraction", ok, t0)


def test_criterion_5_structure_theorem():
    t0 = time.perf_counter()
    ok = True
    for n in (55, 95):
        prof = factor(n)
        weights = cubes(n)
        enum = enumerate_extremal(n, weights)
        if not enum.complete or not enum.classes:
            ok = False
            continue
        for cls in enum.classes:
            rep = classify_structure(cls.canonical, prof)
            if reconstruct(rep) != cls.canonical:
                ok = False
    report(5, "structure classification", ok, t0)


def test_criterion_6_coprimality_violations():
    t0 = time.perf_counter()
    rng = random.Random(1)
    ok = True
    for n in (55, 95):
        prof = factor(n)
        weights = cubes(n)
        for _ in range(1000):
            seq = coprimality_violating_sequence(prof, rng)
            if has_weighted_zero_subseq(seq, weights) is None:
                ok = False
                break
    report(6, "coprimality violations force zero-sums", ok, t0)


def test_criterion_7_crt_factorization():
    t0 = time.perf_counter()
    rng = random.Random(2)
    prof = factor(95)
    weights = cubes(95)
    ok = True
    for _ in range(1000):
        seq = Sequence.make(95, (rng.randrange(95) for _ in range(rng.randrange(7))))
        direct = full_zero_sum_weights(seq.terms, weights) is not None
        if crt_zero_check(seq, prof) != direct:
            ok = False
            break
    for m in range(1, 1001):
        if not ok:
            break
        for k in (2, 3):
            values = {pow(x, k, m) for x in range(m)}
            for a in range(m):
                if is_kth_power_residue(a, k, m) != (a in values):
                    ok = False
                    break
            if not ok:
                break
    report(7, "CRT factorization and power residues", ok, t0)


def test_criterion_8_equivalence_invariance():
    t0 = time.perf_counter()
    rng = random.Random(3)
    ok = True
    for n in (19, 55, 95):
        weights = cubes(n)
        for _ in range(500):
            seq = Sequence.make(n, (rng.randrange(n) for _ in range(1 + rng.randrange(5))))
            moved = orbit_transform(seq, weights, rng)
            if canonicalize(seq, weights).canonical != canonicalize(moved, weights).canonical:
                ok = False
                break
            if (has_weighted_zero_subseq(seq, weights) is None) != (
                has_weighted_zero_subseq(moved, weights) is None
            ):
                ok = False
                break
    report(8, "equivalence invariance", ok, t0)


def test_criterion_9_prior_bound_consistency():
    t0 = time.perf_counter()
    ok = True
    for n in VERIFICATION_LIST:
        bound = prior_upper_bound(factor(n))
        search = davenport_search(n, cubes(n))
        if not search.conclusive or search.value > bound:
            ok = False
    report(9, "prior-bound consistency", ok, t0)
