"""Davenport/E computation tests: search vs formula, witnesses, brackets."""

import os
import random
import re
import zlib

import pytest

import wzs
from e_oracle import e_direct
from wzs.errors import HypothesisError
from wzs.invariants import (
    Budget,
    _witness_terms,
    cube_forms_failure,
    davenport_formula,
    davenport_search,
    e_formula,
    lower_bound_witness,
    prior_upper_bound,
    theorem_hypothesis_failure,
)
from wzs.modarith import factor, require_hypotheses, units
from wzs.weightsets import by_kind, cubes, custom, singleton_one, units_weights
from wzs.zerosum import Sequence, has_weighted_zero_subseq

FORMULA_CASES = {5: 2, 11: 2, 17: 2, 19: 3, 23: 2, 29: 2, 31: 3, 55: 3, 85: 3, 95: 4}


def test_davenport_search_known_values():
    assert davenport_search(19, cubes(19)).value == 3
    assert davenport_search(5, cubes(5)).value == 2
    # classical unweighted constant equals n at tiny n
    assert davenport_search(6, singleton_one(6)).value == 6


def test_search_witness_validates():
    for n in (19, 55, 95):
        res = davenport_search(n, cubes(n))
        assert res.conclusive
        assert len(res.witness) == res.value - 1
        assert has_weighted_zero_subseq(res.witness, cubes(n)) is None


def test_formula_examples():
    assert davenport_formula(factor(95)) == 4
    assert davenport_formula(factor(55)) == 3
    with pytest.raises(HypothesisError, match="7"):
        davenport_formula(factor(91))


def test_formula_matches_search_on_verification_list():
    for n, expected in FORMULA_CASES.items():
        prof = factor(n)
        assert davenport_formula(prof) == expected
        res = davenport_search(n, cubes(n))
        assert res.conclusive and res.value == expected, n


@pytest.mark.parametrize("exact", [True, False])
def test_cube_forms_gate_is_the_kind_and_hypothesis_test(exact):
    # The gate against the predicate written out at each of its call sites
    # before it existed, with the refusal texts those sites printed.
    for n in range(2, 200):
        prof = factor(n)
        sets = [by_kind(kind, n) for kind in ("cubes", "squares", "units", "pm1", "one")]
        for weights in sets + ([custom(n, [1, 2])] if n > 2 else []):
            refusal = cube_forms_failure(weights, exact)
            applies = weights.kind == "cubes" and theorem_hypothesis_failure(prof, exact) is None
            assert (refusal is None) == applies, (n, weights.kind)
            if weights.kind != "cubes":
                assert str(refusal) == (
                    f"hypothesis violated: the weights are the cubes (kind = {weights.kind})"
                )
            elif refusal is not None:
                assert isinstance(refusal, HypothesisError)
                with pytest.raises(HypothesisError) as exc:
                    require_hypotheses(prof, exact)
                assert str(refusal) == str(exc.value), n


def test_only_invariants_compares_the_kind_with_cubes():
    # every other module asks cube_forms_failure where the closed forms apply
    here = os.path.dirname(os.path.abspath(wzs.__file__))
    compare = re.compile(r"""kind\s*[!=]=\s*["']cubes["']|["']cubes["']\s*[!=]=""")
    comparing = set()
    for name in os.listdir(here):
        if name.endswith(".py"):
            with open(os.path.join(here, name), encoding="utf-8") as f:
                if compare.search(f.read()):
                    comparing.add(name)
    assert comparing == {"invariants.py"}


def test_formula_guard_refuses_everything_out_of_scope():
    for n in (10, 14, 15, 21, 91, 13, 26, 25, 121, 9, 49):
        prof = factor(n)
        assert theorem_hypothesis_failure(prof) is not None
        with pytest.raises(HypothesisError):
            davenport_formula(prof)
        with pytest.raises(HypothesisError):
            e_formula(prof)


def test_e_formula_and_gao():
    assert e_formula(factor(95)) == 98
    for n in FORMULA_CASES:
        prof = factor(n)
        assert e_formula(prof) == davenport_formula(prof) + n - 1


def test_e_direct_small_values():
    assert e_direct(5, units_weights(5)) == 6
    assert e_direct(2, singleton_one(2)) == 3
    assert e_direct(5, cubes(5)) == e_direct(5, units_weights(5))


def test_e_direct_reproduces_gao_relation_at_5():
    search = davenport_search(5, units_weights(5))
    assert e_direct(5, units_weights(5)) == search.value + 5 - 1


@pytest.mark.parametrize("kind, top", [("one", 7), ("pm1", 8), ("units", 8), ("squares", 7), ("cubes", 8)])
def test_e_direct_matches_gao_relation(kind, top):
    # Yuan and Zeng (2010): E_A(Z_n) = D_A(Z_n) + n - 1.  The scan at length
    # E checks every multiset; for A = {1} (the squares mod 8 too) that is
    # 170k fixed-length DPs, about 8 s, so those two stop at n = 7.  The
    # units mod 5 and 7 (two orbits) run the DP on orbit masks.
    for n in range(2, top + 1):
        weights = by_kind(kind, n)
        d = davenport_search(n, weights).value
        assert e_direct(n, weights) == d + n - 1, (kind, n)


def test_lower_bound_witness_tight_on_verification_list():
    for n in FORMULA_CASES:
        prof = factor(n)
        w = lower_bound_witness(prof)
        assert len(w) == davenport_formula(prof) - 1
        assert has_weighted_zero_subseq(w, cubes(n)) is None


def test_lower_bound_witness_base_cases():
    assert lower_bound_witness(factor(5)).terms == (1,)
    assert len(lower_bound_witness(factor(55))) == 2
    assert len(lower_bound_witness(factor(95))) == 3


def test_lower_bound_witness_allows_non_theorem_moduli():
    # the construction needs only odd n coprime to 3 (7, 13 and squares fine)
    for n in (7, 13, 25, 49, 91):
        prof = factor(n)
        w = lower_bound_witness(prof)
        assert len(w) == 2 * prof.big_omega_n1 + prof.big_omega_n2
        assert has_weighted_zero_subseq(w, cubes(n)) is None


def assert_cube_bound_refusals(bound):
    with pytest.raises(HypothesisError) as even:
        bound(factor(10))
    assert str(even.value) == "hypothesis violated: n is odd (n = 10)"
    with pytest.raises(HypothesisError) as three:
        bound(factor(9))
    assert str(three.value) == "hypothesis violated: n is coprime to 3 (n = 9)"


def test_lower_bound_witness_terms_are_pinned():
    # The construction at every odd n < 20000 coprime to 3: the count and
    # CRC-32 of the repr of its sorted terms, pinned from the construction
    # that found each non-cube by building the cube set mod p.  The DP
    # re-check that lower_bound_witness adds is run below 2000.
    moduli = [n for n in range(1, 20000, 2) if n % 3]
    log = [Sequence.make(n, _witness_terms(n)).terms for n in moduli]
    assert (len(log), zlib.crc32(repr(log).encode())) == (6667, 0x2611083E)
    for n, terms in zip(moduli, log):
        if n < 2000:
            assert lower_bound_witness(factor(n)).terms == terms, n


def test_lower_bound_witness_refusals():
    assert_cube_bound_refusals(lower_bound_witness)


def test_witness_zero_sum_freeness_is_scaling_invariant():
    rng = random.Random(31)
    for n in (19, 55, 95):
        w = lower_bound_witness(factor(n))
        ws = cubes(n)
        unit_pool = sorted(units(n))
        for _ in range(20):
            c = rng.choice(unit_pool)
            scaled = Sequence.make(n, (c * t % n for t in w.terms))
            assert has_weighted_zero_subseq(scaled, ws) is None


def test_prior_upper_bound_values():
    assert prior_upper_bound(factor(19)) == 4
    assert prior_upper_bound(factor(7)) == 6
    assert prior_upper_bound(factor(5)) == 2
    assert prior_upper_bound(factor(95)) == 5


def test_prior_upper_bound_refusals():
    assert_cube_bound_refusals(prior_upper_bound)


def test_search_respects_prior_ceiling():
    for n in FORMULA_CASES:
        bound = prior_upper_bound(factor(n))
        assert davenport_search(n, cubes(n)).value <= bound


def test_budget_exhaustion_is_explicit():
    res = davenport_search(19, singleton_one(19), budget=Budget(max_nodes=25))
    assert not res.conclusive
    assert res.value is None
    assert res.stats.exhausted_by == "nodes"
    assert res.lower is not None and res.lower >= 1
    assert has_weighted_zero_subseq(res.witness, singleton_one(19)) is None


def test_search_rejects_bad_input():
    with pytest.raises(ValueError):
        davenport_search(7, cubes(5))
    with pytest.raises(ValueError):
        davenport_search(1, singleton_one(2))
