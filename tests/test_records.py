"""The package's records and value classes: the reprs that ContractError
messages quote, equality and hashing by value, and pickling (a Budget
crosses to the `table --jobs` workers).  The cache line's bytes are pinned
in test_cli."""

import os
import pickle
import re

import pytest

import wzs
from wzs.invariants import Budget, SearchStats
from wzs.modarith import ModulusProfile, factor
from wzs.weightsets import WeightSet, cubes, custom
from wzs.zerosum import Sequence, has_weighted_zero_subseq


def test_search_stats_dict_keeps_its_keys_in_order():
    # the davenport command prints stats._asdict()
    assert SearchStats(7, 0.5)._asdict() == {
        "nodes": 7, "wall_time": 0.5, "exhausted_by": None, "states": 0,
    }
    assert list(SearchStats(7, 0.5, "seconds", 3)._asdict()) == [
        "nodes", "wall_time", "exhausted_by", "states",
    ]


def test_reprs_name_every_compared_field():
    assert repr(Sequence.make(95, (19, 1, 2))) == "Sequence(modulus=95, terms=(1, 2, 19))"
    assert repr(factor(95)) == "ModulusProfile(n=95, factors=((5, 1), (19, 1)))"
    assert repr(custom(95, [2, 1])) == (
        "WeightSet(modulus=95, elements=(1, 2), kind='custom', is_subgroup=False)"
    )
    assert repr(Budget()) == "Budget(max_nodes=100000000, max_seconds=60.0)"


def test_values_compare_and_hash_by_their_fields():
    seq = Sequence.make(95, (19, 1, 2))
    assert seq == Sequence(95, (1, 2, 19)) and hash(seq) == hash(Sequence(95, (1, 2, 19)))
    assert seq != Sequence(96, (1, 2, 19)) and seq != Sequence.make(95, (1, 2))
    assert seq != (95, (1, 2, 19))
    assert len({seq, Sequence.make(95, [2, 19, 1])}) == 1
    assert custom(95, [1, 2]) == custom(95, [2, 1])
    assert hash(custom(95, [1, 2])) == hash(custom(95, [2, 1]))
    assert custom(95, [1, 2]) != custom(95, [1, 3])
    a = cubes(95)
    assert WeightSet(95, a.elements, "cubes", True) == a
    assert hash(WeightSet(95, a.elements, "cubes", True)) == hash(a)
    assert WeightSet(95, a.elements, "squares", True) != a
    assert WeightSet(95, (2, 1), "custom", False).members == {1, 2}  # derived
    assert factor(95) == ModulusProfile(95, ((5, 1), (19, 1)))
    assert hash(factor(95)) == hash(ModulusProfile(95, ((5, 1), (19, 1))))
    assert factor(95) != ModulusProfile(95, ((5, 1),))


@pytest.mark.parametrize("value", [
    Budget(5, 1.5),
    Sequence.make(95, (19, 1, 2)),
    custom(95, [1, 2]),
    factor(95),
], ids=["Budget", "Sequence", "WeightSet", "ModulusProfile"])
def test_values_survive_a_pickle_round_trip(value):
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and hash(copy) == hash(value) and repr(copy) == repr(value)


def test_pickled_values_keep_members_and_derived_fields():
    weights = pickle.loads(pickle.dumps(custom(95, [1, 2])))
    assert 2 in weights.members and 3 not in weights.members and len(weights) == 2
    profile = factor(95)
    assert (profile.n1, profile.n2) == (19, 5)  # derived and kept on the original
    copy = pickle.loads(pickle.dumps(profile))  # rebuilt from (n, factors)
    assert "n1" not in vars(copy)
    assert (copy.n1, copy.n2, copy.extremal_length) == (19, 5, 3)  # derived again


def test_a_weight_set_pickles_without_its_tables_or_step():
    # the DP step is a closure the set keeps: a copy rebuilds its tables
    # and its step on use, with the same answers
    weights = cubes(95)
    seq = Sequence.make(95, (1, 2, 19))
    answer = has_weighted_zero_subseq(seq, weights)
    copy = pickle.loads(pickle.dumps(weights))
    assert copy == weights and copy.members == weights.members
    assert "step" in vars(weights) and "step" not in vars(copy)
    assert has_weighted_zero_subseq(seq, copy) == answer


def test_only_the_record_base_defines_identity():
    # errors.Record defines equality, hashing, repr and pickling once from
    # a class's _fields; no other module writes its own
    src = os.path.dirname(wzs.__file__)
    pattern = re.compile(r"def (__eq__|__hash__|__repr__|__reduce__)\b")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                found = pattern.findall(f.read())
            assert found == ([] if name != "errors.py" else
                             ["__eq__", "__hash__", "__repr__", "__reduce__"]), name
