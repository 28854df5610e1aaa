"""The package's records and value classes: the cache line a RunRecord
writes, the reprs that ContractError messages quote, equality and hashing by
value, and pickling (a Budget crosses to the `table --jobs` workers)."""

import pickle

import pytest

from wzs import cli
from wzs.cli import RunRecord
from wzs.invariants import Budget, SearchStats
from wzs.modarith import ModulusProfile, factor
from wzs.weightsets import WeightSet, cubes, custom
from wzs.zerosum import Sequence


def test_run_record_json_is_the_cache_line_format(monkeypatch):
    monkeypatch.setattr(cli, "_code_identity", lambda: "0123abcd")
    record = RunRecord("table-row", {"n": 95, "weights": "cubes"}, '{"n": 95}',
                       1700000000.5, "0.1.0", 0.25)
    assert record.to_json() == (
        r'{"command": "table-row", "duration": 0.25, "key": "{\"code\": \"0123abcd\", '
        r'\"command\": \"table-row\", \"params\": {\"n\": 95, \"weights\": \"cubes\"}}", '
        r'"params": {"n": 95, "weights": "cubes"}, "payload": "{\"n\": 95}", '
        r'"timestamp": 1700000000.5, "version": "0.1.0"}'
    )


def test_search_stats_dict_keeps_its_keys_in_order():
    assert SearchStats(7, 0.5).to_dict() == {
        "nodes": 7, "wall_time": 0.5, "exhausted_by": None, "states": 0,
    }
    assert list(SearchStats(7, 0.5, "seconds", 3).to_dict()) == [
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
    assert factor(95) == ModulusProfile(95, ((5, 1), (19, 1)))
    assert hash(factor(95)) == hash(ModulusProfile(95, ((5, 1), (19, 1))))
    assert factor(95) != ModulusProfile(95, ((5, 1),))


def test_weight_set_equality_ignores_members():
    bare = WeightSet(95, (1, 2), "custom", False, frozenset())
    assert not bare.members
    assert bare == custom(95, [1, 2]) and hash(bare) == hash(custom(95, [1, 2]))
    a = cubes(95)
    assert WeightSet(95, a.elements, "cubes", True, frozenset()) == a
    assert WeightSet(95, a.elements, "squares", True, a.members) != a


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
    assert (profile.n1, profile.n2) == (19, 5)  # derived and kept before the copy
    copy = pickle.loads(pickle.dumps(profile))
    assert (copy.n1, copy.n2, copy.extremal_length) == (19, 5, 3)
