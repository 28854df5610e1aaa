"""CLI dispatch, JSON/CSV shapes, caching, exit codes."""

import itertools
import json
import os
import subprocess
import sys
import time
import zlib

import pytest

import wzs
from wzs import cli, commands, extremal, invariants, verify
from wzs.cli import (
    EXIT_CONTRACT,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_USAGE,
    Cache,
    main,
)
from wzs.extremal import ExtremalClasses

SRC = os.path.dirname(os.path.dirname(os.path.abspath(wzs.__file__)))


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    monkeypatch.setenv("WZS_CACHE", str(path))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weights_command(capsys):
    code, out, _ = run(capsys, "weights", "--n", "7", "--kind", "pm1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {"n": 7, "kind": "pm_one", "elements": [1, 6], "is_subgroup": True}


def test_weights_custom(capsys):
    code, out, _ = run(capsys, "weights", "--n", "9", "--kind", "custom", "--elems", "2,4")
    assert code == EXIT_OK
    assert json.loads(out)["elements"] == [2, 4]


@pytest.mark.parametrize("argv", [
    ("check", "--weights", "cubes", "--seq", "5,9"),
    ("weights", "--kind", "cubes"),
    ("davenport", "--weights", "cubes", "--method", "search"),
    ("extremal", "construct", "--weights", "cubes"),
])
def test_elems_with_a_kind_other_than_custom_is_a_usage_error(capsys, isolated_cache, argv):
    code, out, err = run(capsys, *argv, "--n", "95", "--elems", "1,7")
    assert (code, out) == (EXIT_USAGE, "") and "custom" in err
    assert not isolated_cache.exists()


def test_check_zero_term(capsys):
    code, out, _ = run(capsys, "check", "--n", "5", "--weights", "cubes", "--seq", "0")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["zero_sum_subseq"] is True
    assert payload["certificate"]["picked"] == [{"index": 0, "weight": 1}]


def test_check_no_zero_sum(capsys):
    code, out, _ = run(capsys, "check", "--n", "19", "--weights", "cubes", "--seq", "1,2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["zero_sum_subseq"] is False and payload["certificate"] is None


def test_davenport_both_agrees(capsys):
    code, out, _ = run(capsys, "davenport", "--n", "95", "--weights", "cubes",
                       "--method", "both")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["formula"] == 4
    assert payload["search"] == 4
    assert payload["agrees"] is True
    assert payload["witness"] == [1, 2, 19]
    assert payload["stats"]["exhausted_by"] is None
    assert payload["stats"]["states"] > 0


def test_davenport_formula_refusal_exit_code(capsys):
    code, out, _ = run(capsys, "davenport", "--n", "91", "--weights", "cubes",
                       "--method", "formula")
    assert code == EXIT_REFUSED
    assert "7" in json.loads(out)["reason"]
    # the closed form is a statement about cube weights only
    code, out, _ = run(capsys, "davenport", "--n", "95", "--weights", "squares",
                       "--method", "formula")
    assert code == EXIT_REFUSED
    assert "cubes" in json.loads(out)["reason"]


def test_davenport_both_gives_no_formula_for_other_weights(capsys):
    code, out, _ = run(capsys, "davenport", "--n", "95", "--weights", "units",
                       "--method", "both")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["search"] == 3
    assert payload["formula"] is None and payload["E_formula"] is None
    assert payload["agrees"] is None and "cubes" in payload["formula_refusal"]


def test_davenport_inconclusive_exit_code(capsys):
    code, out, _ = run(capsys, "davenport", "--n", "29", "--weights", "one",
                       "--method", "search", "--budget-ms", "1")
    assert code == EXIT_INCONCLUSIVE
    payload = json.loads(out)
    assert payload["conclusive"] is False and payload["search"] is None
    assert payload["lower"] >= 1
    assert payload["stats"]["exhausted_by"] == "seconds"


def test_davenport_too_deep_for_recursion_is_inconclusive(capsys):
    # D_{1}(Z_1100) = 1100: the all-ones path is deeper than Python's
    # recursion limit. The search walks it to its end at once, then runs
    # out of time among the shorter branches: inconclusive, not a crash.
    code, out, _ = run(capsys, "davenport", "--n", "1100", "--weights", "one",
                       "--method", "search", "--budget-ms", "2000")
    assert code == EXIT_INCONCLUSIVE
    payload = json.loads(out)
    assert payload["conclusive"] is False and payload["search"] is None
    assert payload["stats"]["exhausted_by"] == "seconds"
    assert payload["lower"] == 1100
    assert payload["witness"] == [1] * 1099


def test_davenport_cache_hit_is_byte_identical(capsys, isolated_cache):
    code1, out1, _ = run(capsys, "davenport", "--n", "55", "--weights", "cubes",
                         "--method", "both")
    assert code1 == EXIT_OK and isolated_cache.exists()
    code2, out2, _ = run(capsys, "davenport", "--n", "55", "--weights", "cubes",
                         "--method", "both")
    assert code2 == EXIT_OK
    assert out1 == out2


def test_cache_corruption_is_skipped_with_warning(capsys, isolated_cache):
    isolated_cache.write_text("this is not json\n")
    code, out, err = run(capsys, "davenport", "--n", "55", "--weights", "cubes",
                         "--method", "both")
    assert code == EXIT_OK
    assert json.loads(out)["search"] == 3
    assert "corrupt" in err


def test_corrupt_line_is_warned_about_once_per_process(capsys, isolated_cache):
    isolated_cache.write_text("this is not json\n[1, 2]\n")
    code, _, err = run(capsys, "table", "--from", "5", "--to", "9")
    assert code == EXIT_OK
    assert err.count("corrupt cache line 1") == 1
    assert err.count("corrupt cache line 2") == 1


def _store(cache: Cache, payload: str, params=None) -> None:
    cache.store("davenport", params or {"n": 95}, payload, time.perf_counter())


def test_cache_line_bytes_are_pinned(isolated_cache, monkeypatch):
    # one run's cache line, end to end: seven keys, sort_keys, the duration
    # from the first perf_counter() reading to the store
    monkeypatch.setattr(cli, "_code_identity", lambda: "0123abcd")
    readings = iter([100.0])
    monkeypatch.setattr(time, "perf_counter", lambda: next(readings, 100.375))
    monkeypatch.setattr(time, "time", lambda: 1700000000.5)
    assert main(["davenport", "--n", "95", "--method", "formula"]) == EXIT_OK
    assert isolated_cache.read_bytes() == (
        rb'{"command": "davenport", "duration": 0.375, "key": "{\"code\": \"0123abcd\", '
        rb'\"command\": \"davenport\", \"params\": {\"elems\": null, \"method\": '
        rb'\"formula\", \"n\": 95, \"weights\": \"cubes\"}}", "params": {"elems": null, '
        rb'"method": "formula", "n": 95, "weights": "cubes"}, "payload": "{\"E_formula\": 98, '
        rb'\"formula\": 4, \"n\": 95, \"weights\": \"cubes\"}", '
        rb'"timestamp": 1700000000.5, "version": "0.1.0"}' b"\n"
    )


def test_cache_opens_its_file_once(isolated_cache, monkeypatch):
    _store(Cache(), "stored")
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    cache = Cache()
    for n in range(50):
        assert cache.lookup("davenport", {"n": n}) is None
    _store(cache, "later", {"n": 7})
    assert cache.lookup("davenport", {"n": 7}) == "later"
    assert cache.lookup("davenport", {"n": 95}) == "stored"
    assert opened == [str(isolated_cache)]


def test_first_record_for_a_key_wins(isolated_cache):
    _store(Cache(), "first")
    _store(Cache(), "second")
    assert len(isolated_cache.read_text().splitlines()) == 2
    assert Cache().lookup("davenport", {"n": 95}) == "first"
    cache = Cache()
    _store(cache, "third")
    assert cache.lookup("davenport", {"n": 95}) == "first"


def test_cache_misses_once_the_code_identity_changes(isolated_cache, monkeypatch):
    _store(Cache(), "old code")
    assert Cache().lookup("davenport", {"n": 95}) == "old code"
    key = json.loads(cli.cache_key("davenport", {"n": 95}))
    assert key["code"] == cli._code_identity() and "version" not in key
    monkeypatch.setattr(cli, "_code_identity", lambda: "changed")
    assert Cache().lookup("davenport", {"n": 95}) is None


def _python(code: str, *args: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_concurrent_large_appends_stay_whole_lines(isolated_cache):
    # each writer's Cache() opens isolated_cache, through WZS_CACHE
    writer = (
        "import sys\n"
        "from wzs.cli import Cache\n"
        "cache = Cache()\n"
        "for i in range(40):\n"
        "    payload = sys.argv[1] * (70_000 + i)\n"
        "    cache.store('extremal-enumerate', {'i': i, 'by': sys.argv[1]}, payload, 0.0)\n"
    )
    procs = [_python(writer, tag) for tag in "ab"]
    for proc in procs:
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
    lines = isolated_cache.read_text().splitlines()
    assert len(lines) == 80
    for line in lines:
        rec = json.loads(line)
        tag, i = rec["params"]["by"], rec["params"]["i"]
        assert rec["payload"] == tag * (70_000 + i)


def test_cli_import_does_not_load_multiprocessing():
    proc = _python("import wzs.cli, sys; print('multiprocessing' in sys.modules)")
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out.strip() == "False"


def test_cache_stats_and_clear(capsys, isolated_cache):
    run(capsys, "davenport", "--n", "55", "--weights", "cubes", "--method", "both")
    code, out, _ = run(capsys, "cache")
    assert code == EXIT_OK
    assert json.loads(out)["entries"] == 1
    code, out, _ = run(capsys, "cache", "clear")
    assert code == EXIT_OK and json.loads(out)["cleared"] is True
    assert not isolated_cache.exists()


def test_table_csv_shape(capsys):
    code, out, _ = run(capsys, "table", "--weights", "cubes", "--from", "5",
                       "--to", "12", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "n,n1,n2,Omega_n1,Omega_n2,D_formula,D_search,E_formula,agrees,witness"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert rows["5"][5] == "2" and rows["5"][8] == "true"
    # out-of-hypothesis rows leave the formula columns empty
    assert rows["6"][5] == "" and rows["6"][7] == "" and rows["6"][8] == ""
    assert rows["6"][6] != ""


def test_table_reruns_identically(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WZS_CACHE", str(tmp_path / "a.jsonl"))
    _, out1, _ = run(capsys, "table", "--weights", "cubes", "--from", "5", "--to", "9")
    monkeypatch.setenv("WZS_CACHE", str(tmp_path / "b.jsonl"))
    _, out2, _ = run(capsys, "table", "--weights", "cubes", "--from", "5", "--to", "9")
    assert out1 == out2  # rows are pure functions of n and weight kind


def _cached_rows(path):
    """(n, payload) of each cached table row, in file order."""
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    return [(rec["params"]["n"], rec["payload"]) for rec in recs]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_on_two_jobs_is_byte_identical_to_one(capsys, tmp_path, monkeypatch, fmt):
    argv = ("table", "--weights", "cubes", "--from", "5", "--to", "30", "--format", fmt)
    monkeypatch.setenv("WZS_CACHE", str(tmp_path / "two.jsonl"))
    code2, parallel, _ = run(capsys, *argv, "--jobs", "2")
    monkeypatch.setenv("WZS_CACHE", str(tmp_path / "one.jsonl"))
    code1, serial, _ = run(capsys, *argv, "--jobs", "1")
    assert code1 == code2 == EXIT_OK
    assert parallel == serial
    cached = _cached_rows(tmp_path / "two.jsonl")
    assert [n for n, _ in cached] == list(range(5, 31))  # stored in row order
    assert cached == _cached_rows(tmp_path / "one.jsonl")


def test_table_on_two_jobs_with_no_budget_prints_every_row_and_caches_none(capsys, isolated_cache):
    code, out, _ = run(capsys, "table", "--from", "5", "--to", "12", "--format", "json",
                       "--jobs", "2", "--budget-ms", "0")
    assert code == EXIT_INCONCLUSIVE
    rows = json.loads(out)
    assert [row["n"] for row in rows] == list(range(5, 13))
    assert all(row["D_search"] is None for row in rows)
    assert not isolated_cache.exists()


def test_table_cache_key_holds_neither_jobs_nor_budget(capsys, isolated_cache):
    argv = ("table", "--from", "5", "--to", "20", "--format", "json")
    code1, fill, _ = run(capsys, *argv, "--jobs", "2", "--budget-ms", "60000")
    stored = isolated_cache.read_text()
    code2, reread, _ = run(capsys, *argv, "--jobs", "1", "--budget-ms", "30000")
    assert code1 == code2 == EXIT_OK
    assert reread == fill
    assert isolated_cache.read_text() == stored  # no record appended


def test_serial_table_does_not_load_the_pool():
    proc = _python(
        "import contextlib, io, sys, wzs.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = wzs.cli.main(['table', '--from', '5', '--to', '12', '--jobs', '1'])\n"
        "print(code, 'concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)"
    )
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out.split() == ["0", "False", "False"]


# Runs the CLI on its arguments and prints [exit code, stdout, wzs modules
# loaded, which of csv, dataclasses and inspect are loaded].
_LOADED = (
    "import contextlib, io, json, sys\n"
    "from wzs import cli\n"
    "out = io.StringIO()\n"
    "with contextlib.redirect_stdout(out):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(json.dumps([code, out.getvalue(), sorted(m for m in sys.modules if 'wzs' in m),\n"
    "                  [m for m in ('csv', 'dataclasses', 'inspect') if m in sys.modules]]))\n"
)


def _run_loaded(*argv):
    """[exit code, stdout, wzs modules, stdlib modules] of one CLI process.
    No run may load dataclasses or inspect: their import and class generation
    cost a table process about 17 ms."""
    proc = _python(_LOADED, *argv)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    code, stdout, loaded, stdlib = json.loads(out)
    assert not {"dataclasses", "inspect"} & set(stdlib), (argv, stdlib)
    return code, stdout, loaded, stdlib


@pytest.mark.parametrize("argv", [
    ("table", "--from", "5", "--to", "30", "--format", "json"),
    ("table", "--from", "5", "--to", "30", "--format", "csv"),
    ("davenport", "--n", "95"),
    ("davenport", "--n", "234", "--method", "search"),
    ("extremal", "enumerate", "--n", "55"),
])
def test_a_cache_hit_loads_no_math_and_prints_what_the_miss_did(isolated_cache, argv):
    miss_code, miss, miss_loaded, _ = _run_loaded(*argv)
    assert isolated_cache.exists()
    hit_code, hit, hit_loaded, hit_stdlib = _run_loaded(*argv)
    assert miss_code == hit_code == EXIT_OK
    assert hit == miss
    assert hit_loaded == ["wzs", "wzs.cli", "wzs.errors"]
    assert ("csv" in hit_stdlib) == ("csv" in argv)  # only a CSV table writes CSV
    if argv[0] == "table":  # a fill never loads the enumerator
        assert "wzs.zerosum" in miss_loaded and "wzs.extremal" not in miss_loaded


@pytest.mark.parametrize("argv", [
    ("davenport", "--n", "95", "--method", "search"),
    ("verify", "--n", "55"),
])
def test_commands_that_compute_load_no_dataclasses(argv):
    code, out, _, _ = _run_loaded(*argv)  # _run_loaded checks the modules
    assert code == EXIT_OK and json.loads(out)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_reread_from_cache_is_byte_identical(capsys, isolated_cache, fmt):
    argv = ("table", "--weights", "cubes", "--from", "5", "--to", "30", "--format", fmt)
    code1, fill, _ = run(capsys, *argv)
    code2, reread, _ = run(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert reread == fill
    # every row came from the cache: the re-read stored nothing
    assert len(isolated_cache.read_text().splitlines()) == 26


def test_table_inconclusive_row_exits_2_and_is_not_cached(capsys, isolated_cache, monkeypatch):
    # Each clock reading is 1 ms past the last, so the search at 126 (59,122
    # nodes) passes its 20 ms deadline 5120 nodes into the walk, however
    # fast the machine runs it.
    ticks = itertools.count()
    with monkeypatch.context() as m:
        m.setattr(invariants.time, "perf_counter", lambda: next(ticks) / 1000)
        code, out, _ = run(capsys, "table", "--from", "126", "--to", "126",
                           "--format", "json", "--budget-ms", "20")
    assert code == EXIT_INCONCLUSIVE
    rows = json.loads(out)
    assert [row["n"] for row in rows] == [126] and rows[0]["D_search"] is None
    assert not isolated_cache.exists()
    code, out, _ = run(capsys, "table", "--from", "126", "--to", "126", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)[0]["D_search"] == 7


def test_table_accepts_out_alias(capsys):
    code, out, _ = run(capsys, "table", "--weights", "cubes", "--from", "5",
                       "--to", "6", "--out", "json")
    assert code == EXIT_OK
    assert json.loads(out)[0]["n"] == 5


def test_extremal_enumerate_55(capsys):
    code, out, _ = run(capsys, "extremal", "enumerate", "--n", "55",
                       "--weights", "cubes")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["count"] == 3 and payload["complete"] is True
    assert payload["classes"][0]["canonical"] == [1, 5]
    assert payload["classes"][0]["structure"]["case"] == "case2"


def test_extremal_enumerate_zero_budget_is_inconclusive(capsys, isolated_cache):
    # in and out of the closed form's hypotheses alike, a walk stopped
    # before it knows D reports no D and caches nothing
    for n, kind in ((589, "cubes"), (126, "cubes"), (60, "units")):
        code, out, _ = run(capsys, "extremal", "enumerate", "--n", str(n),
                           "--weights", kind, "--budget-ms", "0")
        assert code == EXIT_INCONCLUSIVE, (n, kind)
        payload = json.loads(out)
        assert payload["complete"] is False and payload["d_value"] is None
        assert not isolated_cache.exists()


def test_extremal_enumerate_reads_the_deadline_before_every_class(capsys, isolated_cache,
                                                                 monkeypatch):
    # The command reads its clock once for the deadline, then before
    # classifying each of the 7 classes at 95.  A deadline that passes before
    # the fourth class prints the three classified ones, exits 2 and caches
    # nothing; with a read to spare for every class, the run is whole.
    monkeypatch.setattr(commands, "time", _Clock(4))
    code, out, _ = run(capsys, "extremal", "enumerate", "--n", "95")
    assert code == EXIT_INCONCLUSIVE and not isolated_cache.exists()
    cut = json.loads(out)
    assert (cut["count"], cut["complete"], cut["d_value"]) == (3, False, 4)
    clock = _Clock(8)
    monkeypatch.setattr(commands, "time", clock)
    code, out, _ = run(capsys, "extremal", "enumerate", "--n", "95")
    whole = json.loads(out)
    assert code == EXIT_OK and clock.calls == 8
    assert (whole["count"], whole["complete"], whole["d_value"]) == (7, True, 4)
    assert cut["classes"] == whole["classes"][:3]


def test_extremal_construct_and_classify(capsys):
    code, out, _ = run(capsys, "extremal", "construct", "--n", "95",
                       "--weights", "cubes")
    assert code == EXIT_OK
    witness = json.loads(out)["witness"]
    assert witness == [1, 2, 19]
    code, out, _ = run(capsys, "extremal", "classify", "--n", "95",
                       "--weights", "cubes", "--seq", ",".join(map(str, witness)))
    assert code == EXIT_OK
    report = json.loads(out)["report"]
    assert report["case"] == "case1" and report["p"] == 19


def test_extremal_construct_and_classify_refuse_other_weights(capsys):
    for argv in (("construct",), ("classify", "--seq", "1,2,19")):
        code, out, _ = run(capsys, "extremal", *argv, "--n", "95", "--weights", "units")
        assert code == EXIT_REFUSED, argv
        assert "cubes" in json.loads(out)["reason"]


def test_extremal_classify_needs_seq(capsys):
    # the missing --seq is reported before any refusal: off the hypotheses
    # (49) and off the cubes alike
    for n, kind in ((95, "cubes"), (49, "cubes"), (95, "units")):
        code, _, err = run(capsys, "extremal", "classify", "--n", str(n), "--weights", kind)
        assert code == EXIT_USAGE and "seq" in err, (n, kind)


def test_verify_55_all_pass(capsys):
    code, out, _ = run(capsys, "verify", "--n", "55")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["all_pass"] is True
    checks = payload["checks"]
    assert checks["formula_matches_search"]["pass"] is True
    assert checks["extremal_classification"]["classes"] == 3
    assert set(checks) == {
        "formula_matches_search",
        "e_value_relation",
        "lower_bound_witness_tight",
        "extraction_certificates",
        "extremal_classification",
        "coprimality_minima",
        "violation_forces_zero_sum",
        "crt_factorization",
        "power_residue_split",
        "equivalence_invariance",
        "prior_bound_ceiling",
    }


_CHECKS = {
    "coprimality_minima": {"pass": True},
    "crt_factorization": {"pass": True, "trials": 200},
    "equivalence_invariance": {"pass": True, "trials": 100},
    "extraction_certificates": {"m": 5, "pass": True, "trials": 25},
    "extremal_classification": {"classes": 7, "pass": True},
    "formula_matches_search": {"formula": 4, "pass": True, "search": 4},
    "power_residue_split": {"pass": True},
    "prior_bound_ceiling": {"bound": 5, "pass": True},
    "violation_forces_zero_sum": {"pass": True, "trials": 100},
}
# verify's whole payload; the count and CRC-32 of the repr of every
# certificate its extraction and violation checks were handed, in call order;
# and the same of the yes/no answers its CRT and equivalence checks compare
# (pinned from the certificate calls these answers replace)
VERIFY_PINS = {
    (95, 3): ({**_CHECKS, "e_value_relation": {"e_formula": 98, "pass": True},
               "lower_bound_witness_tight": {"pass": True, "witness": [1, 2, 19]}},
              (125, 0x31A56429), (400, 0x2CA663E2)),
    (185, 7): ({**_CHECKS, "e_value_relation": {"e_formula": 188, "pass": True},
                "lower_bound_witness_tight": {"pass": True, "witness": [1, 2, 37]}},
               (125, 0x16025B61), (400, 0xBD405F50)),
}


@pytest.mark.parametrize("n, seed", sorted(VERIFY_PINS))
def test_verify_payload_and_certificates_are_pinned(capsys, monkeypatch, n, seed):
    checks, cert_pin, answer_pin = VERIFY_PINS[n, seed]
    certs, answers = [], []
    for log, names in ((certs, ("extract_length_m", "has_weighted_zero_subseq")),
                       (answers, ("full_zero_sum_exists", "is_zero_sum_free"))):
        for name in names:
            func = getattr(verify, name)
            monkeypatch.setattr(verify, name, lambda *a, f=func, log=log: log.append(f(*a)) or log[-1])
    code, out, _ = run(capsys, "verify", "--n", str(n), "--rng-seed", str(seed))
    payload = {"all_pass": True, "checks": checks, "n": n, "weights": "cubes"}
    assert code == EXIT_OK
    assert out == json.dumps(payload, sort_keys=True) + "\n"
    assert (len(certs), zlib.crc32(repr(certs).encode())) == cert_pin
    assert (len(answers), zlib.crc32(repr(answers).encode())) == answer_pin


def test_main_keeps_no_state_between_calls(capsys, isolated_cache):
    argv = ["verify", "--n", "55", "--rng-seed", "5"]
    outputs = [run(capsys, *argv) for _ in range(3)]
    assert outputs[0][0] == EXIT_OK and outputs.count(outputs[0]) == 3
    code, out, _ = run(capsys, "davenport", "--n", "35", "--method", "search")
    assert code == EXIT_OK and json.loads(out)["search"] == 4
    code, out, err = run(capsys, "davenport", "--n", "35", "--jobs", "2")
    assert code == EXIT_USAGE and out == "" and "--jobs" in err
    code, out, _ = run(capsys, "davenport", "--n", "35", "--method", "search")
    assert code == EXIT_OK and json.loads(out)["search"] == 4
    assert run(capsys, *argv) == outputs[0]


def test_power_residue_split_stays_exhaustive(capsys, monkeypatch):
    # every residue, for cubes and squares, against the exhaustive pow sets,
    # however the residues are chunked between deadline reads
    split = verify.is_kth_power_residue
    for chunk in (verify._RESIDUE_CHUNK, 10):
        calls = []

        def counted(a, k, m):
            calls.append((a, k, m))
            return split(a, k, m)

        monkeypatch.setattr(verify, "_RESIDUE_CHUNK", chunk)
        monkeypatch.setattr(verify, "is_kth_power_residue", counted)
        code, out, _ = run(capsys, "verify", "--n", "55")
        assert code == EXIT_OK and json.loads(out)["checks"]["power_residue_split"]["pass"]
        assert sorted(calls) == sorted((a, k, 55) for k in (2, 3) for a in range(55))


def test_verify_searches_once(capsys, monkeypatch):
    def no_second_search(*args, **kwargs):
        raise AssertionError("verify reads D from the enumeration's walk")

    monkeypatch.setattr(invariants, "davenport_search", no_second_search)
    code, out, _ = run(capsys, "verify", "--n", "55")
    assert code == EXIT_OK
    assert json.loads(out)["checks"]["formula_matches_search"]["search"] == 3


def test_verify_walk_disagreeing_with_formula_is_a_contract_failure(capsys, monkeypatch):
    enumerate_extremal = verify.enumerate_extremal

    def off_by_one(*args):
        enum = enumerate_extremal(*args)
        return ExtremalClasses(enum.classes, enum.complete, enum.d_value + 1, enum.stats)

    monkeypatch.setattr(verify, "enumerate_extremal", off_by_one)
    code, out, _ = run(capsys, "verify", "--n", "55")
    assert code == EXIT_CONTRACT
    checks = json.loads(out)["checks"]
    assert checks["formula_matches_search"] == {"pass": False, "formula": 3, "search": 4}
    assert checks["extremal_classification"]["pass"] is False
    # the witness, two terms long, is checked against the searched D
    assert checks["lower_bound_witness_tight"] == {"pass": False, "witness": [1, 11]}
    assert not flagged(checks)


def test_verify_witness_one_term_short_of_the_searched_d_fails(capsys, monkeypatch):
    lower_bound_witness = verify.lower_bound_witness

    def short(prof):
        witness = lower_bound_witness(prof)
        return verify.Sequence.make(witness.modulus, witness.terms[:-1])

    monkeypatch.setattr(verify, "lower_bound_witness", short)
    code, out, _ = run(capsys, "verify", "--n", "95")
    assert code == EXIT_CONTRACT
    checks = json.loads(out)["checks"]
    assert checks["lower_bound_witness_tight"] == {"pass": False, "witness": [1, 2]}
    assert checks["formula_matches_search"]["search"] == 4
    assert not flagged(checks)


def test_verify_refuses_out_of_hypothesis_n(capsys):
    code, out, _ = run(capsys, "verify", "--n", "21")
    assert code == EXIT_REFUSED


class _Clock:
    """A stand-in for verify's time module: perf_counter reads 0 for its first
    `reads` calls, then a time far past any deadline."""

    def __init__(self, reads):
        self.reads, self.calls = reads, 0

    def perf_counter(self):
        self.calls += 1
        return 0.0 if self.calls <= self.reads else 1e9


# verify's clock reads at n = 55, in the order it makes them: the deadline,
# then one per trial of each randomized check, one per chunk of residues (one
# chunk for each of the two power sets), one for the enumeration's share of
# the budget, and one per class (3 classes) for each of the two per-class
# checks, which run last
READS_55 = (("deadline", 1), ("extraction_certificates", 25),
            ("violation_forces_zero_sum", 100), ("crt_factorization", 200),
            ("power_residue_split", 2), ("equivalence_invariance", 100),
            ("enumeration", 1), ("extremal_classification", 3), ("coprimality_minima", 3))
# the checks that read the searched D, undecided whenever the walk is cut;
# the per-class checks, undecided whenever the enumeration is incomplete;
# and the checks that run trials of their own
WALK_CHECKS = {"formula_matches_search", "e_value_relation", "lower_bound_witness_tight",
               "prior_bound_ceiling"}
CLASS_CHECKS = {"extremal_classification", "coprimality_minima"}
TRIAL_CHECKS = {name for name, _ in READS_55[1:]} - CLASS_CHECKS - {"enumeration"}
# the randomized checks, whose payload reports the trials they ran
COUNTED_CHECKS = TRIAL_CHECKS - {"power_residue_split"}


def trials_run(checks):
    return {name: c["trials"] for name, c in checks.items() if "trials" in c}


def flagged(checks):
    """The checks marked undecided; each of them fails."""
    marked = {name for name, c in checks.items() if c.get("undecided")}
    assert all(checks[name]["undecided"] is True and not checks[name]["pass"] for name in marked)
    return marked


def test_verify_exhausted_budget_exits_inconclusive(capsys):
    code, out, _ = run(capsys, "verify", "--n", "95", "--budget-ms", "0")
    assert code == EXIT_INCONCLUSIVE
    checks = json.loads(out)["checks"]
    assert checks["formula_matches_search"]["search"] is None
    failing = {name for name, c in checks.items() if not c["pass"]}
    # every randomized check, cut at its first trial, the walk's checks (E
    # and the witness against the searched D among them), cut by the zero
    # budget left to the enumeration, and both per-class checks, which saw
    # no classes
    assert failing == WALK_CHECKS | CLASS_CHECKS | TRIAL_CHECKS
    assert flagged(checks) == failing
    assert trials_run(checks) == dict.fromkeys(COUNTED_CHECKS, 0)


def test_verify_reads_the_deadline_before_every_trial(capsys, monkeypatch):
    clock = _Clock(10**6)
    monkeypatch.setattr(verify, "time", clock)
    # the enumeration starts after every trial and the read of what they
    # left of the default 60 s budget, all of it on this clock
    started = []
    enumerate_extremal = verify.enumerate_extremal
    monkeypatch.setattr(verify, "enumerate_extremal",
                        lambda n, w, budget: started.append((clock.calls, budget.max_seconds))
                        or enumerate_extremal(n, w, budget))
    code, _, _ = run(capsys, "verify", "--n", "55")
    upto = [name for name, _ in READS_55].index("enumeration") + 1
    assert started == [(sum(reads for _, reads in READS_55[:upto]), 60.0)]
    assert code == EXIT_OK and clock.calls == sum(reads for _, reads in READS_55)


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("cut", range(1, len(READS_55)))
def test_a_check_the_deadline_cuts_is_undecided(capsys, monkeypatch, cut, where):
    # the clock runs out before the first or the last trial of one check;
    # that check and every later one are undecided, the earlier ones pass
    reads = sum(r for _, r in READS_55[:cut]) + (READS_55[cut][1] - 1 if where == "last" else 0)
    monkeypatch.setattr(verify, "time", _Clock(reads))
    code, out, _ = run(capsys, "verify", "--n", "55")
    assert code == EXIT_INCONCLUSIVE
    checks = json.loads(out)["checks"]
    failing = {name for name, c in checks.items() if not c["pass"]}
    later = {name for name, _ in READS_55[cut:]}
    if "enumeration" in later:  # the enumeration's budget is 0, so its walk is cut
        later = later - {"enumeration"} | WALK_CHECKS
    assert failing == later == flagged(checks)
    # the cut check ran none or all but its last trial, every later one none
    ran = {name: 0 if name in later else r for name, r in READS_55 if name in COUNTED_CHECKS}
    name, r = READS_55[cut]
    if name in COUNTED_CHECKS and where == "last":
        ran[name] = r - 1
    assert trials_run(checks) == ran


def test_a_failing_trial_is_counted_and_ends_its_check(capsys, monkeypatch):
    calls = []
    crt_zero_check = verify.crt_zero_check

    def wrong_third(seq, prof):
        calls.append(seq)
        return crt_zero_check(seq, prof) != (len(calls) == 3)

    monkeypatch.setattr(verify, "crt_zero_check", wrong_third)
    code, out, _ = run(capsys, "verify", "--n", "55")
    assert code == EXIT_CONTRACT and len(calls) == 3
    checks = json.loads(out)["checks"]
    full = {name: r for name, r in READS_55 if name in COUNTED_CHECKS}
    assert trials_run(checks) == {**full, "crt_factorization": 3}
    assert not checks["crt_factorization"]["pass"] and not flagged(checks)


def test_verify_classifies_nothing_after_an_incomplete_enumeration(capsys, monkeypatch):
    # 32395 has over 100,000 extremal classes; the trials run first, the
    # enumeration gets what they left of 0.5 s and stops incomplete, and
    # none of the classes it found is classified.
    calls = []
    for name in ("extract_length_m", "enumerate_extremal", "classify_structure"):
        func = getattr(verify, name)
        monkeypatch.setattr(verify, name,
                            lambda *a, f=func, name=name: calls.append((name, a)) or f(*a))
    code, out, _ = run(capsys, "verify", "--n", "32395", "--budget-ms", "500")
    assert code == EXIT_INCONCLUSIVE
    names = [name for name, _ in calls]
    assert names[-1] == "enumerate_extremal" and set(names[:-1]) == {"extract_length_m"}
    assert calls[-1][1][2].max_seconds < 0.5
    assert CLASS_CHECKS <= flagged(json.loads(out)["checks"])


class _LateClock:
    """A stand-in for the time module of verify and extremal together: the
    real clock for its first `reads` calls, then a time far past any
    deadline."""

    def __init__(self, reads):
        self.reads, self.calls = reads, 0

    def perf_counter(self):
        self.calls += 1
        return time.perf_counter() + (0.0 if self.calls <= self.reads else 1e9)


def test_verify_deadline_inside_the_enumeration_leaves_only_the_class_checks(capsys,
                                                                             monkeypatch):
    # one clock passes the deadline right after the enumeration's first
    # reading, its start: the trials, which ran before, report full counts,
    # the walk (on invariants' own clock) finds D, the read-back stops, and
    # only the two per-class checks are undecided
    upto = [name for name, _ in READS_55].index("enumeration") + 1
    clock = _LateClock(sum(reads for _, reads in READS_55[:upto]) + 1)
    monkeypatch.setattr(verify, "time", clock)
    monkeypatch.setattr(extremal, "time", clock)
    code, out, _ = run(capsys, "verify", "--n", "55")
    assert code == EXIT_INCONCLUSIVE
    checks = json.loads(out)["checks"]
    assert flagged(checks) == CLASS_CHECKS
    assert trials_run(checks) == {"extraction_certificates": 25, "violation_forces_zero_sum": 100,
                                  "crt_factorization": 200, "equivalence_invariance": 100}
    assert checks["power_residue_split"]["pass"] is True
    assert checks["formula_matches_search"]["search"] == 3


def test_budget_env_variable_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("WZS_BUDGET_MS", "1")
    code, out, _ = run(capsys, "davenport", "--n", "29", "--weights", "one",
                       "--method", "search")
    assert code == EXIT_INCONCLUSIVE
    assert json.loads(out)["conclusive"] is False


@pytest.mark.parametrize("flags", [["--jobs", "0"], ["--jobs", "-3"], ["--budget-ms", "-5"]])
def test_jobs_below_one_and_negative_budgets_are_usage_errors(capsys, isolated_cache, flags):
    assert main(["davenport", "--n", "35", *flags]) == EXIT_USAGE
    assert main(["table", "--from", "5", "--to", "7", *flags]) == EXIT_USAGE
    capsys.readouterr()
    assert not isolated_cache.exists()


def test_usage_errors_exit_64_on_a_cache_hit(capsys, isolated_cache):
    # argument checks run before the cache is read, so a hit cannot hide one
    commands = (["table", "--from", "5", "--to", "9"],
                ["davenport", "--n", "95", "--method", "search"])
    for argv in commands:
        assert main(argv) == EXIT_OK
    capsys.readouterr()
    stored = isolated_cache.read_text()
    for argv in commands:
        assert main([*argv, "--budget-ms", "-1"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert isolated_cache.read_text() == stored


def test_negative_budget_from_the_environment_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("WZS_BUDGET_MS", "-5")
    assert main(["davenport", "--n", "35"]) == EXIT_USAGE
    assert main(["verify", "--n", "35"]) == EXIT_USAGE
    capsys.readouterr()


def test_zero_budget_and_one_job_stay_valid(capsys, isolated_cache):
    code, _, _ = run(capsys, "davenport", "--n", "35", "--method", "search", "--budget-ms", "0")
    assert code == EXIT_INCONCLUSIVE
    code, out, _ = run(capsys, "table", "--from", "35", "--to", "35", "--format", "json",
                       "--jobs", "1")
    assert code == EXIT_OK and json.loads(out)[0]["D_search"] == 4
    isolated_cache.unlink()
    # a search runs serially: davenport has no --jobs
    code, out, err = run(capsys, "davenport", "--n", "35", "--method", "search", "--jobs", "1")
    assert code == EXIT_USAGE and out == "" and "--jobs" in err
    assert not isolated_cache.exists()


def test_unknown_flag_exits_64(capsys):
    assert main(["davenport", "--n", "95", "--nope"]) == EXIT_USAGE
    capsys.readouterr()


def test_unknown_command_exits_64(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()



@pytest.mark.parametrize("n, crc", [(2945, 0x9F768779)])
def test_check_matrix_is_pinned(n, crc):
    # verify's matrix at seed 3, in process, as CRC-32 of its sorted JSON:
    # the payload itself, before the CLI prints it (the corpus pins the
    # printed bytes of the same run)
    payload = verify.check_matrix(n, 3, 600)
    assert not flagged(payload["checks"]) and payload["all_pass"]
    assert zlib.crc32(json.dumps(payload, sort_keys=True).encode()) == crc
