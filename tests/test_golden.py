"""Every run of the golden corpus, in process, from an empty result cache,
and one through the script's own runner."""

import pytest

from golden import crc, entries, run_cli, timeless
from wzs.cli import main


@pytest.mark.parametrize("code, checksum, commit, argv",
                         [pytest.param(*e, id=" ".join(e[3])) for e in entries()])
def test_golden_run_prints_its_pinned_bytes(capsys, tmp_path, monkeypatch, code, checksum,
                                            commit, argv):
    monkeypatch.setenv("WZS_CACHE", str(tmp_path / "cache.jsonl"))
    got = main(argv)
    out = capsys.readouterr().out
    assert (got, f"{crc(out):#010x}") == (code, f"{checksum:#010x}"), f"pinned at {commit}"


def test_timeless_zeroes_only_wall_time():
    out = '{"nodes": 5, "wall_time": 0.6822634479976841, "x": 1.5}\n{"wall_time": 2e-05}'
    assert timeless(out) == '{"nodes": 5, "wall_time": 0, "x": 1.5}\n{"wall_time": 0}'


def test_script_runs_an_entry_without_pythonpath(tmp_path, monkeypatch):
    # the script finds wzs itself: run from a shell with no PYTHONPATH, it
    # must not report every entry as an import failure
    monkeypatch.delenv("PYTHONPATH", raising=False)
    code, checksum, _, argv = next(e for e in entries()
                                   if e[3] == "check --n 63 --seq 2,5,8,11,20".split())
    run = run_cli(argv, str(tmp_path / "cache.jsonl"))
    assert (run.returncode, crc(run.stdout)) == (code, checksum), run.stderr
