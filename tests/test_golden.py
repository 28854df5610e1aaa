"""Every run of the golden corpus, in process, from an empty result cache."""

import pytest

from golden import crc, entries, timeless
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
