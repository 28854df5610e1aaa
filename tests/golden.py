"""The golden corpus: CLI runs whose exit code and stdout bytes are pinned.

golden_corpus.txt, next to this file, lists one run a line: the exit code,
the CRC-32 of stdout once `timeless` has zeroed every "wall_time" value, the
commit the pin was taken at, and the argv.  test_golden.py runs each entry
in process; run as a script,

    python tests/golden.py

this module runs each entry through `python -m wzs.cli`, with the
repository's src/ first on the child's PYTHONPATH, and prints the tail of
the child's stderr for each mismatch.  Either way every run starts from an
empty result cache.
"""

import os
import re
import subprocess
import sys
import tempfile
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "golden_corpus.txt")
SRC = os.path.join(os.path.dirname(HERE), "src")

_WALL_TIME = re.compile(r'"wall_time": [-+.\deE]+')


def timeless(out: str) -> str:
    """stdout with every "wall_time" value zeroed: the one field of a run's
    output that the machine's speed decides."""
    return _WALL_TIME.sub('"wall_time": 0', out)


def crc(out: str) -> int:
    return zlib.crc32(timeless(out).encode())


def entries() -> list[tuple[int, int, str, list[str]]]:
    """(exit code, CRC-32, pinned-at commit, argv) for each corpus line."""
    out = []
    with open(CORPUS, encoding="utf-8") as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                code, checksum, commit, *argv = line.split()
                out.append((int(code), int(checksum, 16), commit, argv))
    return out


def run_cli(argv: list[str], cache: str) -> subprocess.CompletedProcess:
    """`python -m wzs.cli *argv` with this repository's src/ first on its
    path and `cache` as its result cache."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, WZS_CACHE=cache)
    return subprocess.run([sys.executable, "-m", "wzs.cli", *argv], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (code, checksum, commit, argv) in enumerate(entries()):
            run = run_cli(argv, os.path.join(tmp, f"cache-{i}.jsonl"))
            got = (run.returncode, crc(run.stdout))
            if got != (code, checksum):
                bad += 1
                print(f"{' '.join(argv)}: exit {got[0]}, CRC-32 {got[1]:#010x}; "
                      f"pinned at {commit}: exit {code}, CRC-32 {checksum:#010x}", file=sys.stderr)
                for line in run.stderr.splitlines()[-5:]:
                    print(f"    {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
