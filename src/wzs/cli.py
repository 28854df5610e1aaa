"""Command-line front end: JSON/CSV emission, result caching, verify harness.

Exit codes: 0 success, 1 refusal (hypothesis violation), 2 inconclusive
(budget exhausted), 3 internal contract failure, 64 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import zlib

from . import __version__
from .errors import ContractError, HypothesisError, TheoremViolation

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_INCONCLUSIVE = 2
EXIT_CONTRACT = 3
EXIT_USAGE = 64

DEFAULT_CACHE = "./.wzs-cache.jsonl"
# the weight kinds; custom comes last, as table takes every kind but it
_KINDS = ["cubes", "squares", "units", "pm1", "one", "custom"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _code_identity() -> str:
    """CRC-32 of the package's sources (names and bytes of its *.py files),
    read once per process.  A CRC rather than hashlib, whose import loads
    OpenSSL into every CLI process (about 4 ms and 3.6 MB of RSS on
    Python 3.11, Linux); an accidental edit goes unnoticed with odds of
    2**-32."""
    here = os.path.dirname(os.path.abspath(__file__))
    crc = 0
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                crc = zlib.crc32(fh.read(), zlib.crc32(name.encode() + b"\0", crc))
    return f"{crc:08x}"


def cache_key(command: str, params: dict) -> str:
    """The key of a result: command, parameters and the code identity, so a
    result computed by other code is never served."""
    return json.dumps(
        {"command": command, "params": params, "code": _code_identity()}, sort_keys=True
    )


class Cache:
    """Append-only JSONL result cache.

    The file is read at most once per instance, on the first lookup or
    store, into a dict from key to payload; the first record for a key wins,
    and a corrupt line is skipped with one warning.  Each record is appended
    with a single write on an O_APPEND descriptor, so records from
    concurrent writers never interleave within a line.
    """

    def __init__(self) -> None:
        self.path = os.environ.get("WZS_CACHE", DEFAULT_CACHE)
        self._index: dict[str, str] | None = None

    def _load(self) -> dict[str, str]:
        if self._index is not None:
            return self._index
        try:
            with open(self.path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            lines = []
        index: dict[str, str] = {}
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                rec = None
            if not isinstance(rec, dict):
                print(
                    f"warning: skipping corrupt cache line {lineno} in {self.path}",
                    file=sys.stderr,
                )
                continue
            index.setdefault(rec.get("key"), rec.get("payload"))
        self._index = index
        return index

    def lookup(self, command: str, params: dict) -> str | None:
        return self._load().get(cache_key(command, params))

    def store(self, command: str, params: dict, payload: str, started: float) -> None:
        """Append the record of a run that began at perf_counter() time
        `started`: its command, params, payload, timestamp, version,
        duration and key, as one JSON line with sorted keys."""
        index = self._load()
        record = {"command": command, "params": params, "payload": payload,
                  "timestamp": time.time(), "version": __version__,
                  "duration": time.perf_counter() - started, "key": cache_key(command, params)}
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            written = os.write(fd, data)
        finally:
            os.close(fd)
        if written != len(data):
            raise OSError(f"short write to {self.path}: {written} of {len(data)} bytes")
        index.setdefault(record["key"], payload)

    def entries(self) -> int:
        try:
            fh = open(self.path, encoding="utf-8")
        except FileNotFoundError:
            return 0
        with fh:
            return sum(1 for line in fh if line.strip())

    def clear(self) -> bool:
        self._index = None
        try:
            os.remove(self.path)
            return True
        except FileNotFoundError:
            return False


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _commands():
    """The command bodies and the math they import (`wzs.commands`), loaded
    only when a command computes: a cache hit reads the cache file and
    nothing more."""
    from . import commands

    return commands


def _budget_seconds(args) -> float:
    """The run's budget, checked before the cache is read."""
    ms = args.budget_ms
    if ms is None:
        ms = int(os.environ.get("WZS_BUDGET_MS", "60000"))
    if ms < 0:
        raise ValueError(f"the budget must be at least 0 ms, not {ms}")
    return ms / 1000.0


def _cached(command: str, params: dict, compute, decided: str) -> int:
    """Print the cached result of `command` at `params`; on a miss print
    compute()'s and cache it, unless its `decided` entry is False."""
    cache = Cache()
    hit = cache.lookup(command, params)
    if hit is not None:
        print(hit)
        return EXIT_OK
    t0 = time.perf_counter()
    out = compute()
    payload = json.dumps(out, sort_keys=True)
    print(payload)
    if not out.get(decided, True):
        return EXIT_INCONCLUSIVE
    cache.store(command, params, payload, t0)
    return EXIT_OK


def _cmd_weights(args) -> int:
    _emit(_commands().weight_set(args))
    return EXIT_OK


def _cmd_check(args) -> int:
    _emit(_commands().check(args))
    return EXIT_OK


def _cmd_davenport(args) -> int:
    seconds = _budget_seconds(args)
    params = {
        "n": args.n,
        "weights": args.weights,
        "elems": args.elems,
        "method": args.method,
    }
    # "conclusive" is there only when the search ran
    return _cached("davenport", params, lambda: _commands().davenport(args, seconds),
                   "conclusive")


_TABLE_COLUMNS = [
    "n",
    "n1",
    "n2",
    "Omega_n1",
    "Omega_n2",
    "D_formula",
    "D_search",
    "E_formula",
    "agrees",
    "witness",
]


def _cmd_table(args) -> int:
    if args.start < 2 or args.end < args.start:
        raise ValueError("table needs 2 <= from <= to")
    seconds = _budget_seconds(args)
    cache = Cache()
    moduli = range(args.start, args.end + 1)
    hits = {n: cache.lookup("table-row", {"n": n, "weights": args.weights}) for n in moduli}
    by_n = {n: json.loads(hit) for n, hit in hits.items() if hit is not None}
    missed = [n for n in moduli if n not in by_n]
    code = EXIT_OK
    if missed:
        t0 = time.perf_counter()  # a record's duration runs from the previous row's end
        for row in _commands().table_rows(missed, args.weights, seconds, args.jobs):
            by_n[row["n"]] = row
            if row["D_search"] is None:  # inconclusive: printed, never cached
                code = EXIT_INCONCLUSIVE
            else:
                params = {"n": row["n"], "weights": args.weights}
                payload = json.dumps(row, sort_keys=True)
                cache.store("table-row", params, payload, t0)
            t0 = time.perf_counter()
    rows = [by_n[n] for n in moduli]

    if args.format == "json":
        _emit(rows)
        return code
    import csv  # here, so JSON output never loads it

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(_TABLE_COLUMNS)
    for row in rows:
        rendered = []
        for col in _TABLE_COLUMNS:
            val = row[col]
            if val is None:
                rendered.append("")
            elif isinstance(val, bool):
                rendered.append("true" if val else "false")
            else:
                rendered.append(str(val))
        writer.writerow(rendered)
    return code


def _cmd_extremal(args) -> int:
    seconds = _budget_seconds(args)
    if args.action != "enumerate":
        _emit(_commands().extremal(args, seconds))
        return EXIT_OK
    params = {
        "n": args.n,
        "weights": args.weights,
        "elems": args.elems,
    }
    return _cached("extremal-enumerate", params, lambda: _commands().extremal(args, seconds),
                   "complete")


def _cmd_verify(args) -> int:
    seconds = _budget_seconds(args)
    from .verify import check_matrix

    result = check_matrix(args.n, args.rng_seed, seconds)
    _emit(result)
    if result["all_pass"]:
        return EXIT_OK
    only_undecided = all(c["pass"] or c.get("undecided") for c in result["checks"].values())
    return EXIT_INCONCLUSIVE if only_undecided else EXIT_CONTRACT


def _cmd_cache(args) -> int:
    cache = Cache()
    if args.action == "clear":
        _emit({"path": cache.path, "cleared": cache.clear()})
    else:
        _emit({"path": cache.path, "entries": cache.entries()})
    return EXIT_OK


def _jobs(raw: str) -> int:
    jobs = int(raw)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {jobs}")
    return jobs


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process: parse_args keeps no state
    in it between calls."""
    parser = _Parser(prog="wzs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weights_flags(p):
        p.add_argument("--weights", default="cubes", choices=_KINDS)
        p.add_argument("--elems", default=None,
                       help="comma-separated residues for --weights custom")

    p = sub.add_parser("weights", help="print a weight set as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", dest="weights", required=True, choices=_KINDS)
    p.add_argument("--elems", default=None)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("check", help="weighted zero-sum subsequence verdict")
    p.add_argument("--n", type=int, required=True)
    add_weights_flags(p)
    p.add_argument("--seq", required=True, help="comma-separated residues")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("davenport", help="weighted Davenport constant")
    p.add_argument("--n", type=int, required=True)
    add_weights_flags(p)
    p.add_argument("--method", default="both", choices=["search", "formula", "both"])
    p.add_argument("--budget-ms", type=int, default=None)
    p.set_defaults(func=_cmd_davenport)

    p = sub.add_parser("table", help="sweep a range of moduli into CSV/JSON rows")
    p.add_argument("--weights", default="cubes", choices=_KINDS[:-1])
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)
    p.add_argument("--format", "--out", dest="format", default="csv",
                   choices=["csv", "json"])
    p.add_argument("--budget-ms", type=int, default=None)
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("extremal", help="enumerate, construct or classify extremal sequences")
    p.add_argument("action", choices=["enumerate", "construct", "classify"])
    p.add_argument("--n", type=int, required=True)
    add_weights_flags(p)
    p.add_argument("--seq", default=None, help="sequence for classify")
    p.add_argument("--budget-ms", type=int, default=None)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("verify", help="run the full desk-scale check matrix for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--budget-ms", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cache", help="inspect or clear the result cache")
    p.add_argument("action", nargs="?", default="stats", choices=["stats", "clear"])
    p.set_defaults(func=_cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except HypothesisError as exc:
        _emit({"error": "refused", "reason": str(exc)})
        return EXIT_REFUSED
    except TheoremViolation as exc:
        _emit({"error": "theorem violation", "detail": str(exc), "dump": exc.dump})
        return EXIT_CONTRACT
    except ContractError as exc:
        _emit({"error": "internal contract failure", "detail": str(exc)})
        return EXIT_CONTRACT
    except ValueError as exc:
        print(f"wzs: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
