"""Command-line front end: JSON/CSV emission, result caching, verify harness.

Exit codes: 0 success, 1 refusal (hypothesis violation), 2 inconclusive
(budget exhausted), 3 internal contract failure, 64 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import random
import sys
import time
import zlib
from dataclasses import asdict, dataclass

from . import __version__
from .errors import ContractError, HypothesisError, TheoremViolation
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
from .invariants import (
    Budget,
    davenport_formula,
    davenport_search,
    e_formula,
    gao_E,
    lower_bound_witness,
    prior_upper_bound,
    theorem_hypothesis_failure,
)
from .extremal import (
    canonicalize,
    classify_structure,
    construct_extremal,
    coprimality_violating_sequence,
    enumerate_extremal,
    equivalent,
    orbit_transform,
    reconstruct,
)

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_INCONCLUSIVE = 2
EXIT_CONTRACT = 3
EXIT_USAGE = 64

DEFAULT_CACHE = "./.wzs-cache.jsonl"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunRecord:
    """One cached CLI result; serialization round-trips losslessly."""

    command: str
    params: dict
    payload: str
    timestamp: float
    version: str
    duration: float

    def to_json(self) -> str:
        body = asdict(self)
        body["key"] = cache_key(self.command, self.params)
        return json.dumps(body, sort_keys=True)

    @classmethod
    def finished(cls, command: str, params: dict, payload: str, started: float) -> RunRecord:
        """The record of a run that began at perf_counter() time `started`."""
        return cls(command, params, payload, time.time(), __version__,
                   time.perf_counter() - started)


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

    def __init__(self, path: str | None = None) -> None:
        self.path = path or os.environ.get("WZS_CACHE", DEFAULT_CACHE)
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

    def store(self, record: RunRecord) -> None:
        index = self._load()
        data = (record.to_json() + "\n").encode("utf-8")
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            written = os.write(fd, data)
        finally:
            os.close(fd)
        if written != len(data):
            raise OSError(f"short write to {self.path}: {written} of {len(data)} bytes")
        index.setdefault(cache_key(record.command, record.params), record.payload)

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


def _parse_residues(raw: str) -> list[int]:
    raw = raw.strip()
    if not raw:
        return []
    return [int(chunk) for chunk in raw.split(",")]


def _budget_from(args) -> Budget:
    ms = args.budget_ms
    if ms is None:
        ms = int(os.environ.get("WZS_BUDGET_MS", "60000"))
    if ms < 0:
        raise ValueError(f"the budget must be at least 0 ms, not {ms}")
    return Budget(max_seconds=ms / 1000.0)


def _weights_from(args):
    elems = _parse_residues(args.elems) if getattr(args, "elems", None) else None
    return by_kind(args.weights, args.n, elems)


def _require_cubes(weights) -> None:
    """The closed forms, the construction and the structure result speak only
    about cube weights."""
    if weights.kind != "cubes":
        raise HypothesisError("the weights are the cubes", f"kind = {weights.kind}")


def _cmd_weights(args) -> int:
    ws = by_kind(args.kind, args.n, _parse_residues(args.elems) if args.elems else None)
    _emit(ws.to_dict())
    return EXIT_OK


def _cmd_check(args) -> int:
    weights = _weights_from(args)
    seq = Sequence.make(args.n, _parse_residues(args.seq))
    cert = has_weighted_zero_subseq(seq, weights)
    _emit(
        {
            "n": args.n,
            "weights": weights.kind,
            "seq": list(seq.terms),
            "zero_sum_subseq": cert is not None,
            "certificate": cert.to_dict() if cert is not None else None,
        }
    )
    return EXIT_OK


def _cmd_davenport(args) -> int:
    weights = _weights_from(args)
    budget = _budget_from(args)
    params = {
        "n": args.n,
        "weights": args.weights,
        "elems": args.elems,
        "method": args.method,
    }
    cache = Cache()
    hit = cache.lookup("davenport", params)
    if hit is not None:
        print(hit)
        return EXIT_OK

    t0 = time.perf_counter()
    out: dict = {"n": args.n, "weights": weights.kind}
    code = EXIT_OK
    if args.method in ("formula", "both"):
        try:
            _require_cubes(weights)
            prof = factor(args.n)
            out["formula"] = davenport_formula(prof).value
            out["E_formula"] = e_formula(prof).value
        except HypothesisError as exc:
            if args.method == "formula":
                raise
            out["formula"] = None
            out["E_formula"] = None
            out["formula_refusal"] = str(exc)
    if args.method in ("search", "both"):
        res = davenport_search(args.n, weights, budget)
        out["search"] = res.value
        out["conclusive"] = res.conclusive
        out["witness"] = list(res.witness.terms) if res.witness is not None else None
        out["stats"] = res.stats.to_dict()
        if not res.conclusive:
            out["lower"] = res.lower
            out["upper"] = res.upper
            code = EXIT_INCONCLUSIVE
    if args.method == "both":
        f, s = out.get("formula"), out.get("search")
        out["agrees"] = (f == s) if f is not None and s is not None else None

    payload = json.dumps(out, sort_keys=True)
    print(payload)
    if code == EXIT_OK:
        cache.store(RunRecord.finished("davenport", params, payload, t0))
    return code


def _table_row(n: int, kind: str, budget: Budget) -> dict:
    prof = factor(n)
    row: dict = {
        "n": n,
        "n1": prof.n1,
        "n2": prof.n2,
        "Omega_n1": prof.big_omega_n1,
        "Omega_n2": prof.big_omega_n2,
    }
    # the closed form speaks only about cube weights, and only in hypothesis
    if kind == "cubes" and theorem_hypothesis_failure(prof) is None:
        row["D_formula"] = davenport_formula(prof).value
        row["E_formula"] = e_formula(prof).value
    else:
        row["D_formula"] = None
        row["E_formula"] = None
    res = davenport_search(n, by_kind(kind, n), budget)
    row["D_search"] = res.value
    if row["D_formula"] is None or row["D_search"] is None:
        row["agrees"] = None
    else:
        row["agrees"] = row["D_formula"] == row["D_search"]
    row["witness"] = (
        " ".join(str(t) for t in res.witness.terms) if res.witness is not None else ""
    )
    return row


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


def _computed_rows(moduli: list[int], kind: str, budget: Budget, jobs: int):
    """_table_row for each modulus, in order: on `jobs` spawned workers when
    there are jobs and rows to share, else in this process.  Rows share no
    state, so where a row runs cannot change it."""
    rows = (moduli, itertools.repeat(kind), itertools.repeat(budget))
    if jobs < 2 or len(moduli) < 2:
        yield from map(_table_row, *rows)
        return
    import multiprocessing  # never loaded by serial runs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
        yield from pool.map(_table_row, *rows)


def _cmd_table(args) -> int:
    if args.start < 2 or args.end < args.start:
        raise ValueError("table needs 2 <= from <= to")
    budget = _budget_from(args)
    cache = Cache()
    moduli = range(args.start, args.end + 1)
    hits = {n: cache.lookup("table-row", {"n": n, "weights": args.weights}) for n in moduli}
    by_n = {n: json.loads(hit) for n, hit in hits.items() if hit is not None}
    missed = [n for n in moduli if n not in by_n]
    code = EXIT_OK
    t0 = time.perf_counter()  # a record's duration runs from the previous row's end
    for row in _computed_rows(missed, args.weights, budget, args.jobs):
        by_n[row["n"]] = row
        if row["D_search"] is None:  # inconclusive: printed, never cached
            code = EXIT_INCONCLUSIVE
        else:
            params = {"n": row["n"], "weights": args.weights}
            payload = json.dumps(row, sort_keys=True)
            cache.store(RunRecord.finished("table-row", params, payload, t0))
        t0 = time.perf_counter()
    rows = [by_n[n] for n in moduli]

    if args.format == "json":
        _emit(rows)
        return code
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


def _structure_or_none(canon_seq, prof):
    if theorem_hypothesis_failure(prof) is not None:
        return None
    return classify_structure(canon_seq, prof).to_dict()


def _cmd_extremal(args) -> int:
    weights = _weights_from(args)
    budget = _budget_from(args)
    prof = factor(args.n)
    if args.action != "enumerate":
        _require_cubes(weights)

    if args.action == "construct":
        seq = construct_extremal(prof)
        _emit({"n": args.n, "witness": list(seq.terms), "length": len(seq)})
        return EXIT_OK

    if args.action == "classify":
        if args.seq is None:
            raise ValueError("classify needs --seq")
        seq = Sequence.make(args.n, _parse_residues(args.seq))
        report = classify_structure(seq, prof)
        _emit({"n": args.n, "report": report.to_dict()})
        return EXIT_OK

    params = {
        "n": args.n,
        "weights": args.weights,
        "elems": args.elems,
    }
    cache = Cache()
    hit = cache.lookup("extremal-enumerate", params)
    if hit is not None:
        print(hit)
        return EXIT_OK
    t0 = time.perf_counter()
    enum = enumerate_extremal(args.n, weights, budget)
    classes = []
    for c in enum.classes:
        entry = {
            "canonical": list(c.canonical.terms),
            "orbit_size": c.orbit_size,
            "structure": (
                _structure_or_none(c.canonical, prof) if weights.kind == "cubes" else None
            ),
        }
        classes.append(entry)
    out = {
        "n": args.n,
        "weights": weights.kind,
        "d_value": enum.d_value,
        "count": len(classes),
        "complete": enum.complete,
        "classes": classes,
    }
    payload = json.dumps(out, sort_keys=True)
    print(payload)
    if not enum.complete:
        return EXIT_INCONCLUSIVE
    cache.store(RunRecord.finished("extremal-enumerate", params, payload, t0))
    return EXIT_OK


_RESIDUE_CHUNK = 4096  # residues power_residue_split checks between deadline reads


def _run_verify(n: int, seed: int, budget: Budget) -> tuple[dict, set[str]]:
    """The check matrix for one n, and the names of the checks the budget
    left undecided: a walk stopped before it knew D, an incomplete
    enumeration, or a check the deadline cut before it failed or ended."""
    prof = factor(n)
    require_hypotheses(prof)
    rng = random.Random(seed)
    weights = by_kind("cubes", n)
    checks: dict[str, dict] = {}
    deadline = time.perf_counter() + budget.max_seconds

    d_form = davenport_formula(prof).value
    # one walk gives D (None if the budget ran out) and the extremal classes
    enum = enumerate_extremal(n, weights, budget)
    undecided = set() if enum.complete else {"extremal_classification"}
    if enum.d_value is None:
        undecided |= {"formula_matches_search", "prior_bound_ceiling"}
    checks["formula_matches_search"] = {
        "pass": enum.d_value == d_form,
        "formula": d_form,
        "search": enum.d_value,
    }
    checks["e_value_relation"] = {
        "pass": e_formula(prof).value == gao_E(d_form, n),
        "e_formula": e_formula(prof).value,
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

    m = 3 * prof.small_omega_n1 + 2 * prof.small_omega_n2
    length = m + 2 * prof.big_omega_n1 + prof.big_omega_n2

    def extracted(_) -> bool:
        seq = Sequence.make(n, (rng.randrange(n) for _ in range(length)))
        cert = extract_length_m(seq, prof, m)
        return len(cert.picked) == m and cert.verify(seq, weights)

    ok, ran = passes("extraction_certificates", range(25), extracted)
    checks["extraction_certificates"] = {"pass": ok, "trials": ran, "m": m}

    # classify_structure refuses a class whose length is not the closed
    # form's D - 1, so a walk that disagrees fails this check, not the run;
    # an incomplete enumeration is undecided already, so none is classified
    classify_ok = enum.complete and enum.d_value == d_form
    minima_ok = True
    for c in enum.classes:
        if time.perf_counter() > deadline:  # what has not failed is undecided
            cut = {"extremal_classification": classify_ok, "coprimality_minima": minima_ok}
            undecided |= {name for name, ok in cut.items() if ok}
            classify_ok = minima_ok = False
            break
        if classify_ok and not equivalent(
            reconstruct(classify_structure(c.canonical, prof)), c.canonical, weights
        ):
            classify_ok = False
        for p in prof.primes_n1():
            if sum(1 for t in c.canonical.terms if t % p != 0) < 2:
                minima_ok = False
        for q in prof.primes_n2():
            if sum(1 for t in c.canonical.terms if t % q != 0) < 1:
                minima_ok = False
    checks["extremal_classification"] = {
        "pass": classify_ok,
        "classes": len(enum.classes),
    }
    checks["coprimality_minima"] = {"pass": minima_ok}

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

    bound = prior_upper_bound(prof).d_bound
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


def _cmd_verify(args) -> int:
    result, undecided = _run_verify(args.n, args.rng_seed, _budget_from(args))
    _emit(result)
    if result["all_pass"]:
        return EXIT_OK
    failing = {name for name, c in result["checks"].items() if not c["pass"]}
    return EXIT_INCONCLUSIVE if failing <= undecided else EXIT_CONTRACT


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

    def add_weights_flags(p, default_kind="cubes"):
        p.add_argument("--weights", default=default_kind,
                       choices=["cubes", "squares", "units", "pm1", "one", "custom"])
        p.add_argument("--elems", default=None,
                       help="comma-separated residues for --weights custom")

    p = sub.add_parser("weights", help="print a weight set as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", required=True,
                   choices=["cubes", "squares", "units", "pm1", "one", "custom"])
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
    p.add_argument("--weights", default="cubes",
                   choices=["cubes", "squares", "units", "pm1", "one"])
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
