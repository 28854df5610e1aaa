"""The bodies of the CLI commands that compute.

`wzs.cli` imports this module only when a command has work to do: a cache
miss, or a command that reads no cache.  Each function returns what its
command prints; `cli` prints it, caches it and picks the exit code.  The
`extremal` command imports its module itself, so a table fill never loads
the enumerator.
"""

from __future__ import annotations

import itertools
import time

from .errors import HypothesisError
from .invariants import Budget, davenport_formula, davenport_search, e_formula
from .modarith import factor, theorem_hypothesis_failure
from .weightsets import by_kind
from .zerosum import Sequence, has_weighted_zero_subseq


def _parse_residues(raw: str) -> list[int]:
    raw = raw.strip()
    if not raw:
        return []
    return [int(chunk) for chunk in raw.split(",")]


def _weights_from(args):
    elems = _parse_residues(args.elems) if args.elems else None
    return by_kind(args.weights, args.n, elems)


def _require_cubes(weights) -> None:
    """The closed forms, the construction and the structure result speak only
    about cube weights."""
    if weights.kind != "cubes":
        raise HypothesisError("the weights are the cubes", f"kind = {weights.kind}")


def weight_set(args) -> dict:
    return _weights_from(args).to_dict()


def check(args) -> dict:
    weights = _weights_from(args)
    seq = Sequence.make(args.n, _parse_residues(args.seq))
    cert = has_weighted_zero_subseq(seq, weights)
    return {
        "n": args.n,
        "weights": weights.kind,
        "seq": list(seq.terms),
        "zero_sum_subseq": cert is not None,
        "certificate": cert.to_dict() if cert is not None else None,
    }


def davenport(args, seconds: float) -> dict:
    """The closed form, the search or both; "conclusive" is False when the
    search ran out of budget."""
    weights = _weights_from(args)
    out: dict = {"n": args.n, "weights": weights.kind}
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
        res = davenport_search(args.n, weights, Budget(max_seconds=seconds))
        out["search"] = res.value
        out["conclusive"] = res.conclusive
        out["witness"] = list(res.witness.terms) if res.witness is not None else None
        out["stats"] = res.stats.to_dict()
        if not res.conclusive:
            out["lower"] = res.lower
            out["upper"] = res.upper
    if args.method == "both":
        f, s = out.get("formula"), out.get("search")
        out["agrees"] = (f == s) if f is not None and s is not None else None
    return out


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


def table_rows(moduli: list[int], kind: str, seconds: float, jobs: int):
    """_table_row for each modulus, in order: on `jobs` spawned workers when
    there are jobs and rows to share, else in this process.  Rows share no
    state, so where a row runs cannot change it."""
    rows = (moduli, itertools.repeat(kind), itertools.repeat(Budget(max_seconds=seconds)))
    if jobs < 2 or len(moduli) < 2:
        yield from map(_table_row, *rows)
        return
    import multiprocessing  # never loaded by serial runs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
        yield from pool.map(_table_row, *rows)


def extremal(args, seconds: float) -> dict:
    """The construction, a classification, or the enumerated classes;
    "complete" is False when the enumeration or the structure pass (which
    reads the deadline before each class) ran out of budget."""
    from .extremal import classify_structure, construct_extremal, enumerate_extremal

    weights = _weights_from(args)
    prof = factor(args.n)
    if args.action != "enumerate":
        _require_cubes(weights)

    if args.action == "construct":
        seq = construct_extremal(prof)
        return {"n": args.n, "witness": list(seq.terms), "length": len(seq)}

    if args.action == "classify":
        if args.seq is None:
            raise ValueError("classify needs --seq")
        seq = Sequence.make(args.n, _parse_residues(args.seq))
        return {"n": args.n, "report": classify_structure(seq, prof).to_dict()}

    deadline = time.perf_counter() + seconds
    enum = enumerate_extremal(args.n, weights, Budget(max_seconds=seconds))
    # the structure result speaks only about cube weights within the hypotheses
    structured = weights.kind == "cubes" and theorem_hypothesis_failure(prof) is None
    classes = []
    for c in enum.classes:
        if structured and time.perf_counter() > deadline:
            break
        classes.append({
            "canonical": list(c.canonical.terms),
            "orbit_size": c.orbit_size,
            "structure": classify_structure(c.canonical, prof).to_dict() if structured else None,
        })
    return {
        "n": args.n,
        "weights": weights.kind,
        "d_value": enum.d_value,
        "count": len(classes),
        "complete": enum.complete and len(classes) == len(enum.classes),
        "classes": classes,
    }
