"""The bodies of the CLI commands that compute.

`wzs.cli` imports this module only when a command has work to do: a cache
miss, or a command that reads no cache.  Each function returns what its
command prints; `cli` prints it, caches it and picks the exit code.  The
`extremal` command imports its module itself, so a table fill never loads
the enumerator.  Whether the cube closed forms apply (D, E, the lower-bound
witness and the structure result) is `invariants.cube_forms_failure`'s to say.
"""

from __future__ import annotations

import itertools
import time

from .invariants import (
    Budget,
    cube_forms_failure,
    davenport_formula,
    davenport_search,
    e_formula,
    lower_bound_witness,
)
from .modarith import factor
from .weightsets import by_kind
from .zerosum import Sequence, has_weighted_zero_subseq


def _parse_residues(raw: str) -> list[int]:
    raw = raw.strip()
    if not raw:
        return []
    return [int(chunk) for chunk in raw.split(",")]


def _weights_from(args):
    elems = None if args.elems is None else _parse_residues(args.elems)
    return by_kind(args.weights, args.n, elems)


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
        refusal = cube_forms_failure(weights)
        if refusal is None:
            prof = factor(args.n)
            out["formula"] = davenport_formula(prof)
            out["E_formula"] = e_formula(prof)
        elif args.method == "formula":
            raise refusal
        else:
            out["formula"] = out["E_formula"] = None
            out["formula_refusal"] = str(refusal)
    if args.method in ("search", "both"):
        res = davenport_search(args.n, weights, Budget(max_seconds=seconds))
        out["search"] = res.value
        out["conclusive"] = res.conclusive
        out["witness"] = list(res.witness.terms)
        out["stats"] = res.stats._asdict()
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
    weights = by_kind(kind, n)
    applies = cube_forms_failure(weights) is None
    row["D_formula"] = davenport_formula(prof) if applies else None
    row["E_formula"] = e_formula(prof) if applies else None
    res = davenport_search(n, weights, budget)
    row["D_search"] = res.value
    if row["D_formula"] is None or row["D_search"] is None:
        row["agrees"] = None
    else:
        row["agrees"] = row["D_formula"] == row["D_search"]
    row["witness"] = " ".join(str(t) for t in res.witness.terms)
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
    """The construction (the lower-bound witness), a classification, or the
    enumerated classes; "complete" is False when the enumeration or the
    structure pass (which reads the deadline before each class) ran out of
    budget.  Construct and classify are refused where the cube closed forms
    do not apply; enumerate then runs no structure pass."""
    from .extremal import classify_structure, enumerate_extremal

    weights = _weights_from(args)
    prof = factor(args.n)
    if args.action == "classify" and args.seq is None:
        raise ValueError("classify needs --seq")
    refusal = cube_forms_failure(weights)
    if refusal is not None and args.action != "enumerate":
        raise refusal

    if args.action == "construct":
        seq = lower_bound_witness(prof)
        return {"n": args.n, "witness": list(seq.terms), "length": len(seq)}

    if args.action == "classify":
        seq = Sequence.make(args.n, _parse_residues(args.seq))
        return {"n": args.n, "report": classify_structure(seq, prof).to_dict()}

    deadline = time.perf_counter() + seconds
    enum = enumerate_extremal(args.n, weights, Budget(max_seconds=seconds))
    structured = refusal is None
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
