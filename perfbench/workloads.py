"""The four workloads: fixtures, seeded inputs, timed calls and answer checks.

Each workload is a list of items.  An item's `call` is the only timed code;
its `check` runs right after, untimed, and returns why the answer is wrong
(or None).  Checks recompute what they can with `oracle`, which shares no
code with wzs, and otherwise compare with values pinned from the commit
that defined this benchmark (pinned.json).

Every call reaches wzs through a module attribute (`invariants.davenport_search`,
not a name imported once), so the tracing wrappers see it when installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as _fh:
    PINNED = json.load(_fh)

# Budgets sit far above what the seed commit needs (no search here takes more
# than 600,000 nodes or a few seconds), so an answer never depends on machine
# speed.
BUDGET_MS = 600_000
SEARCH_NODES = 10**8
SEARCH_SECONDS = 120.0

# Every item takes at most about half a second and a pass one to three, so
# that a run holds several passes to take medians over, and the host's speed
# is sampled between items often (see run.py).  That leaves out the slow members of the full matrices: verify at n = 935
# (20 s alone), 319 and 205-589, and the searches at 126-364 that take 0.3 to
# 2.7 s each.  The same layers dominate the items that remain.
VERIFY_MODULI = (55, 85, 95, 115, 145, 155, 185)
SEARCH_MODULI = (108, 144, 180, 182, 189, 224, 266, 273, 294, 351)
# Per modulus: orbit-moved witness copies, random 2-8 term sequences, and
# extraction pairs.  Most queries at 2945 take under 2 ms, the rest spread
# from 2 to 30 ms, and extraction at 5423 takes 50-120 ms.  The counts put
# both the median and p90 where query times lie densely, not in a gap
# between groups, so that the percentiles do not jump between runs.
CERTIFY_MIX = {5423: (11, 44, 3), 2945: (6, 28, 11)}
# The fill runs as three CLI calls over consecutive ranges, each about half a
# second, against a cache that is empty at the start of the pass; the
# re-reads then cover the whole range in one call each.
TABLE_FILLS = ((5, 100), (101, 130), (131, 150))
TABLE_RANGE = (TABLE_FILLS[0][0], TABLE_FILLS[-1][1])
REREADS = 2


def table_args(start: int, end: int) -> list[str]:
    return ["table", "--weights", "cubes", "--from", str(start), "--to", str(end),
            "--format", "json", "--budget-ms", str(BUDGET_MS), "--jobs", "1"]


@dataclass
class Item:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def import_wzs(ctx: dict) -> None:
    """The set-up every workload shares: import wzs from the source tree."""
    sys.path.insert(0, SRC)
    import wzs  # noqa: F401


# ---------------------------------------------------------------- verify_hyp


def _check_verify(n: int, out) -> str | None:
    code, text = out
    if code != 0:
        return f"verify --n {n} exited {code}"
    res = json.loads(text)
    checks = res["checks"]
    failing = [name for name, c in checks.items() if not c["pass"]]
    if not res["all_pass"] or failing:
        return f"verify --n {n}: failing checks {failing}"
    d = oracle.formula_d(n)
    got = checks["formula_matches_search"]
    if got["formula"] != d or got["search"] != d:
        return f"verify --n {n}: D formula/search {got['formula']}/{got['search']}, expected {d}"
    if checks["e_value_relation"]["e_formula"] != n + d - 1:
        return f"verify --n {n}: E {checks['e_value_relation']['e_formula']} != {n + d - 1}"
    witness = checks["lower_bound_witness_tight"]["witness"]
    if len(witness) != d - 1 or not oracle.zero_sum_free(witness, n):
        return f"verify --n {n}: witness {witness} is not a zero-sum-free sequence of length {d - 1}"
    classes = checks["extremal_classification"]["classes"]
    if classes != PINNED["verify_classes"][str(n)]:
        return f"verify --n {n}: {classes} extremal classes, pinned {PINNED['verify_classes'][str(n)]}"
    return None


def verify_items(ctx: dict, rng) -> list[Item]:
    from wzs import cli

    items = []
    for n in VERIFY_MODULI:
        argv = ["verify", "--n", str(n), "--rng-seed", str(rng.randrange(2**31)),
                "--budget-ms", str(BUDGET_MS)]

        def call(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        items.append(Item("verify", f"verify n={n}", call, lambda out, n=n: _check_verify(n, out)))
    return items


# ------------------------------------------------------------- search_offhyp


def _check_search(n: int, res) -> str | None:
    want = PINNED["search_d"][str(n)]
    if not res.conclusive:
        return f"search n={n} inconclusive after {res.stats.nodes} nodes"
    if res.value != want:
        return f"search n={n} gave D={res.value}, pinned {want}"
    terms = res.witness.terms
    if len(terms) != want - 1 or not oracle.zero_sum_free(terms, n):
        return f"search n={n}: witness {terms} is not a zero-sum-free sequence of length {want - 1}"
    return None


def search_items(ctx: dict, rng) -> list[Item]:
    from wzs import invariants, weightsets

    budget = invariants.Budget(max_nodes=SEARCH_NODES, max_seconds=SEARCH_SECONDS)
    moduli = list(SEARCH_MODULI)
    rng.shuffle(moduli)
    items = []
    for n in moduli:

        def call(n=n):
            return invariants.davenport_search(n, weightsets.by_kind("cubes", n), budget)

        items.append(Item("search", f"search n={n}", call, lambda res, n=n: _check_search(n, res)))
    return items


# ------------------------------------------------------------- certify_large


def certify_setup(ctx: dict) -> None:
    import_wzs(ctx)
    from wzs import modarith, weightsets

    ctx["weights"] = {n: weightsets.cubes(n) for n in CERTIFY_MIX}
    ctx["profiles"] = {n: modarith.factor(n) for n in CERTIFY_MIX}


def _check_certificate(seq, cert, length=None) -> str | None:
    n = seq.modulus
    if cert is None:
        if length is None and oracle.zero_sum_free(seq.terms, n):
            return None
        return f"n={n} {seq.terms}: no certificate, but a zero-sum exists"
    return oracle.certificate_error(seq.terms, cert.picked, n, length)


def certify_items(ctx: dict, rng) -> list[Item]:
    from wzs import zerosum

    items = []
    for n, (n_orbit, n_random, n_extract) in CERTIFY_MIX.items():
        prof, w = ctx["profiles"][n], ctx["weights"][n]
        witness = oracle.witness(n)
        # Orbit moves y_i = c * a_i * x_i keep the witness zero-sum-free.
        unit_list = [x for x in range(1, n) if math.gcd(x, n) == 1]
        cube_list = sorted(oracle.cube_set(n))
        for _ in range(n_orbit):
            c = rng.choice(unit_list)
            seq = zerosum.Sequence.make(n, [c * rng.choice(cube_list) * x % n for x in witness])
            items.append(Item(
                "orbit", f"orbit n={n}",
                lambda seq=seq, w=w: zerosum.has_weighted_zero_subseq(seq, w),
                lambda cert, seq=seq: (f"orbit copy {seq.terms} of a zero-sum-free witness "
                                       f"got a certificate" if cert is not None else None),
            ))
        for k in range(n_random):
            # Lengths cycle through 2..8 so that the seed moves only the terms.
            seq = zerosum.Sequence.make(n, [rng.randrange(n) for _ in range(2 + k % 7)])
            items.append(Item(
                "random", f"random n={n}",
                lambda seq=seq, w=w: zerosum.has_weighted_zero_subseq(seq, w),
                lambda cert, seq=seq: _check_certificate(seq, cert),
            ))
        m = 3 * prof.small_omega_n1 + 2 * prof.small_omega_n2
        for _ in range(n_extract):
            seq = zerosum.Sequence.make(n, [rng.randrange(n) for _ in range(m + len(witness))])

            def call(seq=seq, prof=prof, w=w, m=m):
                return (zerosum.extract_length_m(seq, prof, m),
                        zerosum.has_fixed_length_zero_subseq(seq, w, m))

            def check_extract(out, seq=seq, m=m):
                extracted, fixed = out
                if fixed is None:
                    return f"fixed-length DP found no {m}-term zero-sum in {seq.terms}"
                return (_check_certificate(seq, extracted, m)
                        or _check_certificate(seq, fixed, m))

            items.append(Item("extract", f"extract n={n}", call, check_extract))
    rng.shuffle(items)
    return items


# --------------------------------------------------------------- table_sweep


def _check_table(text: str) -> str | None:
    for row in json.loads(text):
        n = row["n"]
        want = PINNED["table_d"][str(n)]
        if row["D_search"] != want:
            return f"table n={n}: D_search {row['D_search']}, pinned {want}"
        formula = oracle.formula_d(n) if oracle.in_hypothesis(n) else None
        if row["D_formula"] != formula:
            return f"table n={n}: D_formula {row['D_formula']}, expected {formula}"
        if row["agrees"] != (None if formula is None else formula == want):
            return f"table n={n}: agrees is {row['agrees']}"
        terms = [int(t) for t in row["witness"].split()]
        if len(terms) != want - 1 or not oracle.zero_sum_free(terms, n):
            return f"table n={n}: witness {terms} is not zero-sum-free of length {want - 1}"
    return None


def table_setup(ctx: dict) -> None:
    import_wzs(ctx)
    os.makedirs(SCRATCH, exist_ok=True)
    ctx["cache"] = os.path.join(SCRATCH, f"table-cache-{os.getpid()}.jsonl")


def table_items(ctx: dict, rng) -> list[Item]:
    table_teardown(ctx)  # every pass starts from an empty cache
    env = dict(os.environ, WZS_CACHE=ctx["cache"])
    env.pop("WZS_BUDGET_MS", None)
    child = os.path.join(HERE, "cli_child.py")
    tracer = ctx.get("tracer")
    extra = ctx.setdefault("extra", {})
    ranges = list(TABLE_FILLS) + [TABLE_RANGE] * REREADS
    fill_texts: list[str | None] = []

    def call(k: int):
        argv = [sys.executable, child]
        trace_file = None
        if tracer is not None:
            trace_file = os.path.join(SCRATCH, f"child-{os.getpid()}-{k}.json")
            argv += ["--trace-out", trace_file]
        spawned = perf_counter()
        proc = subprocess.run(argv + table_args(*ranges[k]), env=env, capture_output=True,
                              text=True, timeout=170)
        return proc, spawned, trace_file

    def check(out, k: int):
        proc, spawned, trace_file = out
        if trace_file is not None:
            with open(trace_file, encoding="utf-8") as fh:
                child_trace = json.load(fh)
            os.remove(trace_file)
            tracer.adopt(child_trace["spans"], k)
            extra.setdefault("process_start", []).append(child_trace["ready"] - spawned)
        ok = proc.returncode == 0
        if k < len(TABLE_FILLS):
            fill_texts.append(proc.stdout if ok else None)
            extra["cli.cache_file_bytes"] = os.path.getsize(ctx["cache"])
        if not ok:
            return f"wzs table exited {proc.returncode}: {proc.stderr[-300:]}"
        if k < len(TABLE_FILLS):
            return _check_table(proc.stdout)
        if None in fill_texts:
            return "re-read not comparable: a fill call failed"
        # The re-read prints one JSON list; the fills printed its pieces.
        joined = "[" + ", ".join(t.strip()[1:-1] for t in fill_texts) + "]\n"
        if proc.stdout != joined:
            return "re-read output differs from the fill outputs joined"
        return None

    fills = len(TABLE_FILLS)
    return [
        Item("fill" if k < fills else "reread",
             f"table fill {ranges[k][0]}-{ranges[k][1]}" if k < fills else "table re-read",
             lambda k=k: call(k), lambda out, k=k: check(out, k))
        for k in range(len(ranges))
    ]


def table_teardown(ctx: dict) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(ctx["cache"])


# Workloads whose items each start a process; their reference does too.
SPAWNS_PROCESSES = {"table_sweep"}

WORKLOADS = {
    "verify_hyp": (import_wzs, verify_items, None),
    "search_offhyp": (import_wzs, search_items, None),
    "certify_large": (certify_setup, certify_items, None),
    "table_sweep": (table_setup, table_items, table_teardown),
}
