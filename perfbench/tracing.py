"""Spans around every public function of the six wzs modules.

The wrappers are installed from the benchmark's side: each public function
is replaced at every name it is bound to inside wzs, including entries of
module-level dicts such as the weight-set factory table, so calls between
modules and within a module are both seen.  Private helpers are timed only
through their public callers.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("modarith", "weightsets", "zerosum", "invariants", "extremal", "cli")

# The kind constructors and by_kind are one layer step: building a weight set.
BUILDERS = {"cubes", "squares", "units_weights", "pm_one", "singleton_one", "custom", "by_kind"}
BUILD = "weightsets.build"

# DP entry points whose work is counted in shift operations.
DP_FUNCTIONS = (
    "zerosum.has_weighted_zero_subseq",
    "zerosum.has_fixed_length_zero_subseq",
    "zerosum.full_zero_sum_weights",
)

# Span fields: name, start, end, parent index, item id, time covered by
# child spans, and raw facts taken from arguments or the return value.
NAME, START, END, PARENT, ITEM, CHILD, INFO = range(7)


def _info(name: str, args, result):
    """Facts a span keeps for the counters; must stay cheap."""
    if name in DP_FUNCTIONS:
        if name == "zerosum.full_zero_sum_weights":
            return list(args[0]), args[1]
        return args[0].terms, args[1]
    if name == "invariants.davenport_search":
        return result.stats.nodes, result.conclusive
    if name == "extremal.enumerate_extremal":
        return result.stats.nodes, len(result.classes), result.complete
    if name == "cli.cache_lookup":
        return result is not None
    if name == BUILD:
        return args[1] if isinstance(args[0], str) else args[0]
    return None


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item: int | None = None
        self.adopted: list[list] = []

    def adopt(self, spans: list[list], item: int) -> None:
        """Take over finished spans recorded by a child process for `item`."""
        base = len(self.adopted)
        for span in spans:
            parent = span[PARENT]
            self.adopted.append(span[:PARENT] + [None if parent is None else parent + base, item]
                                + span[CHILD:])

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, self.item, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = end = perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][CHILD] += end - span[START]
            span[INFO] = _info(name, args, result)
            return result

        return traced

    def finish(self) -> list[list]:
        """Spans with INFO reduced to JSON-ready numbers."""
        orbit_sizes: dict[tuple[int, int], int] = {}

        def shift_ops(terms, weights) -> int:
            total = 0
            for x in terms:
                key = (id(weights), x)
                if key not in orbit_sizes:
                    n = weights.modulus
                    orbit_sizes[key] = len({a * x % n for a in weights.elements})
                total += orbit_sizes[key]
            return total

        out = []
        for span in self.spans:
            info = span[INFO]
            if span[NAME] in DP_FUNCTIONS:
                info = shift_ops(*info)
            out.append(span[:INFO] + [info])
        base = len(out)
        for span in self.adopted:
            parent = span[PARENT]
            out.append(span[:PARENT] + [None if parent is None else parent + base] + span[ITEM:])
        return out


def install(tracer: Tracer) -> None:
    """Route every public function of the six modules through the tracer."""
    mods = [importlib.import_module(f"wzs.{m}") for m in MODULES]
    wrappers: dict[int, object] = {}  # id of the original -> its wrapper
    for mod in mods:
        short = mod.__name__.split(".")[-1]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            label = BUILD if short == "weightsets" and name in BUILDERS else f"{short}.{name}"
            wrappers[id(obj)] = tracer.wrap(label, obj)
    for modname, mod in list(sys.modules.items()):
        if modname != "wzs" and not modname.startswith("wzs."):
            continue
        for name, val in list(vars(mod).items()):
            if id(val) in wrappers:
                setattr(mod, name, wrappers[id(val)])
            elif isinstance(val, dict) and name != "__builtins__":
                for key, entry in list(val.items()):
                    if id(entry) in wrappers:
                        val[key] = wrappers[id(entry)]
    cache = importlib.import_module("wzs.cli").Cache
    cache.lookup = tracer.wrap("cli.cache_lookup", cache.lookup)
    cache.store = tracer.wrap("cli.cache_store", cache.store)


def summarize(spans: list[list], item: int | None = None) -> dict:
    """Per-function calls and self time, per-layer self time and counters,
    over all spans or over those of one item."""
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    built_at: Counter = Counter()
    counters: defaultdict = defaultdict(float)
    lookups = 0
    for span in spans:
        if item is not None and span[ITEM] != item:
            continue
        name, info = span[NAME], span[INFO]
        own = span[END] - span[START] - span[CHILD]
        self_s[name] += own
        self_s[name.split(".")[0]] += own
        parent = span[PARENT]
        if name == BUILD:
            # A by_kind call that delegates to a constructor is one build.
            if parent is None or spans[parent][NAME] != BUILD:
                calls[name] += 1
                built_at[info] += 1
        else:
            calls[name] += 1
        if name in DP_FUNCTIONS:
            counters["zerosum.shift_ops"] += info
            counters["dp_s"] += own
        elif name == "invariants.davenport_search":
            counters["invariants.search_nodes"] += info[0]
            counters["invariants.inconclusive"] += not info[1]
        elif name == "extremal.enumerate_extremal":
            counters["extremal.enum_nodes"] += info[0]
            counters["extremal.classes"] += info[1]
            counters["extremal.incomplete"] += not info[2]
        elif name == "cli.cache_lookup":
            lookups += 1
            counters["cli.cache_hits"] += bool(info)
    dp_s = counters.pop("dp_s", 0.0)
    search_s = self_s.get("invariants.davenport_search", 0.0)
    counters["zerosum.shift_ops_per_s"] = counters["zerosum.shift_ops"] / dp_s if dp_s else 0.0
    counters["invariants.search_nodes_per_s"] = (
        counters["invariants.search_nodes"] / search_s if search_s else 0.0
    )
    counters["cli.cache_hit_ratio"] = counters["cli.cache_hits"] / lookups if lookups else 0.0
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "counters": dict(counters),
        "builds_by_modulus": {str(n): c for n, c in sorted(built_at.items())},
    }


def main() -> None:
    """Print the heaviest functions of a span file from run.py or cli_child.py."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("spans_file")
    parser.add_argument("--top", type=int, default=10)
    args = parser.parse_args()
    with open(args.spans_file, encoding="utf-8") as fh:
        summary = summarize(json.load(fh)["spans"])
    ranked = sorted(((v, k) for k, v in summary["self_s"].items() if "." in k), reverse=True)
    for self_s, name in ranked[: args.top]:
        print(f"{name:<42} {summary['calls'].get(name, 0):7d} calls {self_s:9.3f} s self")
    print("weight-set builds by modulus:", summary["builds_by_modulus"])


if __name__ == "__main__":
    main()
