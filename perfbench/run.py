"""wzs benchmark: one workload per run, answers checked, metrics as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A worker process starts the interpreter, imports wzs and builds the
workload's fixtures (the set-up), then runs passes over the workload's items:
one request after another, a closed loop with one client, each answer
checked right after its call.  With --trace 0 one worker repeats passes of
the same inputs for about S seconds, while fresh workers time the set-up
between passes, and the end-to-end metrics are printed; with --trace 1 one
untraced and one traced worker run a single pass each, and the per-layer
metrics are printed.  The last line of stdout
is the result; a human summary goes to stderr.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("verify_hyp", "search_offhyp", "certify_large", "table_sweep")
WORKER_TIMEOUT = 170.0
# Set-up is timed in at least MIN_SETUPS and at most MAX_SETUPS workers that
# together take about SETUP_SHARE of a run.
MIN_SETUPS, MAX_SETUPS, SETUP_SHARE = 3, 15, 0.25
# End-to-end times are given in reference seconds: a measured time, times a
# unit over the time the reference took in the same moments (see
# reference.py).  On a quiet host the reference takes about its unit, so
# they read close to plain seconds there.  Item times are scaled by the
# median reference of their pass (one after every REF_EVERY_S of program
# time at least): an in-process call of REF_UNIT_S, or for items that start
# a process, a child of CHILD_REF_UNIT_S.  A set-up is scaled by the mean
# of two child references, run just before and just after it.
REF_UNIT_S = 0.010
CHILD_REF_UNIT_S = 0.1
REF_EVERY_S = 0.05

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

_FUNCTIONS = {
    "modarith": ("factor", "units"),
    "weightsets": ("build", "coset_minima", "reduced_alphabet"),
    "zerosum": ("has_weighted_zero_subseq", "has_fixed_length_zero_subseq",
                "full_zero_sum_weights", "extract_length_m", "crt_zero_check"),
    "invariants": ("davenport_search", "lower_bound_witness"),
    "extremal": ("enumerate_extremal", "canonicalize", "classify_structure"),
    "cli": ("main", "cache_lookup", "cache_store"),
}
_COUNTERS = {
    "zerosum": {"shift_ops": "count", "shift_ops_per_s": "1/s"},
    "invariants": {"search_nodes": "count", "search_nodes_per_s": "1/s", "inconclusive": "count"},
    "extremal": {"enum_nodes": "count", "classes": "count", "incomplete": "count"},
    "cli": {"cache_hits": "count", "cache_hit_ratio": "ratio", "cache_file_bytes": "bytes",
            "process_start_s": "s", "fill_s": "s", "reread_s": "s"},
}
PER_LAYER: dict[str, str] = {}
for _layer, _fns in _FUNCTIONS.items():
    PER_LAYER[f"{_layer}.self_s"] = "s"
    for _fn in _fns:
        PER_LAYER[f"{_layer}.{_fn}.calls"] = "count"
        PER_LAYER[f"{_layer}.{_fn}.self_s"] = "s"
    for _name, _unit in _COUNTERS.get(_layer, {}).items():
        PER_LAYER[f"{_layer}.{_name}"] = _unit
PER_LAYER.update({"trace.wall_s": "s", "trace.overhead_s": "s", "host.ref_ms": "ms"})


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: always a measured value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -------------------------------------------------------------------- worker


def _run_items(items, tracer, child_ref: bool) -> dict:
    """Time each item's call, then check its answer; [kind, label, s, error].

    The reference work runs after any item that ends REF_EVERY_S or more of
    program time since the last reference call, and after the last item, so
    that the pass also says how fast the host ran while it went.  Where each
    item starts a process of its own, so does the reference.
    """
    timed = reference.timed_child if child_ref else reference.timed
    results, refs, since_ref = [], [], 0.0
    for idx, item in enumerate(items):
        if tracer is not None:
            tracer.item = idx
        t0 = perf_counter()
        try:
            out = item.call()
            error = None
        except Exception as exc:  # a failed item is counted, never fatal
            error = f"{item.label}: {type(exc).__name__}: {exc}"
        dur = perf_counter() - t0
        if tracer is not None:
            tracer.item = None
        if error is None:
            try:
                error = item.check(out)
            except Exception as exc:  # malformed output is a wrong answer
                error = f"{item.label}: checking raised {type(exc).__name__}: {exc}"
        results.append([item.kind, item.label, dur, error])
        since_ref += dur
        if since_ref >= REF_EVERY_S or idx == len(items) - 1:
            refs.append(timed())
            since_ref = 0.0
    unit = CHILD_REF_UNIT_S if child_ref else REF_UNIT_S
    return {"items": results, "refs": refs, "ref_unit_s": unit}


def worker(workload: str, seed: int, mode: str) -> None:
    """Set up, then run a pass for each "pass" line read from stdin.

    mode is "setup" (stop after set-up), "plain" or "traced".  Protocol
    lines go to the real stdout: "ready", one JSON object of results per
    pass, and a closing JSON report once stdin says "end".
    """
    import resource

    import workloads

    proto = sys.stdout
    setup, make_items, teardown = workloads.WORKLOADS[workload]
    ctx: dict = {}
    setup(ctx)
    print("ready", file=proto, flush=True)
    if mode == "setup":
        return
    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        ctx["tracer"] = tracer
    items, results = [], {}
    while sys.stdin.readline().strip() == "pass":
        items = make_items(ctx, random.Random(seed))
        results = _run_items(items, tracer, workload in workloads.SPAWNS_PROCESSES)
        print(json.dumps(results), file=proto, flush=True)
    if teardown is not None:
        teardown(ctx)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report = {"rss_kb": rss_kb, "extra": ctx.get("extra", {})}
    if tracer is not None:
        report["trace"] = _trace_report(tracer, items, results["items"], workload, seed)
    print(json.dumps(report), file=proto, flush=True)


def _trace_report(tracer, items, results, workload: str, seed: int) -> dict:
    import tracing

    spans = tracer.finish()
    summary = tracing.summarize(spans)
    # Self time by layer for each kind of item, and the heaviest functions
    # of each item, so one pass can say where each kind of request went.
    by_kind: dict[str, dict] = {}
    per_item = {}
    for idx, item in enumerate(items):
        own = tracing.summarize(spans, idx)
        entry = by_kind.setdefault(item.kind, {"items": 0, "wall_s": 0.0, "layers": {}})
        entry["items"] += 1
        entry["wall_s"] += results[idx][2]
        for layer in tracing.MODULES:
            entry["layers"][layer] = entry["layers"].get(layer, 0.0) + own["self_s"].get(layer, 0.0)
        top = sorted(((v, k) for k, v in own["self_s"].items() if "." in k), reverse=True)[:3]
        per_item.setdefault(item.label, [
            {"function": k, "self_s": round(v, 4), "calls": own["calls"].get(k, 0)} for v, k in top
        ])
    summary["by_kind"] = by_kind
    summary["per_item_top"] = per_item
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench", f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "labels": [i.label for i in items],
                   "summary": summary, "spans": spans}, fh)
    summary["spans_file"] = os.path.relpath(path, ROOT)
    summary["span_count"] = len(spans)
    return summary


# ------------------------------------------------------------------ launcher


class WorkerFailed(RuntimeError):
    pass


class Worker:
    """A worker process; its set-up time is measured from spawn to "ready"."""

    def __init__(self, workload: str, seed: int, mode: str, deadline: float) -> None:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--worker", mode]
        self.name = workload
        t0 = perf_counter()
        # Its own process group, so that killing it also kills its CLI children.
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)
        # A worker that hangs is killed, which ends any read from it.
        self.watchdog = threading.Timer(max(1.0, deadline - t0), self.kill)
        self.watchdog.start()
        try:
            self._expect("ready")
        except WorkerFailed:
            self.close()
            raise
        self.setup_s = perf_counter() - t0

    def _read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise WorkerFailed(f"{self.name} worker exited {self.proc.returncode} "
                               f"before reporting")
        return line

    def _expect(self, want: str) -> None:
        if self._read().strip() != want:
            raise WorkerFailed(f"{self.name} worker sent an unexpected line")

    def kill(self) -> None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)

    def run_pass(self) -> dict:
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        return json.loads(self._read())

    def finish(self) -> dict:
        self.proc.stdin.write("end\n")
        self.proc.stdin.flush()
        report = json.loads(self._read())
        self.close()
        return report

    def close(self) -> None:
        """Stop the worker if it still runs, and wait until it has ended."""
        self.watchdog.cancel()
        if self.proc.poll() is None:
            with contextlib.suppress(OSError):
                self.proc.stdin.close()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.kill()
                self.proc.wait()
        if self.proc.returncode != 0:
            raise WorkerFailed(f"{self.name} worker exited {self.proc.returncode}")


def start_worker(workload: str, seed: int, mode: str, deadline: float):
    """A new worker, and its set-up time in reference seconds.

    A set-up starts a process, so the reference that scales it does too; it
    runs just before the spawn and just after "ready", and the two are
    averaged.
    """
    before = reference.timed_child()
    worker = Worker(workload, seed, mode, deadline)
    try:
        ref = (before + reference.timed_child()) / 2
    except BaseException:
        worker.close()
        raise
    return worker, worker.setup_s * CHILD_REF_UNIT_S / ref


def time_setup(workload: str, seed: int, deadline: float) -> float:
    worker, setup_s = start_worker(workload, seed, "setup", deadline)
    worker.close()
    return setup_s


def _pass_wall(p: dict) -> float:
    return sum(r[2] for r in p["items"])


def scaled_times(p: dict) -> list[float]:
    """A pass's item times in reference seconds."""
    factor = p["ref_unit_s"] / statistics.median(p["refs"])
    return [r[2] * factor for r in p["items"]]


def end_to_end(workload: str, seed: int, seconds: float):
    """Passes of one worker for about `seconds`, with set-ups between them.

    Set-up is timed in fresh workers spread over the run, so that their
    median does not hang on one moment of the host's speed.  They take about
    a quarter of the run, and there are at least MIN_SETUPS of them.  The
    first pass can pay for lazy set-up inside the program, so the fastest
    pass so far is what the next one is expected to take.
    """
    start = perf_counter()
    deadline = start + WORKER_TIMEOUT
    worker, setup_s = start_worker(workload, seed, "plain", deadline)
    try:
        setups = [setup_s]
        target = min(MAX_SETUPS, max(MIN_SETUPS, round(SETUP_SHARE * seconds / worker.setup_s)))
        passes, pass_s = [], math.inf
        while True:
            t_pass = perf_counter()
            passes.append(worker.run_pass())
            pass_s = min(pass_s, perf_counter() - t_pass)
            progress = min(1.0, (perf_counter() - start) / seconds)
            while len(setups) < 1 + (target - 1) * progress:
                setups.append(time_setup(workload, seed, deadline))
            still_owed = (target - len(setups)) * statistics.median(setups)
            if perf_counter() - start + pass_s + still_owed > seconds:
                break
        report = worker.finish()
    finally:
        worker.close()
    while len(setups) < target:
        setups.append(time_setup(workload, seed, deadline))
    # An item's cost is its median over the passes, in reference seconds.
    scaled = [scaled_times(p) for p in passes]
    cost = [statistics.median(times) for times in zip(*scaled)]
    values = {
        "wall_s": sum(cost),
        "setup_s": statistics.median(setups),
        "item_p50_ms": 1000 * percentile(cost, 0.5),
        "item_p90_ms": 1000 * percentile(cost, 0.9),
        "peak_rss_mb": report["rss_kb"] / 1024,
    }
    refs = [1000 * statistics.median(p["refs"]) for p in passes]  # ms
    print(f"{workload}: {len(passes)} passes of {len(cost)} items "
          f"(pass walls {', '.join(f'{_pass_wall(p):.2f}' for p in passes)} s; "
          f"reference call {min(refs):.1f}-{max(refs):.1f} ms), "
          f"{len(setups)} set-ups (median {values['setup_s']:.3f} ref s) in "
          f"{perf_counter() - start:.1f} s", file=sys.stderr)
    return values, [p["items"] for p in passes]


def one_pass(workload: str, seed: int, mode: str):
    worker = Worker(workload, seed, mode, perf_counter() + WORKER_TIMEOUT / 2)
    try:
        results = worker.run_pass()
        report = worker.finish()
    finally:
        worker.close()
    return results, report


def per_layer(workload: str, seed: int):
    plain_pass, _ = one_pass(workload, seed, "plain")
    traced_pass, report = one_pass(workload, seed, "traced")
    plain, traced = plain_pass["items"], traced_pass["items"]
    summary, extra = report["trace"], report["extra"]
    values = {}
    for name in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = summary["calls"].get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = summary["self_s"].get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = summary["counters"].get(name, 0)

    fills = [r[2] for r in plain if r[0] == "fill"]
    rereads = [r[2] for r in plain if r[0] == "reread"]
    values["cli.fill_s"] = sum(fills)  # the fill is split over several calls
    values["cli.reread_s"] = statistics.median(rereads) if rereads else 0
    values["cli.cache_file_bytes"] = extra.get("cli.cache_file_bytes", 0)
    starts = extra.get("process_start", [])
    values["cli.process_start_s"] = statistics.median(starts) if starts else 0
    values["trace.wall_s"] = _pass_wall(traced_pass)
    values["trace.overhead_s"] = _pass_wall(traced_pass) - _pass_wall(plain_pass)
    values["host.ref_ms"] = 1000 * statistics.median(plain_pass["refs"] + traced_pass["refs"])
    _print_trace(workload, values, summary)
    return values, [plain, traced]


def _print_trace(workload: str, values: dict, summary: dict) -> None:
    wall = values["trace.wall_s"]
    print(f"{workload} traced pass: {wall:.3f} s, tracing overhead "
          f"{values['trace.overhead_s']:+.3f} s against the untraced pass; "
          f"{summary['span_count']} spans in {summary['spans_file']}", file=sys.stderr)
    for kind, entry in summary["by_kind"].items():
        layers = sorted(((v, k) for k, v in entry["layers"].items()), reverse=True)
        outside = entry["wall_s"] - sum(entry["layers"].values())
        shares = ", ".join(f"{k} {v:.3f}" for v, k in layers if v >= 0.0005)
        print(f"  {kind} ({entry['items']} items, {entry['wall_s']:.3f} s): top layer "
              f"{layers[0][1]}; self s by layer: {shares}; outside any span {outside:.3f}",
              file=sys.stderr)
    heaviest = sorted(summary["self_s"].items(), key=lambda kv: -kv[1])
    for name, self_s in [kv for kv in heaviest if "." in kv[0]][:6]:
        print(f"  {name:<40} {summary['calls'].get(name, 0):7d} calls {self_s:8.3f} s self",
              file=sys.stderr)
    builds = sorted(summary["builds_by_modulus"].items(), key=lambda kv: (-kv[1], -int(kv[0])))
    print(f"  weight-set builds inside timed items, most built moduli first "
          f"(modulus: builds): {dict(builds[:8])}", file=sys.stderr)


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    Only one of them runs at a time, and on a shared host the CPUs can run
    at different speeds.  A process placed on either would make set-ups and
    CLI calls, and the references that scale them, land on a faster or a
    slower CPU by chance.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("setup", "plain", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "wzs", "__init__.py")):
        print(f"perfbench: no wzs sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.worker:
        worker(args.workload, args.seed, args.worker)
        return 0
    pin_to_one_cpu()
    try:
        if args.trace:
            values, passes = per_layer(args.workload, args.seed)
            units = PER_LAYER
        else:
            values, passes = end_to_end(args.workload, args.seed, args.seconds)
            units = END_TO_END
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failures = [r[3] for p in passes for r in p if r[3] is not None]
    attempted = sum(len(p) for p in passes)
    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    if not args.trace:
        for name, value in values.items():
            print(f"  {name:<12} {value:12.4f} {units[name]}", file=sys.stderr)
    print(f"  failed {len(failures)} of {attempted} items", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
