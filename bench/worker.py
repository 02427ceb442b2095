"""One workload run in a fresh interpreter; `run.py` starts it.

Set-up is the import of `affinecodes` and `affinecodes.cli`, the seeded input
generation and one untimed warm-up op; the worker then prints READY, so the
parent can time set-up from process start.  With --setup-only it stops there.
With --pause it prints PASS after each timed pass and waits for a line on
stdin, so that the parent can time a fresh set-up while it waits.

The timed phase runs whole passes over the pool until the ops have taken
--seconds and at least MIN_PASSES passes have run.  With --trace 1 it runs
two untraced passes, and then one more pass runs under the tracer; its
fingerprints must equal the untraced ones.
The last line of stdout is a JSON object with the results.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import statistics
import sys
import time
import traceback

import workloads
from tracer import LAYERS, ROOT, Tracer

# Every input runs at least this often in an untraced timed phase.
MIN_PASSES = 3
# p90 must leave at least ten inputs above it.
MIN_POOL = 100
TRACE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# Per-layer metrics read off the tracer's aggregates, per op of the traced pass.
CALL_METRICS = (
    "permutations.mul", "permutations.length", "permutations.times_s",
    "permutations.right_descents", "permutations.from_word",
    "cyclic.d_element", "cyclic.d_word",
    "codes.canonical_decomposition", "codes.max_right_set", "codes.code_of",
    "insertion.insert",
    "shapes.to_core", "shapes.from_core", "shapes.k_conjugate_partition",
    "shapes.hook", "shapes.split_components",
    "nilcox.h", "nilcox.sum_mul", "nilcox.weak_strips", "nilcox.weak_strip",
    "nilcox.k_schur",
    "cli.main",
)
SELF_METRICS = (
    "permutations.mul", "permutations.length", "permutations.times_s",
    "permutations.right_descents",
    "codes.canonical_decomposition", "codes.max_right_set", "codes.affine_code",
    "codes.code_to_permutation", "codes.code_of",
    "insertion.insert", "insertion.insert_word", "insertion.reverse_insert",
    "shapes.to_core", "shapes.from_core", "shapes.k_conjugate_partition", "shapes.hook",
    "nilcox.h", "nilcox.sum_mul", "nilcox.sum_addsub", "nilcox.weak_strips",
    "cli.main",
)
STEP_ACTIONS = ("include", "bump", "braid")


def run_pass(wl, refs, run_op, latencies, fingerprints, problems):
    """One pass over the pool; returns the number of failed ops.

    run_op(op, item) returns (output, wall seconds); the wall time is appended
    to latencies[item.key].  An op fails when it
    raises, when its output fails the workload's checks, or when its
    fingerprint differs from the reference.
    """
    wl.start_pass()
    failed = 0
    for item in wl.items:
        try:
            out, wall = run_op(wl.op, item)
        except Exception:  # an op that raises is a failed op, not a crash
            failed += 1
            fingerprints.append((item.key, None))
            problems.append(f"{item.key}: {traceback.format_exc(limit=3)}")
            continue
        latencies.setdefault(item.key, []).append(wall)
        fingerprint, problem = wl.check(item, out)
        fingerprints.append((item.key, fingerprint))
        if problem is None and fingerprint != refs.get(item.key):
            problem = f"fingerprint {fingerprint} != reference {refs.get(item.key)}"
        if problem is not None:
            failed += 1
            problems.append(f"{item.key}: {problem}")
    return failed


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def timed_phase(wl, refs, seconds, min_passes, problems, pause=False):
    """Whole untraced passes until the ops have taken `seconds` and at least
    `min_passes` have run, pausing after each one if asked; returns
    (latencies by input key, first pass's fingerprints, failed, passes,
    seconds of the last pass)."""
    latencies, fingerprints = {}, []
    failed = passes = 0
    busy = last_pass_s = 0.0
    # Other tenants often slow one CPU while the other runs at full speed:
    # passes take turns on the CPUs, so that each input has passes on both.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    while busy < seconds or passes < min_passes:
        if cpus:
            os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
        pass_fingerprints = []
        before = busy
        failed += run_pass(wl, refs, timed, latencies, pass_fingerprints, problems)
        passes += 1
        busy = sum(map(sum, latencies.values()))
        last_pass_s = busy - before
        fingerprints = fingerprints or pass_fingerprints
        if not latencies:  # every op raised
            break
        if pause:
            print("PASS", flush=True)
            sys.stdin.readline()
    if cpus:
        os.sched_setaffinity(0, cpus)
    return latencies, fingerprints, failed, passes, last_pass_s


def end_to_end(latencies):
    """Throughput and latency percentiles over the pool's inputs, each input
    timed at the fastest of its passes.

    Other tenants of the host slow this process by up to 1.7x in spells of
    seconds to a minute; they only ever add time, so an input's fastest pass is the
    steady estimate of its cost.  Every pass does the same work on an input.
    """
    best = [min(walls) for walls in latencies.values()]
    return {
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "latency_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "latency_p90_ms": (
            statistics.quantiles(best, n=10, method="inclusive")[-1] * 1e3, "ms"
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, ops, untraced_s, output_bytes):
    """Per-op means over the traced pass, plus the tracing overhead."""
    stats, counters = tracer.stats, tracer.counters
    traced_s = sum(op["wall_s"] for op in tracer.ops)
    metrics = {}
    for name in CALL_METRICS:
        metrics[f"{name}.calls"] = (stats.get(name, [0, 0.0])[0] / ops, "calls/op")
    for name in SELF_METRICS:
        metrics[f"{name}.self_s"] = (stats.get(name, [0, 0.0])[1] / ops, "s/op")
    layer_self = {layer: 0.0 for layer in LAYERS + (ROOT,)}
    for op in tracer.ops:
        for layer, spent in op["layer_self_s"].items():
            layer_self[layer] += spent
    for layer, spent in layer_self.items():
        metrics[f"{layer}.self_s"] = (spent / ops, "s/op")
    steps = {a: counters[f"insertion.steps.{a}"] for a in STEP_ACTIONS}
    for action, count in steps.items():
        metrics[f"insertion.steps.{action}"] = (count / ops, "steps/op")
    inserts = stats.get("insertion.insert", [0])[0]
    metrics["insertion.steps_per_letter"] = (
        sum(steps.values()) / inserts if inserts else 0.0, "steps/letter"
    )
    pairs = counters["nilcox.sum_mul.pairs"]
    metrics["nilcox.sum_mul.pairs"] = (pairs / ops, "pairs/op")
    metrics["nilcox.sum_mul.yield"] = (
        counters["nilcox.sum_mul.terms"] / pairs if pairs else 0.0, "terms/pair"
    )
    strips = stats.get("nilcox.weak_strip", [0])[0]
    metrics["nilcox.weak_strip.accept_ratio"] = (
        counters["nilcox.weak_strip.accepted"] / strips if strips else 0.0, "frac"
    )
    metrics["nilcox.table_entries"] = (counters["nilcox.table_entries"] / ops, "entries/op")
    metrics["cli.output_bytes"] = (output_bytes / ops, "bytes/op")
    metrics["trace.ops"] = (ops, "ops")
    metrics["trace.op_s"] = (traced_s / ops, "s/op")
    metrics["trace.overhead_frac"] = (1 - untraced_s / traced_s, "frac")
    bases = {
        "nilcox.sum_mul.yield": f"{counters['nilcox.sum_mul.terms']} terms / {pairs} pairs",
        "nilcox.weak_strip.accept_ratio":
            f"{counters['nilcox.weak_strip.accepted']} accepted / {strips} calls",
        "insertion.steps_per_letter": f"{sum(steps.values())} steps / {inserts} letters",
        "trace.overhead_frac":
            f"1 - untraced {untraced_s:.4f} s / traced {traced_s:.4f} s for one pass",
    }
    return metrics, bases


def write_trace(path, env, tracer, metrics):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    payload = {
        "env": env,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "calls": {name: {"calls": s[0], "self_s": s[1]} for name, s in tracer.stats.items()},
        "counters": dict(tracer.counters),
        "ops": tracer.ops,
        "span_fields": ["id", "parent", "name", "start_s", "end_s", "self_s"],
        "spans": tracer.spans,
    }
    with gzip.open(path, "wt") as fh:
        json.dump(payload, fh)


def traced_pass(wl, refs, problems):
    """One pass under the tracer; returns (tracer, failed, fingerprints)."""
    tracer = Tracer()
    fingerprints = []
    with tracer.installed():
        failed = run_pass(wl, refs, tracer.run_op, {}, fingerprints, problems)
    return tracer, failed, fingerprints


def environment():
    import affinecodes

    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "library": os.path.dirname(affinecodes.__file__),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pause", action="store_true")
    args = parser.parse_args(argv)

    wl = workloads.build(args.workload, args.seed)
    assert len(wl.items) >= MIN_POOL, "the pool is too small for a p90"
    warm = workloads.warm_up_item(wl.items)
    wl.start_pass()
    wl.op(warm)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    refs = workloads.load_refs(args.workload)
    wl.prepare()
    problems = []
    # A traced run needs only an untraced pass to compare against; it is the
    # second, since the interpreter is still specialising code in the first.
    seconds = 0.0 if args.trace else args.seconds
    min_passes = 2 if args.trace else MIN_PASSES
    latencies, fingerprints, failed, passes, untraced_s = timed_phase(
        wl, refs, seconds, min_passes, problems, pause=args.pause
    )
    attempted = passes * len(wl.items)
    info = {
        "env": environment(),
        "inputs": workloads.summarize(args.workload, wl.items),
        "passes": passes,
        "latency_samples": sum(map(len, latencies.values())),
        "failed_frac": failed / attempted,
    }
    traced_fingerprints = fingerprints
    if args.trace:
        tracer, traced_failed, traced_fingerprints = traced_pass(wl, refs, problems)
        attempted += len(wl.items)
        failed += traced_failed
        metrics, info["bases"] = per_layer(
            tracer, len(wl.items), untraced_s, wl.output_bytes
        )
        info["trace_file"] = os.path.join(
            TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz"
        )
        write_trace(info["trace_file"], info["env"], tracer, metrics)
        if traced_fingerprints != fingerprints:
            problems.append("traced fingerprints differ from untraced ones")
    else:
        metrics = end_to_end(latencies)
    info["problems"] = problems[:5]
    result = {
        "correct": failed == 0 and traced_fingerprints == fingerprints,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "info": info,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
