#!/usr/bin/env python3
"""Benchmark of the affinecodes library and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`.  NAME is one of kschur_oneshot, kschur_split_sweep,
codes_insert, or `all` to run each in turn and print a table.

Each workload runs single-client and closed-loop in its own fresh
interpreter.  With --trace 0 the result holds the end-to-end metrics:
set-up time (median over fresh interpreters spread over the run), throughput and
latency p50/p90 over the pool's inputs (at least 100), each input timed at the
fastest of its passes, and peak RSS.  With --trace 1 it holds the per-layer
metrics of one traced pass, measured after two untraced passes rather than for
--seconds, and writes the spans to bench/out/.  Lines starting with
`#` describe the run; the last line of stdout is the JSON result.  The exit
status is 0 when every op's output matched its reference, 1 when one did not
or a worker failed, 2 when the checkout has no library to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("kschur_oneshot", "kschur_split_sweep", "codes_insert")

# Every run must end within 180 s; leave room to stop a stuck worker.
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def source_digest():
    """sha256 over the library's source files, naming the code under test."""
    h = hashlib.sha256()
    package = os.path.join(SRC, "affinecodes")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _lines(proc, deadline):
    """Yield (line, time.perf_counter() when it arrived) from a worker's stdout
    until it closes."""
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise WorkerFailed("worker ran past the deadline")
        chunk = os.read(fd, 1 << 16)
        arrived = time.perf_counter()
        if not chunk:
            if buf:
                yield buf.decode(), arrived
            return
        *lines, buf = (buf + chunk).split(b"\n")
        for line in lines:
            yield line.decode(), arrived


def run_worker(args, deadline, setup_only=False, between_passes=None):
    """Start one worker; returns (seconds until READY, parsed result or None).

    With between_passes, the worker waits after each timed pass while it runs.
    """
    # -S: the worker needs only the standard library and src/, and site
    # start-up work would add time and noise that is not the library's.
    cmd = [
        sys.executable, "-S", WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    elif between_passes:
        cmd.append("--pause")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    setup_s = result = None
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stdin=subprocess.PIPE if between_passes else subprocess.DEVNULL,
    )
    try:
        for line, arrived in _lines(proc, deadline):
            if setup_s is None:
                if line != "READY":
                    break
                setup_s = arrived - start
            elif line == "PASS":
                between_passes()
                try:
                    proc.stdin.write(b"\n")
                    proc.stdin.flush()
                except BrokenPipeError:  # the worker died; its status says so
                    pass
            else:
                result = line
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        for stream in (proc.stdout, proc.stdin):
            if stream:
                stream.close()
    if proc.returncode != 0 or setup_s is None:
        raise WorkerFailed(f"worker exited with status {proc.returncode}")
    if setup_only:
        return setup_s, None
    if result is None:
        raise WorkerFailed("worker printed no result")
    return setup_s, json.loads(result)


def run_workload(args, deadline):
    """Result dict for one workload: correct, attempted, failed, metrics, info.

    Set-up time is the median over the measured worker's own set-up and one
    fresh set-up after each of its passes: the host's speed changes over
    seconds, so samples spread over the run are steadier than a burst of them.
    """
    if args.trace:
        return run_worker(args, deadline)[1]
    setups = []
    setup_s, result = run_worker(
        args, deadline,
        between_passes=lambda: setups.append(run_worker(args, deadline, setup_only=True)[0]),
    )
    setups.append(setup_s)
    result["metrics"] = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        **result["metrics"],
    }
    result["info"]["setup_samples"] = len(setups)
    return result


def describe(workload, result):
    info = result["info"]
    print(f"# workload {workload}")
    print(f"# env {json.dumps(info['env'], sort_keys=True)}")
    print(f"# inputs {json.dumps(info['inputs'], sort_keys=True)}")
    print(
        f"# ops attempted {result['attempted']}, failed {result['failed']}, "
        f"passes {info['passes']}, latency samples {info['latency_samples']}"
        + (f", set-up samples {info['setup_samples']}" if "setup_samples" in info else "")
    )
    print(f"# failed_frac = {info['failed_frac']:.6g} frac")
    for name, bases in sorted(info.get("bases", {}).items()):
        print(f"# base {name}: {bases}")
    for problem in info["problems"]:
        print(f"# problem {problem.strip()}")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="affinecodes benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="seconds of op time the timed phase measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "affinecodes", "__init__.py")):
        print(f"error: no library at {SRC}/affinecodes to benchmark", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    code = {"commit": git_commit(), "src_sha256": source_digest()}
    print(f"# code {json.dumps(code)}")
    results = {}
    for workload in workloads:
        try:
            results[workload] = run_workload(
                argparse.Namespace(**{**vars(args), "workload": workload}), deadline
            )
        except WorkerFailed as err:
            print(f"error: {workload}: {err}", file=sys.stderr)
            return 1
        describe(workload, results[workload])

    if args.workload == "all":
        metrics = {
            f"{workload}.{name}": metric
            for workload, result in results.items()
            for name, metric in result["metrics"].items()
        }
    else:
        metrics = results[args.workload]["metrics"]
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
