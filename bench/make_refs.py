#!/usr/bin/env python3
"""Rebuild bench/refs/<workload>.json: the output fingerprint of every input a
workload can draw, computed by the library in the checkout's `src/`.

    PYTHONPATH=src python3 bench/make_refs.py [WORKLOAD ...]

Run it only when the library's outputs are meant to change; the benchmark
counts every op whose fingerprint differs from these references as failed.
A reference is written only for an output that passes the workload's checks.
"""

from __future__ import annotations

import json
import sys

import workloads


def references(workload):
    items = workloads.universe(workload)
    wl = workloads.KINDS[workload](items)
    wl.prepare()
    wl.start_pass()
    refs = {}
    for item in items:
        fingerprint, problem = wl.check(item, wl.op(item))
        if problem is not None:
            raise SystemExit(f"{workload} {item.key}: {problem}")
        refs[item.key] = fingerprint
    return refs


def main(argv):
    for workload in argv or workloads.WORKLOADS:
        refs = references(workload)
        with open(workloads.refs_path(workload), "w") as fh:
            json.dump(refs, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(refs)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
