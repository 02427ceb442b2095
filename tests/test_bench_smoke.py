"""Fingerprint smoke test of the benchmark's workloads: `pytest -m bench`.

Runs each workload's op and checks on its smallest inputs, and codes_insert's
also on its longest, and compares every output fingerprint with
`bench/refs/<workload>.json`.  The smallest inputs run once more under
`bench/tracer.py`, as `bench/run.py --trace 1` runs them, so that a library
name the tracer wraps cannot disappear unnoticed.  No timings are checked;
the benchmark itself is `python3 bench/run.py`.
"""

import importlib.util
import os
import sys

import pytest

import affinecodes.codes

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SMOKE_INPUTS = 20
LONGEST_CODES_INPUTS = 3


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, os.path.join(BENCH_DIR, filename))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("bench_workloads", "workloads.py")
tracer = _load("bench_tracer", "tracer.py")


def _check_against_refs(workload, items, run=lambda op, item: op(item)):
    refs = workloads.load_refs(workload)
    wl = workloads.KINDS[workload](items)
    wl.prepare()
    wl.start_pass()
    for item in items:
        fingerprint, problem = wl.check(item, run(wl.op, item))
        assert problem is None, (item.key, problem)
        assert fingerprint == refs[item.key], item.key


def _by_size(workload):
    return sorted(workloads.universe(workload), key=lambda item: (item.size, item.key))


@pytest.mark.bench
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_inputs_match_reference_fingerprints(workload):
    _check_against_refs(workload, _by_size(workload)[:SMOKE_INPUTS])


@pytest.mark.bench
def test_longest_codes_inputs_match_reference_fingerprints():
    """The longest words reach the many-row insertion the smallest never do."""
    _check_against_refs("codes_insert", _by_size("codes_insert")[-LONGEST_CODES_INPUTS:])


@pytest.mark.bench
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smallest_inputs_match_reference_fingerprints(workload):
    """Installing the tracer looks up every method it lists by name, and
    leaving it puts the library's own functions back."""
    original = affinecodes.codes.affine_code
    traced = tracer.Tracer()
    with traced.installed():
        assert affinecodes.codes.affine_code is not original
        _check_against_refs(
            workload,
            _by_size(workload)[:SMOKE_INPUTS],
            run=lambda op, item: traced.run_op(op, item)[0],
        )
    assert affinecodes.codes.affine_code is original
    assert len(traced.ops) == SMOKE_INPUTS
