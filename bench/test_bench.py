"""Tests of the benchmark itself: PYTHONPATH=src python3 -m pytest bench -q"""

from __future__ import annotations

import sys

import pytest

import workloads
from tracer import LAYERS, METHODS, ROOT, Tracer, layer_modules
from worker import MIN_POOL

# Per op, the layers' self times plus the harness's own must add up to the
# op's wall time within this share of it.
SELF_TIME_TOLERANCE = 0.01


def small_items(workload, count=6):
    items = sorted(workloads.universe(workload), key=lambda item: (item.size, item.key))
    return items[:count]


def namespaces():
    """Every affinecodes module namespace and wrapped class dict, copied."""
    spaces = {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "affinecodes" or name.startswith("affinecodes.")
    }
    modules = layer_modules()
    for layer, cls_name in METHODS:
        spaces[cls_name] = dict(vars(getattr(modules[layer], cls_name)))
    return spaces


def assert_identical(before, after):
    assert before.keys() == after.keys()
    for space, names in before.items():
        assert names.keys() == after[space].keys(), space
        for name, obj in names.items():
            assert after[space][name] is obj, f"{space}.{name}"


def test_wrappers_install_and_restore_every_namespace():
    import affinecodes
    from affinecodes import cli, nilcox, shapes

    original_to_core = shapes.to_core
    before = namespaces()
    tracer = Tracer()
    with tracer.installed():
        # functions imported by name elsewhere are wrapped there too
        assert nilcox.to_core is not original_to_core
        assert nilcox.to_core is shapes.to_core
        assert cli.k_schur is nilcox.k_schur is affinecodes.k_schur
        assert cli.k_schur.__wrapped__ is before["affinecodes.nilcox"]["k_schur"]
        during = namespaces()
        assert during["AffinePermutation"]["from_word"] is not before["AffinePermutation"]["from_word"]
        # outside an op the wrappers record nothing
        affinecodes.k_schur(3, (2, 1))
        assert all(calls == 0 for calls, _ in tracer.stats.values())
    assert_identical(before, namespaces())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_sum_to_op_wall_time(workload):
    items = small_items(workload)
    wl = workloads.KINDS[workload](items)
    wl.prepare()
    tracer = Tracer()
    with tracer.installed():
        wl.start_pass()
        for item in items:
            tracer.run_op(wl.op, item)
    assert len(tracer.ops) == len(items)
    for op in tracer.ops:
        assert set(op["layer_self_s"]) <= set(LAYERS) | {ROOT}
        assert all(spent >= 0 for spent in op["layer_self_s"].values())
        total = sum(op["layer_self_s"].values())
        assert abs(total - op["wall_s"]) <= SELF_TIME_TOLERANCE * op["wall_s"]
    for span in tracer.spans:
        span_id, parent, name, start, end, self_s = span
        assert parent == -1 or 0 <= parent < span_id
        assert start <= end and 0 <= self_s <= end - start + 1e-9
        assert name.split(".", 1)[0] not in ("permutations", "cyclic")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_covered_by_references(workload):
    first = workloads.generate(workload, 11)
    assert len(first) >= MIN_POOL
    assert first == workloads.generate(workload, 11)
    assert first != workloads.generate(workload, 12)
    refs = workloads.load_refs(workload)
    assert all(item.key in refs for item in first)
    if workload == "codes_insert":
        from affinecodes import AffinePermutation

        for item in first[:10]:
            x = AffinePermutation.from_word(item.k, item.data)
            assert x.window == item.window and x.length() == len(item.data)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_fingerprints_equal_untraced_and_references(workload):
    items = small_items(workload)
    refs = workloads.load_refs(workload)

    def fingerprints(run_op):
        wl = workloads.KINDS[workload](items)
        wl.prepare()
        wl.start_pass()
        found = []
        for item in items:
            fingerprint, problem = wl.check(item, run_op(wl.op, item))
            assert problem is None
            found.append(fingerprint)
        return found

    untraced = fingerprints(lambda op, item: op(item))
    tracer = Tracer()
    with tracer.installed():
        traced = fingerprints(lambda op, item: tracer.run_op(op, item)[0])
    assert traced == untraced == [refs[item.key] for item in items]
