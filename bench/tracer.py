"""Call tracing for the benchmark's traced run, installed from outside the library.

`Tracer.installed()` replaces each layer's public functions, and the methods
listed in METHODS, with timing wrappers: in the defining module, in every
`affinecodes` module that imported the function by name, and on the class.
Leaving the block puts every original back.

Each wrapper charges its call to a metric name such as `nilcox.h`: a call
count and self time (its wall time minus that of wrapped calls it made).
Calls that enter one of SPAN_LAYERS from another layer, and every op, are
also kept as spans with a parent id.  `permutations` and `cyclic` run 1e5 to
1e6 leaf calls per k-Schur op, so they keep only the aggregates.

Wrappers time nothing outside `run_op`, so output checks between ops are
not traced.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("permutations", "cyclic", "codes", "insertion", "shapes", "nilcox", "cli")
SPAN_LAYERS = frozenset({"codes", "insertion", "shapes", "nilcox", "cli"})
ROOT = "bench"

# Class methods to wrap, by module and class, with the name each reports as.
# Left unwrapped: __init__, __eq__ and __hash__ of AffinePermutation and
# value_at, which run inside every other method's loops, and the NilCoxSum
# read-out accessors support and coefficient, so that reading a result out
# counts to the caller (the CLI's sort and JSON output count as cli time).
METHODS = {
    ("permutations", "AffinePermutation"): {
        "from_window": "from_window",
        "identity": "identity",
        "simple": "simple",
        "from_word": "from_word",
        "inverse": "inverse",
        "position_of": "position_of",
        "__mul__": "mul",
        "times_s": "times_s",
        "s_times": "s_times",
        "right_descents": "right_descents",
        "left_descents": "left_descents",
        "length": "length",
        "is_identity": "is_identity",
        "dynkin_rotate": "dynkin_rotate",
    },
    ("nilcox", "NilCoxSum"): {
        "one": "sum_one",
        "terms": "sum_terms",
        "is_zero": "sum_is_zero",
        "__add__": "sum_addsub",
        "__sub__": "sum_addsub",
        "__mul__": "sum_mul",
        "__eq__": "sum_eq",
    },
    ("codes", "CyclicDecomposition"): {
        "word": "decomposition_word",
        "element": "decomposition_element",
        "code": "decomposition_code",
    },
    ("insertion", "RecordingTableau"): {"as_dict": "tableau_as_dict"},
}

# The CLI's subcommand handlers and parser builder run only through main, and
# their time is reported as main's self time.
MODULE_FUNCTIONS = {"cli": ("main",)}


def layer_modules():
    return {layer: importlib.import_module(f"affinecodes.{layer}") for layer in LAYERS}


def _public_functions(layer, module):
    names = MODULE_FUNCTIONS.get(layer)
    for name, obj in vars(module).items():
        if names is not None and name not in names:
            continue
        if (
            inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not name.startswith("_")
        ):
            yield name, obj


def _k_schur_table(args, kwargs):
    """Pass k_schur an explicit table when it would make its own, as it does
    with table=None, so that the entries it adds can be counted."""
    table = args[2] if len(args) > 2 else kwargs.get("table")
    if table is None:
        table = {}
        args, kwargs = args[:2], {**kwargs, "table": table}
    return args, kwargs, (table, len(table))


class Tracer:
    """Aggregates, counters, spans and per-op layer self times of one run."""

    def __init__(self):
        self.stack = []
        self.stats = {}  # name -> [calls, self seconds]
        self.counters = defaultdict(int)
        self.spans = []  # (id, parent id, name, start, end, self seconds)
        self.ops = []  # {"span", "wall_s", "layer_self_s"}
        self._restore = []
        self._after = {
            "insertion.insert": self._count_insert_steps,
            "nilcox.sum_mul": self._count_mul_pairs,
            "nilcox.weak_strip": self._count_strip_accepts,
            "nilcox.k_schur": self._count_table_entries,
        }
        self._before = {"nilcox.k_schur": _k_schur_table}

    # -- counters kept at the layer boundaries --------------------------------

    def _count_insert_steps(self, state, args, result):
        for _, action, _ in result[1].steps:
            self.counters[f"insertion.steps.{action}"] += 1

    def _count_mul_pairs(self, state, args, result):
        left, right = args
        if isinstance(result, type(left)) and isinstance(right, type(left)):
            self.counters["nilcox.sum_mul.pairs"] += len(left) * len(right)
            self.counters["nilcox.sum_mul.terms"] += len(result)

    def _count_strip_accepts(self, state, args, result):
        self.counters["nilcox.weak_strip.accepted"] += bool(result)

    def _count_table_entries(self, state, args, result):
        table, before = state
        self.counters["nilcox.table_entries"] += len(table) - before

    # -- wrappers --------------------------------------------------------------

    def wrap(self, fn, name):
        """A wrapper charging fn's calls to `name` while an op is running."""
        layer = name.split(".", 1)[0]
        spanned = layer in SPAN_LAYERS
        stat = self.stats.setdefault(name, [0, 0.0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        before, after = self._before.get(name), self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            parent = stack[-1]
            own = spanned and parent[1] != layer
            if own:
                frame = [0.0, layer, len(spans)]
                spans.append(None)
            else:
                frame = [0.0, layer, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if own:
                    spans[frame[2]] = (frame[2], parent[2], name, start, end, elapsed - frame[0])
            if after is not None:
                after(state, args, result)
            return result

        return wrapper

    def install(self):
        modules = layer_modules()
        replaced = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for name, fn in _public_functions(layer, module):
                replaced[id(fn)] = (fn, self.wrap(fn, f"{layer}.{name}"))
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for attr, metric in names.items():
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, f"{layer}.{metric}"))
                else:
                    new = self.wrap(raw, f"{layer}.{metric}")
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, new)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "affinecodes" and not mod_name.startswith("affinecodes."):
                continue
            for name, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, name, obj))
                    setattr(module, name, hit[1])

    def restore(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.restore()

    # -- ops -------------------------------------------------------------------

    def run_op(self, fn, *args):
        """Run one op as a root span; returns (result, wall seconds)."""
        stats = self.stats
        self_before = {name: s[1] for name, s in stats.items()}
        root = [0.0, ROOT, len(self.spans)]
        self.spans.append(None)
        self.stack.append(root)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            wall = end - start
            layer_self = defaultdict(float)
            layer_self[ROOT] = wall - root[0]
            for name, s in stats.items():
                spent = s[1] - self_before.get(name, 0.0)
                if spent:
                    layer_self[name.split(".", 1)[0]] += spent
            self.spans[root[2]] = (root[2], -1, "bench.op", start, end, wall - root[0])
            self.ops.append({"span": root[2], "wall_s": wall, "layer_self_s": dict(layer_self)})
        return result, wall
