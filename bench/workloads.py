"""The benchmark's three workloads: seeded inputs, the op each one times, and
the checks every op's output must pass.

Inputs are a pure function of (workload, seed) and are built without calling
the library under test, except that the split sweep asks the library which
cores split.  Each workload has a fixed universe of inputs, and the seed sets
the order a pass runs them in; `refs/<workload>.json` holds the fingerprint of
each input's output.  `make_refs.py` rebuilds those files.

Why these workloads:

* kschur_oneshot -- one CLI request per op (`kschur --mode expand`), so each
  op rebuilds its Pieri table from scratch and the h x sum nil product
  dominates; no `codes` or `insertion` code runs.
* kschur_split_sweep -- `verify_split_product` over every split shape of the
  stated sizes, smallest first, sharing one table per rank across the sweep,
  so ops share work and the products are k-Schur x k-Schur; at small k
  `shapes` is a large share.
* codes_insert -- decompositions, the four codes and insertion of one random
  reduced word per op; no nil product runs.  Peeling dominates short words and
  per-letter row rebuilding dominates long ones.

Op costs within one size class span two orders of magnitude, and the cost of
a long word's insertion varies by 10-20% between random words of one rank and
length.  So the k-Schur universes hold every partition of the stated sizes and
the codes universe one fixed random word per (rank, length) stratum: a seed
changes the order of a pass, not the work it holds.  Each universe holds at
least 100 inputs, so that a p90 over them leaves ten above it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
from dataclasses import dataclass

import affinecodes
import affinecodes.cli

WORKLOADS = ("kschur_oneshot", "kschur_split_sweep", "codes_insert")

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

# kschur_oneshot: every k-bounded partition of these sizes, plus the k=6
# staircase, which alone is about half of a pass.
ONESHOT_SIZES = {4: range(3, 9), 5: range(3, 8), 6: range(3, 6)}
STAIRCASE = (6, (6, 5, 4, 3, 2, 1))

# kschur_split_sweep: every k-bounded partition of these sizes whose
# (k+1)-core splits, plus one larger k=5 case.
SWEEP_SIZES = {3: range(4, 14), 4: range(5, 12)}
SWEEP_EXTRA = (5, (4, 4, 3, 2, 2, 1, 1, 1))

# codes_insert: each of CODES_STRATA strata fixes a rank and a word length,
# the lengths log-spread from CODES_MIN_LEN to CODES_MAX_LEN letters and the
# ranks taking turns, and holds one fixed random word.
CODES_STRATA = 102
CODES_MIN_LEN = 10
CODES_MAX_LEN = 600
CODES_RANKS = range(3, 9)
LONG_WORD = 200

CODE_KINDS = (
    ("rd", affinecodes.DECREASING, "right"),
    ("ri", affinecodes.INCREASING, "right"),
    ("ld", affinecodes.DECREASING, "left"),
    ("li", affinecodes.INCREASING, "left"),
)


@dataclass(frozen=True)
class Item:
    """One op's input: a partition or a reduced word, with its reference key
    and its size in cells or letters.

    For codes_insert, `window` is the element of the word, computed by the
    generator's own arithmetic so that the library's result can be checked.
    """

    key: str
    k: int
    data: tuple
    size: int
    window: tuple = ()


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def terms_fingerprint(pairs):
    """Term count plus a hash of the sorted (window, coefficient) pairs."""
    return f"{len(pairs)}:{digest(sorted(pairs))}"


def bounded_partitions(n, k, largest=None):
    """Partitions of n with parts at most k, largest first."""
    largest = k if largest is None else largest
    if n == 0:
        yield ()
        return
    for p in range(min(n, largest), 0, -1):
        for rest in bounded_partitions(n - p, k, p):
            yield (p,) + rest


def _partition_item(k, parts):
    return Item(f"{k}:{','.join(map(str, parts))}", k, tuple(parts), sum(parts))


def _reduced_walk(k, length, rng):
    """A reduced word of the given length: each letter is a right ascent.

    Works on the window directly (x(0) = x(k+1) - (k+1)), independently of
    the library, and returns the word with its element's window.
    """
    n = k + 1
    w = list(range(1, n + 1))
    word = []
    for _ in range(length):
        ascents = [i for i in range(n) if (w[i - 1] - n if i == 0 else w[i - 1]) < w[i]]
        i = rng.choice(ascents)
        if i == 0:
            w[0], w[n - 1] = w[n - 1] - n, w[0] + n
        else:
            w[i - 1], w[i] = w[i], w[i - 1]
        word.append(i)
    return tuple(word), tuple(w)


def codes_item(stratum):
    """The fixed word of one stratum of the codes universe."""
    rng = random.Random(f"codes_insert/{stratum}")
    k = CODES_RANKS[stratum % len(CODES_RANKS)]
    ratio = CODES_MAX_LEN / CODES_MIN_LEN
    length = round(CODES_MIN_LEN * ratio ** (stratum / (CODES_STRATA - 1)))
    word, window = _reduced_walk(k, length, rng)
    return Item(str(stratum), k, word, length, window)


def _splits(k, parts):
    core = affinecodes.to_core(k, parts)
    return len(affinecodes.split_components(k, core)) > 1


def universe(workload):
    """Every input the workload can draw, in a fixed order."""
    if workload == "kschur_oneshot":
        items = [
            _partition_item(k, p)
            for k, sizes in ONESHOT_SIZES.items()
            for n in sizes
            for p in bounded_partitions(n, k)
        ]
        return items + [_partition_item(*STAIRCASE)]
    if workload == "kschur_split_sweep":
        items = [
            _partition_item(k, p)
            for k, sizes in SWEEP_SIZES.items()
            for n in sizes
            for p in bounded_partitions(n, k)
            if _splits(k, p)
        ]
        return items + [_partition_item(*SWEEP_EXTRA)]
    if workload == "codes_insert":
        return [codes_item(j) for j in range(CODES_STRATA)]
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload, seed):
    """The pool for (workload, seed), in the order every pass runs it."""
    items = universe(workload)
    random.Random(f"{workload}:{seed}").shuffle(items)
    if workload == "kschur_split_sweep":
        # Smaller shapes first, seeded order within a size: an op's cost then
        # depends on its own shape, not on which larger shape came before it
        # and filled the table; in a fully seeded order the p90 of a pass
        # moves by +-20% with the seed.
        items.sort(key=lambda item: item.size)
    return items


def warm_up_item(items):
    """The first of the smallest inputs, for the untimed set-up op."""
    return min(items, key=lambda item: item.size)


def summarize(workload, items):
    """Op count, k mix, size quartiles and the long-word share of a pool."""
    sizes = [item.size for item in items]
    ks = [item.k for item in items]
    summary = {
        "ops_per_pass": len(items),
        "k_share": {str(k): round(ks.count(k) / len(ks), 4) for k in sorted(set(ks))},
        "size_quartiles": [round(q, 1) for q in statistics.quantiles(sizes, n=4)],
        "size_min_max": [min(sizes), max(sizes)],
        "size_unit": "letters" if workload == "codes_insert" else "cells",
    }
    if workload == "codes_insert":
        summary[f"share_ge_{LONG_WORD}_letters"] = round(
            sum(s >= LONG_WORD for s in sizes) / len(sizes), 4
        )
    return summary


class Workload:
    """A pool of inputs, the op each pass times on them, and its checks."""

    def __init__(self, items):
        self.items = items
        self.output_bytes = 0  # CLI output written by this pass's ops

    def start_pass(self):
        """Reset per-pass state; called before every pass."""
        self.output_bytes = 0

    def prepare(self):
        """Untimed work the checks need, done once after set-up."""


class KSchurOneshot(Workload):
    """Each op is one in-process CLI `kschur --mode expand` request."""

    def __init__(self, items):
        super().__init__(items)
        self.expected = {}

    def argv(self, item):
        partition = ",".join(map(str, item.data))
        return ["kschur", "--mode", "expand", "--k", str(item.k),
                "--partition", partition, "--format", "json"]

    def op(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = affinecodes.cli.main(self.argv(item))
        text = buf.getvalue()
        self.output_bytes += len(text.encode())
        return status, json.loads(text) if status == 0 else None

    def prepare(self):
        for item in self.items:
            self.expected[item] = affinecodes.grassmannian_perm(item.k, item.data).window

    def check(self, item, out):
        """(fingerprint, problem): terms all of length |lambda|, and the
        Grassmannian element of lambda the only Grassmannian term, with
        coefficient 1."""
        status, payload = out
        if status != 0:
            return None, f"exit status {status}"
        pairs = [(tuple(t["window"]), t["coefficient"]) for t in payload["terms"]]
        grassmannian = []
        for window, coefficient in pairs:
            x = affinecodes.AffinePermutation(item.k, window)
            if x.length() != item.size:
                return None, f"term {window} has length {x.length()} != {item.size}"
            if x.right_descents() <= {0}:
                grassmannian.append((window, coefficient))
        if grassmannian != [(self.expected[item], 1)]:
            return None, f"Grassmannian terms {grassmannian}"
        return terms_fingerprint(pairs), None


class KSchurSplitSweep(Workload):
    """Each op is `verify_split_product` against a table shared by the sweep.

    The library keys table entries by partition alone, so the sweep keeps one
    table per rank.  Tables are emptied at the start of every pass so that
    each pass does the same work.
    """

    def start_pass(self):
        super().start_pass()
        self.tables = {}

    def op(self, item):
        table = self.tables.setdefault(item.k, {})
        factors, results = affinecodes.verify_split_product(item.k, item.data, table)
        return factors, results, table[item.data]

    def check(self, item, out):
        """(fingerprint, problem): every grouping of the factors matches."""
        factors, results, target = out
        failed = [blocks for blocks, match in results if not match]
        if failed or not results:
            return None, f"groupings {failed} do not match"
        pairs = [(x.window, c) for x, c in target.terms().items()]
        return f"{terms_fingerprint(pairs)}|{digest((factors, results))}", None


class CodesInsert(Workload):
    """Each op runs decompositions, codes and insertion on one reduced word."""

    def op(self, item):
        lib = affinecodes
        word = list(item.data)
        x = lib.AffinePermutation.from_word(item.k, word)
        from_decompositions = tuple(
            lib.canonical_decomposition(x, direction, side).code()
            for _, direction, side in CODE_KINDS
        )
        direct = tuple(lib.affine_code(x, variant) for variant, _, _ in CODE_KINDS)
        back = lib.code_to_permutation(direct[0])
        code, tableau = lib.insert_word(item.k, word)
        word_back = lib.reverse_insert(code, tableau)
        return x, from_decompositions, direct, back, code, tableau, word_back

    def check(self, item, out):
        """(fingerprint, problem): decomposition codes equal the window codes,
        code_to_permutation(rd(x)) == x, the insertion code is rd(x), and
        reverse insertion returns the word."""
        x, from_decompositions, direct, back, code, tableau, word_back = out
        if x.window != item.window:
            return None, f"window {x.window} != {item.window}"
        if from_decompositions != direct:
            return None, "decomposition codes differ from affine_code"
        if back != x:
            return None, "code_to_permutation(rd(x)) != x"
        if code != direct[0]:
            return None, "insert_word code != rd(x)"
        if word_back != list(item.data):
            return None, "reverse_insert did not return the word"
        return digest((direct, tableau.cells)), None


KINDS = {
    "kschur_oneshot": KSchurOneshot,
    "kschur_split_sweep": KSchurSplitSweep,
    "codes_insert": CodesInsert,
}


def build(workload, seed):
    return KINDS[workload](generate(workload, seed))


def refs_path(workload):
    return os.path.join(REFS_DIR, f"{workload}.json")


def load_refs(workload):
    with open(refs_path(workload)) as fh:
        return json.load(fh)
