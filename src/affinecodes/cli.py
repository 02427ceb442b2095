"""Command line front end.

Exit codes: 0 on success, 1 on usage or value errors and when the reader
closes standard output early (no traceback), 2 when a requested product or
insertion is zero (the input word is not reduced).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .codes import (
    affine_code,
    canonical_decomposition,
    code_to_permutation,
    k_conjugate_perm,
    rd,
    ri,
)
from .cyclic import normalize_ud
from .insertion import (
    NotReduced,
    count_reduced_words,
    enumerate_reduced_words,
    insert_word,
    reverse_insert,
)
from .nilcox import NilCoxSum, dominant_summand, k_schur, verify_split_product
from .permutations import AffinePermutation, is_reduced
from .shapes import (
    from_core,
    grassmannian_perm,
    k_conjugate_partition,
    split_components,
    to_core,
)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with status 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _ints(text):
    return [int(tok) for tok in text.replace(",", " ").split()]


def _element(parser, args, word_flag="--word", window_flag="--window"):
    """Build an element from --word or --window; returns (x, word_or_None)."""
    word = getattr(args, word_flag.strip("-").replace("-", "_"))
    window = getattr(args, window_flag.strip("-").replace("-", "_"))
    if (word is None) == (window is None):
        parser.error(f"give exactly one of {word_flag} or {window_flag}")
    if word is not None:
        if args.k is None:
            parser.error(f"{word_flag} needs --k")
        letters = _ints(word)
        return AffinePermutation.from_word(args.k, letters), letters
    values = _ints(window)
    x = AffinePermutation.from_window(values)
    if args.k is not None and args.k != x.k:
        parser.error(f"--k {args.k} disagrees with window of length {len(values)}")
    return x, None


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _partition(parser, args):
    if args.k is None:
        parser.error("--k is required")
    if args.partition is None:
        parser.error("--partition is required")
    return tuple(_ints(args.partition))


def cmd_decompose(parser, args):
    x, letters = _element(parser, args)
    if letters is not None and not is_reduced(x.k, letters):
        print("zero: the word is not reduced, the product vanishes", file=sys.stderr)
        return 2
    if x.is_identity():
        _emit(args, {"window": list(x.window), "factors": [], "code": [0] * x.n},
              ["identity: empty decomposition"])
        return 0
    decomp = canonical_decomposition(x, args.direction, args.side)
    code = decomp.code()
    factors = [sorted(row) for row in reversed(decomp.rows)]
    payload = {
        "window": list(x.window),
        "length": x.length(),
        "side": args.side,
        "direction": args.direction,
        "factors": factors,
        "sizes": [len(f) for f in factors],
        "word": decomp.word(),
        "code": list(code),
    }
    lines = [
        f"window: {list(x.window)}",
        f"length: {x.length()}",
        f"factors ({args.side} {args.direction}, leftmost first): "
        + " ".join("{" + ",".join(map(str, f)) + "}" for f in factors),
        f"sizes: {payload['sizes']}",
        f"word: {' '.join(map(str, payload['word']))}",
        f"code: {list(code)}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_code(parser, args):
    x, letters = _element(parser, args)
    if letters is not None and not is_reduced(x.k, letters):
        print("zero: the word is not reduced, the product vanishes", file=sys.stderr)
        return 2
    variants = ["rd", "ri", "ld", "li"] if args.mode == "all" else [args.mode]
    codes = {v: list(affine_code(x, v)) for v in variants}
    payload = {"window": list(x.window), "codes": codes}
    lines = [f"window: {list(x.window)}"]
    lines += [f"{v}: {codes[v]}" for v in variants]
    _emit(args, payload, lines)
    return 0


def cmd_equal(parser, args):
    x, _ = _element(parser, args)
    y, _ = _element(parser, args, "--word2", "--window2")
    if x.k != y.k:
        parser.error(f"ranks differ: {x.k} vs {y.k}")
    same = x == y
    payload = {"equal": same, "window": list(x.window), "window2": list(y.window)}
    _emit(args, payload, ["equal" if same else "different"])
    return 0


def cmd_insert(parser, args):
    if args.k is None or args.word is None:
        parser.error("insert needs --k and --word")
    letters = _ints(args.word)
    try:
        code, tableau = insert_word(args.k, letters)
    except NotReduced as stop:
        print(f"zero: word is not reduced at position {stop.position}", file=sys.stderr)
        return 2
    cells = sorted(tableau.cells, key=lambda cl: cl[1])
    payload = {
        "code": list(code),
        "labels": [{"column": c, "row": r, "label": lab} for (c, r), lab in cells],
    }
    lines = [f"code: {list(code)}"]
    lines += [f"label {lab}: column {c}, row {r}" for (c, r), lab in cells]
    _emit(args, payload, lines)
    return 0


def cmd_core(parser, args):
    parts = _partition(parser, args)
    if args.mode == "to":
        core = to_core(args.k, parts)
        _emit(args, {"bounded": list(parts), "core": list(core)},
              [f"core: {list(core)}"])
    elif args.mode == "from":
        bounded = from_core(args.k, parts)
        _emit(args, {"core": list(parts), "bounded": list(bounded)},
              [f"bounded: {list(bounded)}"])
    else:
        comps = split_components(args.k, parts)
        factors = [from_core(args.k, c) for c in comps]
        payload = {
            "core": list(parts),
            "components": [list(c) for c in comps],
            "factors": [list(f) for f in factors],
        }
        lines = [f"components (bottom first): {[list(c) for c in comps]}",
                 f"factors: {[list(f) for f in factors]}"]
        _emit(args, payload, lines)
    return 0


def cmd_conjugate(parser, args):
    if args.partition is None and (args.word or args.window):
        x, _ = _element(parser, args)
        y = k_conjugate_perm(x)
        _emit(args, {"window": list(x.window), "conjugate_window": list(y.window),
                     "rd": list(rd(y)), "ri": list(ri(y))},
              [f"window: {list(y.window)}",
               f"rd: {list(rd(y))}",
               f"ri: {list(ri(y))}"])
        return 0
    parts = _partition(parser, args)
    conj = k_conjugate_partition(args.k, parts)
    _emit(args, {"bounded": list(parts), "conjugate": list(conj)},
          [f"conjugate: {list(conj)}"])
    return 0


def cmd_reduced_words(parser, args):
    x, letters = _element(parser, args)
    if letters is not None and not is_reduced(x.k, letters):
        print("zero: the word is not reduced", file=sys.stderr)
        return 2
    if x.length() > args.length_bound:
        parser.error(
            f"length {x.length()} exceeds --length-bound {args.length_bound}; "
            "raise the bound to enumerate"
        )
    total = count_reduced_words(x)
    if args.count_only:
        _emit(args, {"count": total}, [f"count: {total}"])
        return 0
    words = enumerate_reduced_words(x)
    payload = {"count": total, "words": words}
    lines = [f"count: {total}"] + [" ".join(map(str, w)) for w in words]
    _emit(args, payload, lines)
    return 0


def cmd_kschur(parser, args):
    parts = _partition(parser, args)
    if args.mode == "expand":
        # Every term has length |parts|, so window order is support() order
        # without computing a length per term.
        terms = sorted(k_schur(args.k, parts).terms().items(), key=lambda t: t[0].window)
        payload = {
            "partition": list(parts),
            "terms": [{"window": list(x.window), "coefficient": c} for x, c in terms],
        }
        lines = [f"{c} {list(x.window)}" for x, c in terms]
        lines.append(f"terms: {len(terms)}")
        _emit(args, payload, lines)
        return 0
    factors, results = verify_split_product(args.k, parts)
    ok = all(match for _, match in results)
    payload = {
        "partition": list(parts),
        "factors": [list(f) for f in factors],
        "groupings": [
            {"blocks": [list(b) for b in blocks], "match": match}
            for blocks, match in results
        ],
        "all_match": ok,
    }
    lines = [f"factors (bottom first): {[list(f) for f in factors]}"]
    lines += [
        ("PASS " if match else "FAIL ") + " * ".join(str(list(b)) for b in blocks)
        for blocks, match in results
    ]
    _emit(args, payload, lines)
    return 0 if ok else 1


def _selftest_checks():
    golden = [2, 1, 0, 3, 0, 1, 2, 1, 0, 3, 1, 2, 0, 1, 0]

    def check_window():
        x = AffinePermutation.from_word(3, golden)
        return x.window == (1, -6, 0, 15) and x.length() == 15 \
            and x.right_descents() == frozenset({0, 1})

    def check_codes():
        x = AffinePermutation.from_word(3, golden)
        want = {"rd": (3, 8, 4, 0), "ri": (11, 3, 0, 1),
                "ld": (4, 3, 8, 0), "li": (3, 0, 11, 1)}
        return all(affine_code(x, v) == want[v] for v in want)

    def check_insertion():
        word = [0, 3, 1, 2, 1, 0]
        code, tab = insert_word(3, word)
        return code == (2, 1, 3, 0) and reverse_insert(code, tab) == word

    def check_cores():
        return to_core(3, (3, 2, 2, 1, 1)) == (6, 3, 3, 1, 1) \
            and from_core(3, (6, 3, 3, 1, 1)) == (3, 2, 2, 1, 1) \
            and k_conjugate_partition(3, (3, 2, 2, 1, 1)) == (2, 2, 2, 1, 1, 1)

    def check_kschur():
        total = k_schur(2, (1, 1))
        return len(total) == 3 and dominant_summand(total) == grassmannian_perm(2, (1, 1))

    def check_kschur_rotation():
        total = k_schur(3, (2, 1, 1))
        rotated = NilCoxSum(3, {x.dynkin_rotate(): c for x, c in total.terms().items()})
        return rotated == total and min(total.terms().values()) > 0

    def check_normalize():
        form = normalize_ud(6, frozenset({3, 4, 5, 6}), frozenset({0, 1, 2, 3, 4}))
        return form.a_prime == frozenset({1, 2, 3, 4, 5}) \
            and form.b_prime == frozenset({4, 5, 6, 0}) and not form.is_zero

    def check_code_inverse():
        x = AffinePermutation.from_word(3, golden)
        return code_to_permutation(rd(x)) == x

    return [
        ("golden-window", check_window),
        ("golden-codes", check_codes),
        ("insertion-roundtrip", check_insertion),
        ("core-roundtrip", check_cores),
        ("kschur-smallest", check_kschur),
        ("kschur-rotation", check_kschur_rotation),
        ("normalize-updown", check_normalize),
        ("code-roundtrip", check_code_inverse),
    ]


def cmd_selftest(parser, args):
    failures = 0
    rows = []
    for i, (name, check) in enumerate(_selftest_checks()):
        try:
            ok = check()
        except Exception as err:  # a broken invariant, not a usage problem
            ok = False
            name = f"{name} ({err})"
        if args.inject_fault and i == 0:
            ok = not ok
        rows.append((name, ok))
        if not ok:
            failures += 1
    payload = {"checks": [{"name": n, "pass": ok} for n, ok in rows],
               "failures": failures}
    lines = [("PASS " if ok else "FAIL ") + n for n, ok in rows]
    lines.append(f"{len(rows) - failures}/{len(rows)} checks passed")
    _emit(args, payload, lines)
    return 1 if failures else 0


def build_parser():
    parser = _Parser(prog="affinecodes",
                     description="Affine permutation decompositions and codes.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, partition=False, second=False, element=False):
        p.add_argument("--k", type=int, default=None, help="rank; windows have k+1 entries")
        p.add_argument("--format", choices=["text", "json"], default="text")
        if partition:
            p.add_argument("--partition", help="comma separated parts")
        if element or not partition:
            p.add_argument("--word", help="letters, space or comma separated")
            p.add_argument("--window", help="window values, comma separated")
        if second:
            p.add_argument("--word2", help="second word")
            p.add_argument("--window2", help="second window")

    p = sub.add_parser("decompose", help="maximal cyclic factorization")
    common(p)
    p.add_argument("--side", choices=["right", "left"], default="right")
    p.add_argument("--direction", choices=["decreasing", "increasing"],
                   default="decreasing")
    p.set_defaults(run=cmd_decompose)

    p = sub.add_parser("code", help="affine codes from window statistics")
    common(p)
    p.add_argument("--mode", choices=["rd", "ri", "ld", "li", "all"], default="all")
    p.set_defaults(run=cmd_code)

    p = sub.add_parser("equal", help="compare two elements")
    common(p, second=True)
    p.set_defaults(run=cmd_equal)

    p = sub.add_parser("insert", help="insert a reduced word, returning code and labels")
    common(p)
    p.set_defaults(run=cmd_insert)

    p = sub.add_parser("core", help="bounded partition and core translations")
    common(p, partition=True)
    p.add_argument("--mode", choices=["to", "from", "split"], default="to")
    p.set_defaults(run=cmd_core)

    p = sub.add_parser("conjugate",
                       help="k-conjugate of a bounded partition or an element")
    common(p, partition=True, element=True)
    p.set_defaults(run=cmd_conjugate)

    p = sub.add_parser("reduced-words", help="enumerate reduced words of an element")
    common(p)
    p.add_argument("--length-bound", type=int, default=12,
                   help="refuse elements longer than this")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(run=cmd_reduced_words)

    p = sub.add_parser("kschur", help="bounded-partition sums in the nil monoid")
    common(p, partition=True)
    p.add_argument("--mode", choices=["expand", "verify-split"], default="expand")
    p.set_defaults(run=cmd_kschur)

    p = sub.add_parser("selftest", help="run built-in sanity checks")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--inject-fault", action="store_true",
                   help="deliberately flip the first check to exercise failure")
    p.set_defaults(run=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(parser, args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
