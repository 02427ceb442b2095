import json
import subprocess
import sys

import pytest

from affinecodes.cli import main
from affinecodes.nilcox import k_schur
from goldens import (
    CORE_K3,
    INSERT_CODE,
    INSERT_WORD,
    K3_RD,
    K3_WINDOW,
    K3_WORD,
    KCONJ_K3,
    SPLIT_K4_CORE,
    SPLIT_K4_FACTORS,
)

GOLDEN_WORD = " ".join(map(str, K3_WORD))
GOLDEN_WINDOW = ",".join(map(str, K3_WINDOW))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_golden(capsys):
    code, out, _ = run(capsys, "decompose", "--k", "3", "--word", GOLDEN_WORD)
    assert code == 0
    assert f"code: {list(K3_RD)}" in out
    assert "length: 15" in out


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", "--format", "json",
                       "--window", GOLDEN_WINDOW)
    assert code == 0
    payload = json.loads(out)
    assert payload["code"] == list(K3_RD)
    assert payload["sizes"] == sorted(payload["sizes"])
    assert sum(payload["sizes"]) == 15
    assert payload["window"] == list(K3_WINDOW)


def test_decompose_rejects_nonreduced(capsys):
    code, _, err = run(capsys, "decompose", "--k", "2", "--word", "0 0")
    assert code == 2
    assert "zero" in err


def test_decompose_identity(capsys):
    code, out, _ = run(capsys, "decompose", "--window", "1,2,3")
    assert code == 0
    assert "identity" in out


def test_code_all_variants(capsys):
    code, out, _ = run(capsys, "code", "--window", GOLDEN_WINDOW)
    assert code == 0
    for tag in ("rd:", "ri:", "ld:", "li:"):
        assert tag in out


def test_code_single_variant_json(capsys):
    code, out, _ = run(capsys, "code", "--format", "json", "--mode", "rd",
                       "--window", GOLDEN_WINDOW)
    assert code == 0
    assert json.loads(out)["codes"] == {"rd": list(K3_RD)}


def test_equal(capsys):
    code, out, _ = run(capsys, "equal", "--k", "3", "--word", GOLDEN_WORD,
                       "--window2", GOLDEN_WINDOW)
    assert code == 0
    assert "equal" in out
    code, out, _ = run(capsys, "equal", "--window", "2,1,3", "--window2", "1,2,3")
    assert code == 0
    assert "different" in out


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["decompose", "--k", "3"])
    assert stop.value.code == 1
    with pytest.raises(SystemExit) as stop:
        main(["equal", "--window", "2,1,3", "--window2", "1,2,3,4"])
    assert stop.value.code == 1
    capsys.readouterr()


def test_bad_window_is_value_error(capsys):
    code, _, err = run(capsys, "code", "--window", "1,1,4")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("insert", "--k", "3", "--word", "9"),
    ("insert", "--k", "-2", "--word", "1"),
    ("insert", "--k", "0", "--word", "0"),
    ("decompose", "--k", "3", "--word", "9"),
])
def test_bad_letter_or_rank_is_value_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in out + err


def test_insert_golden(capsys):
    code, out, _ = run(capsys, "insert", "--k", "3", "--format", "json",
                       "--word", " ".join(map(str, INSERT_WORD)))
    assert code == 0
    payload = json.loads(out)
    assert payload["code"] == list(INSERT_CODE)
    assert len(payload["labels"]) == len(INSERT_WORD)


def test_insert_nonreduced(capsys):
    code, _, err = run(capsys, "insert", "--k", "3", "--word", "0 0")
    assert code == 2
    assert "position 1" in err


def test_core_modes(capsys):
    bounded, core = CORE_K3
    code, out, _ = run(capsys, "core", "--k", "3",
                       "--partition", ",".join(map(str, bounded)))
    assert code == 0
    assert f"core: {list(core)}" in out
    code, out, _ = run(capsys, "core", "--k", "3", "--mode", "from",
                       "--partition", ",".join(map(str, core)))
    assert code == 0
    assert f"bounded: {list(bounded)}" in out
    code, out, _ = run(capsys, "core", "--k", "4", "--mode", "split",
                       "--format", "json",
                       "--partition", ",".join(map(str, SPLIT_K4_CORE)))
    assert code == 0
    payload = json.loads(out)
    assert payload["factors"] == [list(f) for f in SPLIT_K4_FACTORS]


def test_conjugate_partition(capsys):
    code, out, _ = run(capsys, "conjugate", "--k", "3",
                       "--partition", ",".join(map(str, KCONJ_K3[0])))
    assert code == 0
    assert f"conjugate: {list(KCONJ_K3[1])}" in out


def test_conjugate_element(capsys):
    code, out, _ = run(capsys, "conjugate", "--window", GOLDEN_WINDOW,
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["conjugate_window"] == [-10, 5, 11, 4]
    assert payload["rd"] == [11, 1, 0, 3]


def test_reduced_words(capsys):
    code, out, _ = run(capsys, "reduced-words", "--k", "2", "--word", "0 1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["words"] == [[0, 1]]
    code, out, _ = run(capsys, "reduced-words", "--count-only",
                       "--window", GOLDEN_WINDOW, "--length-bound", "15")
    assert code == 0
    assert out.startswith("count: ")
    with pytest.raises(SystemExit) as stop:
        main(["reduced-words", "--window", GOLDEN_WINDOW])
    assert stop.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize("extra", [["--count-only"], []])
def test_reduced_words_of_long_element(capsys, extra):
    word = " ".join(["0 1"] * 750)
    code, out, _ = run(capsys, "reduced-words", "--k", "1", "--word", word,
                       "--length-bound", "2000", "--format", "json", *extra)
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_kschur_expand(capsys):
    code, out, _ = run(capsys, "kschur", "--k", "2", "--partition", "1,1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["terms"]) == 3
    assert all(t["coefficient"] == 1 for t in payload["terms"])


@pytest.mark.parametrize("k, parts", [(2, (2, 1)), (3, (2, 1, 1)), (4, (3, 2, 2, 1)), (5, (3, 3, 1))])
def test_kschur_expand_lists_terms_in_support_order(capsys, k, parts):
    total = k_schur(k, parts)
    partition = ",".join(map(str, parts))
    code, out, _ = run(capsys, "kschur", "--k", str(k), "--partition", partition,
                       "--format", "json")
    assert code == 0
    terms = [(tuple(t["window"]), t["coefficient"]) for t in json.loads(out)["terms"]]
    assert terms == [(x.window, total.coefficient(x)) for x in total.support()]
    code, out, _ = run(capsys, "kschur", "--k", str(k), "--partition", partition)
    assert code == 0
    expected = [f"{total.coefficient(x)} {list(x.window)}" for x in total.support()]
    assert out.splitlines() == expected + [f"terms: {len(total)}"]


def test_kschur_verify_split(capsys):
    code, out, _ = run(capsys, "kschur", "--k", "4", "--mode", "verify-split",
                       "--partition", "3,2,2,1,1,1")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "8/8 checks passed" in out
    code, out, _ = run(capsys, "selftest", "--inject-fault")
    assert code == 1
    assert "FAIL" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "affinecodes.cli", "selftest", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["failures"] == 0


def test_closed_pipe_exits_without_traceback():
    # About 300 KB of output, far more than a 64 KiB pipe buffer holds, so the
    # command is still writing when the reader closes the pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "affinecodes.cli", "kschur", "--k", "6",
         "--partition", "6,5,4,3,2,1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first.startswith(b"1 [")
    assert b"Traceback" not in err
    assert err == b""
