"""Command-line interface: output formats and exit codes, in process."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import qmmp132
from qmmp132 import analysis, catalan, cli, dispatch
from qmmp132.analysis import ClosedFormCheck, XvalReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# poly


def test_poly_all_methods_agree(capsys):
    outs = []
    for method in ("brute", "rec", "gf"):
        code, out, err = run(
            capsys, "poly", "--pattern", "0,1,1,1", "--n", "5", "--method", method
        )
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs == ["33+8x+x^2\n"] * 3


def test_poly_default_method_is_recursion(capsys):
    code, out, _ = run(capsys, "poly", "--pattern", "1,1,1,0", "--n", "4")
    assert (code, out) == (0, "12+2x\n")


def test_poly_rejects_empty_quadrant_bounds(capsys):
    code, out, err = run(capsys, "poly", "--pattern", "4,2,e,e", "--n", "5")
    assert code == 2
    assert out == ""
    assert "stat command" in err


def test_poly_resource_limits(capsys):
    code, _, err = run(capsys, "poly", "--pattern", "1,1,1,1", "--n", "99")
    assert code == 2
    assert "n <= 64" in err
    code, _, err = run(
        capsys, "poly", "--pattern", "1,1,1,1", "--n", "15", "--method", "brute"
    )
    assert code == 2
    assert "exceeds cap" in err


# ---------------------------------------------------------------------------
# series


def test_series_known_lines(capsys):
    code, out, _ = run(
        capsys, "series", "--pattern", "1,1,0,1", "--order", "4", "--method", "gf"
    )
    assert code == 0
    assert out == "t^0: 1\nt^1: 1\nt^2: 2\nt^3: 5\nt^4: 10+4x\n"


def test_series_methods_agree(capsys):
    _, gf_out, _ = run(
        capsys, "series", "--pattern", "2,1,0,2", "--order", "6", "--method", "gf"
    )
    _, rec_out, _ = run(
        capsys, "series", "--pattern", "2,1,0,2", "--order", "6", "--method", "rec"
    )
    assert gf_out == rec_out
    assert gf_out.splitlines()[-1] == "t^6: 105+27x"


def test_series_default_order(capsys):
    code, out, _ = run(capsys, "series", "--pattern", "0,0,0,0")
    assert code == 0
    assert len(out.splitlines()) == cli.DEFAULT_TRUNCATION + 1


def test_series_negative_order(capsys):
    code, _, err = run(capsys, "series", "--pattern", "1,0,0,0", "--order", "-1")
    assert code == 2
    assert "error:" in err


def test_series_bounds_above_the_order(capsys):
    # a bound far above the order is clamped, not recursed through
    argv = ("series", "--pattern", "1,600,0,1", "--order", "3", "--method")
    assert run(capsys, *argv, "gf") == run(capsys, *argv, "rec")
    code, out, _ = run(capsys, *argv, "gf")
    assert (code, out) == (0, "t^0: 1\nt^1: 1\nt^2: 2\nt^3: 5\n")


def test_series_bounds_summing_to_the_order(capsys):
    # no length up to the order has a match: the Catalan series, at once
    argv = ("series", "--pattern", "150,0,0,0", "--order", "150", "--method", "gf")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == "".join(f"t^{n}: {catalan(n)}\n" for n in range(151))


def test_series_order_above_the_recursion_limit(capsys):
    argv = ("series", "--pattern", "0,2,0,0", "--order", "70", "--method", "rec")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "n <= 64" in err


def test_single_quadrant_series_above_the_recursion_limit(capsys):
    # the formula route serves (0,b,0,0) by its own block identity, and
    # (0,0,0,d) as its reflection, so the recursion's limit does not apply
    outs = []
    for pattern in ("0,2,0,0", "0,0,0,2"):
        argv = ("series", "--pattern", pattern, "--order", "70", "--method", "gf")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), pattern
        outs.append(out)
    assert outs[0] == outs[1]
    series = dispatch((0, 2, 0, 0), 70)
    assert outs[0] == f"{series}\n"
    for n in range(71):
        assert series.coeff(n).eval_at(1) == catalan(n), n


# ---------------------------------------------------------------------------
# stat


def test_stat_with_empty_quadrants(capsys):
    code, out, _ = run(capsys, "stat", "--perm", "471569283", "--pattern", "4,2,e,e")
    assert (code, out) == (0, "1\n")


def test_stat_natural_pattern(capsys):
    code, out, _ = run(capsys, "stat", "--perm", "341256", "--pattern", "1,1,1,0")
    assert (code, out) == (0, "1\n")


def test_stat_rejects_bad_permutation(capsys):
    code, _, err = run(capsys, "stat", "--perm", "122", "--pattern", "0,0,0,0")
    assert code == 2
    assert "error:" in err


def test_stat_rejects_non_ascii_permutation_digits(capsys):
    # str.isdigit accepts ARABIC-INDIC DIGITS ONE and TWO, and int() reads
    # them as 1 and 2
    code, out, err = run(capsys, "stat", "--perm", "\u0661\u0662", "--pattern", "0,0,0,0")
    assert (code, out) == (2, "")
    assert err == "error: not a permutation string: '\\u0661\\u0662'\n"


def test_stat_rejects_a_superscript_digit_with_its_own_message(capsys):
    # str.isdigit accepts SUPERSCRIPT TWO, which int() refuses with its own
    # "invalid literal" message
    code, out, err = run(capsys, "stat", "--perm", "\u00b21", "--pattern", "0,0,0,0")
    assert (code, out) == (2, "")
    assert err == "error: not a permutation string: '\\xb21'\n"


# ---------------------------------------------------------------------------
# seq


def test_seq_plain_rows(capsys):
    code, out, _ = run(
        capsys, "seq", "--pattern", "1,1,0,1", "--transform", "x0", "--n-max", "10"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1,1"
    assert lines[3] == "4,10"
    assert lines[-1] == "10,82"


def test_seq_csv_exact_output(capsys):
    code, out, _ = run(
        capsys,
        "seq",
        "--pattern", "1,1,1,0",
        "--transform", "x0",
        "--n-max", "3",
        "--format", "csv",
    )
    assert code == 0
    assert out == (
        "n,pattern,transform,value\n"
        '1,"1,1,1,0",x0,1\n'
        '2,"1,1,1,0",x0,2\n'
        '3,"1,1,1,0",x0,5\n'
    )


def test_seq_top_transform(capsys):
    code, out, _ = run(
        capsys, "seq", "--pattern", "0,0,0,0", "--transform", "top", "--n-max", "5"
    )
    assert code == 0
    assert out == "1,1\n2,2\n3,5\n4,14\n5,42\n"


def test_seq_default_length(capsys):
    code, out, _ = run(capsys, "seq", "--pattern", "1,1,1,0", "--transform", "x0")
    assert code == 0
    assert len(out.splitlines()) == 12


def test_seq_bad_transform(capsys):
    code, _, err = run(
        capsys, "seq", "--pattern", "1,1,1,0", "--transform", "wat"
    )
    assert code == 2
    assert "unknown transform" in err


def test_seq_rejects_exponents_int_would_read(capsys):
    # int() reads "+1" and "1_0"; an exponent is ASCII digits only
    for transform in ("x^+1", "x^1_0", "x^ 1"):
        code, out, err = run(
            capsys, "seq", "--pattern", "1,1,1,0", "--transform", transform
        )
        assert (code, out) == (2, ""), transform
        assert err == f"error: bad transform {transform!r}\n"


# ---------------------------------------------------------------------------
# check


def test_check_single_name(capsys):
    code, out, _ = run(capsys, "check", "--only", "1101-x0", "--n-max", "12")
    assert code == 0
    assert out == "PASS 1101-x0 (n=1..12)\n1/1 checks passed\n"


def test_check_full_registry(capsys):
    code, out, _ = run(capsys, "check", "--n-max", "10")
    assert code == 0
    assert out.rstrip().endswith("40/40 checks passed")


def test_check_default_length(capsys):
    # the default is analysis.DEFAULT_CHECK_N_MAX, read when check runs
    assert run(capsys, "check") == run(capsys, "check", "--n-max", "25")
    code, out, _ = run(capsys, "check", "--only", "1101-x0")
    assert (code, out) == (0, "PASS 1101-x0 (n=1..25)\n1/1 checks passed\n")


def test_check_unknown_name(capsys):
    code, _, err = run(capsys, "check", "--only", "no-such-check")
    assert code == 2
    assert "no check named" in err


def test_check_failure_exits_one(capsys, monkeypatch):
    bad = ClosedFormCheck(
        name="deliberately-wrong",
        pattern=(1, 1, 0, 1),
        selector=lambda n: 0,
        formula=lambda n: -1,
        validity=1,
    )
    monkeypatch.setattr(analysis, "default_registry", lambda: (bad,))
    code, out, _ = run(capsys, "check", "--n-max", "5")
    assert code == 1
    assert "FAIL deliberately-wrong" in out
    assert "0/1 checks passed" in out


# ---------------------------------------------------------------------------
# xval


def test_xval_pass(capsys):
    code, out, _ = run(
        capsys, "xval", "--entry-bound", "2", "--n-max", "6", "--order", "6"
    )
    assert code == 0
    assert "PASS: 15 patterns" in out


def test_xval_failure_exits_one(capsys, monkeypatch):
    fake = XvalReport(
        entry_bound=1,
        n_max=2,
        order=2,
        patterns_checked=1,
        comparisons=1,
        failure=("brute-vs-recursion", (0, 0, 0, 0), 1, "synthetic"),
    )
    monkeypatch.setattr(analysis, "cross_validate", lambda *a, **k: fake)
    code, out, _ = run(
        capsys, "xval", "--entry-bound", "1", "--n-max", "2", "--order", "2"
    )
    assert code == 1
    assert "FAIL [brute-vs-recursion]" in out


def test_xval_and_check_reject_what_they_cannot_check(capsys):
    for argv, text in [
        (("xval", "--entry-bound", "-1", "--n-max", "3", "--order", "3"), "entry_bound"),
        (("xval", "--entry-bound", "1", "--n-max", "-1", "--order", "3"), "nonnegative"),
        (("xval", "--entry-bound", "1", "--n-max", "15", "--order", "3"), "cap 14"),
        (("check", "--n-max", "-3"), "n_max"),
        (("check", "--n-max", "65"), "n <= 64"),
        # 1111-second starts at n = 6: at --n-max 5 it would check nothing
        (("check", "--only", "1111-second", "--n-max", "5"), "no selected check"),
        (("seq", "--pattern", "8,8,8,8", "--transform", "x0", "--n-max", "65"), "n <= 64"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert text in err, argv


# ---------------------------------------------------------------------------
# usage errors


def test_missing_required_argument(capsys):
    code, _, err = run(capsys, "poly", "--n", "4")
    assert code == 2
    assert "required" in err


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_no_arguments(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_malformed_pattern(capsys):
    code, _, err = run(capsys, "poly", "--pattern", "1,1,1", "--n", "4")
    assert code == 2
    assert "four tokens" in err


def test_pattern_bounds_are_ascii_digits(capsys):
    # str.isdigit accepts ARABIC-INDIC DIGIT ONE, which int() reads as 1
    code, out, err = run(capsys, "poly", "--pattern", "\u0661,1,1,1", "--n", "3")
    assert (code, out) == (2, "")
    assert err == "error: bad pattern token '\\u0661' in '\\u0661,1,1,1'\n"


def test_numeric_options_are_ascii_digits(capsys):
    # int() reads "1_0", "+3", an ARABIC-INDIC DIGIT THREE and surrounding
    # spaces with a sign; a numeric option is ASCII digits after one "-"
    for argv, value in [
        (("poly", "--pattern", "1,1,1,1", "--n", "1_0"), "'1_0'"),
        (("poly", "--pattern", "1,1,1,1", "--n", "\u0663"), "'\\u0663'"),
        (("series", "--pattern", "1,1,1,1", "--order", "+3"), "'+3'"),
        (("check", "--n-max", " +5"), "' +5'"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        option = argv[-2]
        assert err.endswith(f"error: argument {option}: invalid int value: {value}\n")
    # surrounding spaces are stripped, and a negative length reaches the
    # engines' one length check
    code, out, _ = run(capsys, "poly", "--pattern", "1,1,1,1", "--n", " 4 ")
    assert (code, out) == (0, "14\n")
    code, out, err = run(capsys, "poly", "--pattern", "1,1,1,1", "--n", "-1")
    assert (code, out) == (2, "")
    assert err == "error: length must be a nonnegative int, got -1\n"


# ---------------------------------------------------------------------------
# what a cold process loads

# a child process: ``python -m qmmp132.cli ARGS``, after which it prints the
# watched modules (argv[1], comma-separated) that are loaded, to stderr
_COLD_RUN = """
import runpy, sys
watched = sys.argv[1].split(",")
sys.argv = ["qmmp132"] + sys.argv[2:]
try:
    runpy.run_module("qmmp132.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(",".join(m for m in watched if m in sys.modules), file=sys.stderr)
"""


def _loaded_after(watched, *argv):
    src = str(Path(qmmp132.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_RUN, ",".join(watched), *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr.strip().split(",")


def test_a_cold_request_loads_only_what_it_runs():
    """numpy runs only when brute force does, and the verification drivers
    and csv only when a request verifies; importing the package loads the
    engines, and no request loads dataclasses.  ``numpy`` itself is always
    in sys.modules, as a lazy module, so numpy's run is read off its first
    submodule, ``numpy._core``."""
    watched = ["numpy._core", "qmmp132.analysis", "csv", "dataclasses"]
    engines = ["qmmp132.dist_engine", "qmmp132.gf_formulas"]
    for argv, last, loaded in [
        (["stat", "--perm", "471569283", "--pattern", "4,2,e,e"], "1", []),
        (["poly", "--pattern", "1,1,1,1", "--n", "6", "--method", "rec"], "99+29x+4x^2", []),
        (["series", "--pattern", "1,1,1,1", "--order", "4"], "t^4: 14", []),
        (["check", "--n-max", "8"], "40/40 checks passed", ["qmmp132.analysis"]),
        (
            ["seq", "--pattern", "1,1,1,0", "--transform", "x0", "--format", "csv"],
            '12,"1,1,1,0",x0,7168',
            ["qmmp132.analysis", "csv"],
        ),
        (
            ["poly", "--pattern", "1,1,1,1", "--n", "6", "--method", "brute"],
            "99+29x+4x^2",
            ["numpy._core"],
        ),
    ]:
        out, got = _loaded_after(watched + engines, *argv)
        assert (out.splitlines()[-1], got) == (last, loaded + engines), argv
