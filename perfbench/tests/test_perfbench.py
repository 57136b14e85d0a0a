"""Tests of the benchmark itself: inputs, output checks, tracing, reports.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
import spans
import speed
import worker
import workloads
from qmmp132 import analysis, catalan, cli, dist_engine, gf_formulas
from qmmp132.poly_series import TSeries, XPoly

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def tracer():
    gf_formulas.clear_gf_cache()
    dist_engine.clear_recursion_memo()
    t = spans.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()
        gf_formulas.clear_gf_cache()
        dist_engine.clear_recursion_memo()


_route_of = spans.route_of(gf_formulas.choose_route)


def _route(pat, order):
    return _route_of(pat, order)[0]


# -- work counts ------------------------------------------------------------


@pytest.mark.parametrize(
    "pat, rows, inner",
    [
        ((8, 8, 8, 8), 43_380, 1_505_736),
        ((4, 4, 4, 4), 7_770, 259_600),
        ((2, 3, 4, 1), 1_518, 49_896),
        ((1, 1, 1, 1), 512, 16_640),
    ],
)
def test_recursion_work_counts_match_the_memo(tracer, pat, rows, inner):
    dist_engine.q_poly_recursive(64, pat)
    (span,) = [s for s in tracer.spans if s[0] == "dist_engine.rec"]
    assert span[7] == [rows, inner]
    memo = dist_engine._memo  # read here only, to check the computed counts
    assert len(memo) == rows
    assert sum(key[0] for key in memo) == inner


def test_warm_memo_rows_are_not_counted_twice(tracer):
    dist_engine.q_poly_recursive(30, (2, 2, 1, 2))
    dist_engine.q_poly_recursive(30, (2, 2, 1, 2))
    first, second = [s[7] for s in tracer.spans if s[0] == "dist_engine.rec"]
    assert first[0] == len(dist_engine._memo) and second == [0, 0]


# -- tracing ----------------------------------------------------------------


def test_wrappers_reach_every_namespace(tracer):
    assert cli.dispatch is gf_formulas.dispatch is analysis.dispatch
    assert cli.q_poly_recursive is analysis.q_poly_recursive is dist_engine.q_poly_recursive
    assert gf_formulas.q_series_recursive is dist_engine.q_series_recursive
    assert analysis.cross_validate.__wrapped__.__kwdefaults__["rec_fn"] is analysis.q_poly_recursive


def test_uninstall_restores_the_package():
    originals = (gf_formulas.dispatch, TSeries.__mul__, analysis.cross_validate.__kwdefaults__["rec_fn"])
    t = spans.Tracer()
    t.install()
    t.uninstall()
    assert (gf_formulas.dispatch, TSeries.__mul__, analysis.cross_validate.__kwdefaults__["rec_fn"]) == originals


def test_formula_layers(tracer):
    dispatch = gf_formulas.dispatch
    out = dispatch((3, 3, 3, 3), 30)
    m = spans.layer_metrics(tracer.spans, _route_of)
    assert m["gf_formulas.subseries"] == 56 == len(gf_formulas._cache)  # as ROADMAP says
    assert dispatch((3, 3, 3, 3), 30) is out  # a hit on the second call
    m = spans.layer_metrics(tracer.spans, _route_of)
    assert m["gf_formulas.route.q1234_s"] > 0
    assert m["gf_formulas.route.q3_s"] == 0  # only reached nested, never cold at top level
    assert 0 < m["gf_formulas.dispatch.hit_ratio"] < 1
    assert m["poly_series.tmul.calls"] > 0 and m["poly_series.tmul.coef_mults"] > 0
    assert m["poly_series.reciprocal.calls"] > 0
    top = [s for s in tracer.spans if s[0] == spans.DISPATCH and s[3] == -1][0]
    assert 0 < m["gf_formulas.dispatch.self_s"] < top[2] - top[1]


def test_coef_mults_counts_schoolbook_products():
    u = TSeries(2, [XPoly((1, 1)), XPoly(), XPoly((1, 2, 3))])
    v = TSeries(2, [XPoly((1,)), XPoly((1, 1))])
    # i=0: 2*(1+2+0); i=2: 3*1
    assert spans.coef_mults(u, v) == 2 * 3 + 3 * 1


def test_xval_and_brute_layers(tracer):
    dist_engine.clear_brute_cache()
    report = analysis.cross_validate(2, 5, 6)
    m = spans.layer_metrics(tracer.spans, _route_of)
    assert m["analysis.xval.comparisons"] == report.comparisons
    assert m["dist_engine.brute.calls"] == 15 * 6
    assert 0 < m["dist_engine.brute.hit_ratio"] < 1
    rebuilt = 5  # n = 1..5 each build their tensor once (n = 0 never does)
    assert m["dist_engine.brute.tensor_bytes"] == sum(catalan(n) * n * 4 for n in range(1, rebuilt + 1))
    assert m["analysis.xval.self_s"] > 0


def test_cli_main_self_time(tracer):
    with redirect_stdout(io.StringIO()) as buf:
        assert cli.main(["series", "--pattern", "1,1,0,1", "--order", "6"]) == 0
    m = spans.layer_metrics(tracer.spans, _route_of)
    main = [s for s in tracer.spans if s[0] == "cli.main"][0]
    assert 0 < m["cli.main.self_s"] < main[2] - main[1]
    assert m["poly_series.format.self_s"] > 0
    assert m["gf_formulas.route.q124_s"] > 0  # (1,1,0,1) is served by q124
    assert buf.getvalue().startswith("t^0: 1\n")


def test_span_dump(tracer, tmp_path):
    dist_engine.q_series_recursive((1, 0, 1, 0), 4)
    path = tmp_path / "spans.jsonl"
    tracer.dump(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0]["name"] == "dist_engine.rec" and rows[0]["parent"] == -1
    assert all(r["parent"] == 0 for r in rows[1:]) and len(rows) == 6
    assert set(rows[0]) == {"name", "start", "end", "parent", "request"}


def test_layer_metrics_cover_benchmark_json():
    names = set(spans.layer_metrics([], _route_of)) | {"cli.import_s", "process.cpu_s", "trace.overhead_s"}
    assert names == {name for name, _, _ in spans.PER_LAYER}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["formula", "recursion", "cli"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)


# -- inputs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_come_from_the_seed(workload):
    a = workloads.generate(workload, 7, 25)
    assert a == workloads.generate(workload, 7, 25)
    assert a != workloads.generate(workload, 8, 25)


def test_formula_inputs_cover_every_shape_in_range():
    reqs = workloads.generate("formula", 3, 25)
    assert {_route(pat, order) for _, pat, order in reqs} == set(spans.ROUTE_SHAPES)
    assert all(_route(pat, order) == shape for shape, pat, order in reqs)
    assert all(max(pat) <= 3 and 20 <= order <= 40 for _, pat, order in reqs)
    reflected_only = {(1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 1)}
    shapes = {tuple(int(v > 0) for v in pat) for _, pat, _ in reqs}
    assert shapes & reflected_only


def test_recursion_and_cli_inputs_in_range():
    for kind, n, pat, _ in workloads.generate("recursion", 3, 25):
        assert 40 <= n <= 64 and max(pat) <= 8 and min(pat) >= 1
    for argv in workloads.generate("cli", 3, 25):
        opts = dict(zip(argv[1::2], argv[2::2]))
        if opts.get("--method") == "brute":
            assert int(opts["--n"]) <= 13
        if argv[0] == "xval":
            assert int(opts["--entry-bound"]) <= 3
        if argv[0] == "check":
            assert opts["--n-max"] == "25"


# -- output checks ----------------------------------------------------------


def _corrupt(series_or_poly):
    if isinstance(series_or_poly, TSeries):
        cs = list(series_or_poly.coeffs)
        cs[-1] = cs[-1] + XPoly((1,))
        return TSeries(series_or_poly.order, cs)
    return series_or_poly + XPoly((0, 1))


def test_corrupted_formula_result_is_a_failure(monkeypatch):
    reqs = [("q13", (1, 0, 2, 0), 12), ("q1", (2, 0, 0, 0), 12)]
    real = gf_formulas.dispatch
    monkeypatch.setattr(gf_formulas, "dispatch", lambda pat, order: (
        _corrupt(real(pat, order)) if pat == (2, 0, 0, 0) else real(pat, order)))
    stats, outputs = worker.run_in_process("formula", reqs, None)
    assert workloads.check_formula(reqs, outputs, dist_engine.q_series_recursive, catalan) == [True, False]


def test_engine_shape_is_checked_without_a_second_engine():
    # dispatch serves the engine shape with q_series_recursive itself, so a
    # fault there agrees with the reference and must fail the self-checks
    def faulty(pat, order):
        out = dist_engine.q_series_recursive(pat, order)
        return _corrupt(out) if pat == (0, 2, 0, 0) else out

    reqs = [("engine", (0, 2, 0, 0), 10), ("engine", (0, 0, 0, 2), 10), ("q1", (2, 0, 0, 0), 10)]
    outputs = [faulty(pat, order) for _, pat, order in reqs]
    assert workloads.check_formula(reqs, outputs, faulty, catalan) == [False, False, True]


def test_rec_method_cli_request_needs_a_self_consistent_library():
    import qmmp132

    argv = ("poly", "--pattern", "1,2,0,1", "--n", "9", "--method", "rec")
    assert workloads.expected_cli_stdout(argv, qmmp132) is not None

    class Faulty:
        catalan = staticmethod(catalan)

        @staticmethod
        def q_poly_recursive(n, pat):
            out = dist_engine.q_poly_recursive(n, pat)
            return _corrupt(out) if pat == (1, 2, 0, 1) else out

    assert workloads.expected_cli_stdout(argv, Faulty) is None
    gf_argv = argv[:-1] + ("gf",)  # checked against another engine instead
    assert workloads.expected_cli_stdout(gf_argv, Faulty) is not None


def test_corrupted_recursion_result_is_a_failure(monkeypatch):
    reqs = [("poly", 12, (1, 1, 2, 3), 0), ("poly", 12, (1, 3, 2, 1), 0), ("series", 10, (1, 2, 1, 1), 2)]
    real = dist_engine.q_poly_recursive
    monkeypatch.setattr(dist_engine, "q_poly_recursive", lambda n, pat: (
        _corrupt(real(n, pat)) if pat == (1, 3, 2, 1) else real(n, pat)))
    stats, outputs = worker.run_in_process("recursion", reqs, None)
    assert workloads.check_recursion(reqs, outputs, catalan) == [True, False, True]
    assert stats["latencies"] and len(outputs) == 3


def test_reflection_mismatch_is_a_failure():
    reqs = [("poly", 5, (1, 0, 0, 0), 0), ("poly", 5, (1, 0, 0, 0), 0)]
    good = dist_engine.q_poly_recursive(5, (1, 0, 0, 0))
    # same row sum, different polynomial
    swapped = XPoly((good.coeffs[0] - 1, good.coeffs[1] + 1) + good.coeffs[2:])
    assert workloads.check_recursion(reqs, [good, swapped], catalan) == [True, False]


@pytest.mark.parametrize(
    "argv",
    [
        ("poly", "--pattern", "1,1,0,1", "--n", "9", "--method", "gf"),
        ("poly", "--pattern", "1,2,0,1", "--n", "9", "--method", "rec"),
        ("series", "--pattern", "0,2,1,3", "--order", "8", "--method", "rec"),
        ("series", "--pattern", "0,1,1,0", "--order", "7"),
        ("seq", "--pattern", "1,1,1,0", "--transform", "x^2", "--n-max", "9", "--format", "csv"),
        ("seq", "--pattern", "1,1,0,1", "--transform", "top", "--n-max", "8"),
        ("stat", "--perm", "471569283", "--pattern", "4,2,e,e"),
        ("check", "--n-max", "25"),
        ("xval", "--entry-bound", "2", "--n-max", "6", "--order", "8"),
    ],
)
def test_expected_stdout_is_what_the_cli_prints(argv):
    import qmmp132

    with redirect_stdout(io.StringIO()) as buf:
        assert cli.main(list(argv)) == 0
    assert buf.getvalue() == workloads.expected_cli_stdout(argv, qmmp132)
    checker = worker.checker("cli")
    assert checker([argv, argv, argv], [(0, buf.getvalue()), (0, buf.getvalue() + "x"), (1, buf.getvalue())]) == [
        True, False, False]


# -- reports ----------------------------------------------------------------


def test_latency_is_scaled_to_reference_speed():
    ref = speed.REFERENCE_S
    assert speed.scale(2.0, ref, ref) == pytest.approx(2.0)
    # the machine ran at half speed: the probes took twice as long
    assert speed.scale(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert speed.scale(2.0, ref, 3 * ref) == pytest.approx(1.0)
    assert 0 < speed.probe() < 1
    assert speed.scale_start(0.3, 2 * speed.START_REFERENCE_S) == pytest.approx(0.15)


def test_tail_keeps_ten_samples_beyond():
    lat = [float(i) for i in range(1, 41)]
    assert run.tail(lat) == (30.0, 75.0)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_compare_verdicts():
    a = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert run.verdict(a, [1.3, 1.31, 1.29, 1.3, 1.32], 0.1, "lower") == "worse"
    assert run.verdict(a, [1.01, 1.0, 1.02, 0.99, 1.0], 0.1, "lower") == "same"
    assert run.verdict(a, [0.5, 1.5, 0.7, 1.4, 1.0], 0.1, "lower") == "unresolved"
    assert run.verdict(a, [1.3, 1.31, 1.29, 1.3, 1.32], 0.1, "higher") == "better"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "formula", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert got.returncode != 0
    assert got.stdout == ""
