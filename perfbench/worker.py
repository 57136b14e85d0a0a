"""One workload's process: import qmmp132, build the inputs, run, check.

Run by ``run.py`` from the root of a checkout; not meant to be run by hand.
Prints ``READY`` once it could take its first request (``run.py`` times
set-up up to that line) and, unless ``--setup-only``, one JSON line of raw
results at the end.

Each workload issues its requests one at a time from this one process (a
closed loop with a single caller).  The list runs ``workloads.PASSES``
times and a request's latency is its lowest; each is also scaled to
reference speed by the speed probes taken before and after it
(``speed.py``).  With ``--trace 1`` it runs
four times, every second pass with the span wrappers installed.  Outputs
of every pass are checked after the timed passes.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path.cwd()
REQUEST_TIMEOUT_S = 120


def _scaled(latencies, probes):
    """Each latency at reference speed, from the probes before and after it."""
    return [speed.scale(t, probes[i], probes[i + 1]) for i, t in enumerate(latencies)]


def run_in_process(workload, reqs, tracer):
    """Formula or recursion requests, each cold: caches cleared, garbage
    collected, outside the timed region."""
    de = sys.modules["qmmp132.dist_engine"]
    gf = sys.modules["qmmp132.gf_formulas"]
    latencies, probes, outputs = [], [], []
    cpu0 = time.process_time()
    for i, req in enumerate(reqs):
        gf.clear_gf_cache()
        de.clear_recursion_memo()
        gc.collect()
        probes.append(speed.probe())
        if tracer is not None:
            tracer.request = i
        if workload == "formula":
            _, pat, order = req
            call, call_args = gf.dispatch, (pat, order)
        else:
            kind, n, pat, _ = req
            call = de.q_poly_recursive if kind == "poly" else de.q_series_recursive
            call_args = (n, pat) if kind == "poly" else (pat, n)
        t0 = time.perf_counter()
        try:
            out = call(*call_args)
        except Exception as exc:  # a failed request is counted, not fatal
            print(f"request {i} {req!r} raised {exc!r}", file=sys.stderr)
            out = None
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    probes.append(speed.probe())
    return {
        "latencies": latencies,
        "scaled": _scaled(latencies, probes),
        "cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB
    }, outputs


def run_cli(reqs, tracer, span_dir: Path):
    """One cold ``python -m qmmp132.cli`` process per request, in turn.

    Traced, each process runs ``tracecli.py`` instead, which writes its spans
    to a file that is merged here under the request's id.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    latencies, probes, outputs = [], [], []
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    for i, argv in enumerate(reqs):
        probes.append(speed.probe())
        if tracer is None:
            cmd = [sys.executable, "-m", "qmmp132.cli", *argv]
        else:
            span_file = span_dir / f"cli-request-{i}.json"
            cmd = [sys.executable, str(ROOT / "perfbench" / "tracecli.py"), str(span_file), *argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=REQUEST_TIMEOUT_S
            )
            out = (proc.returncode, proc.stdout)
        except subprocess.TimeoutExpired:
            out = None
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
        if tracer is not None and span_file.exists():
            base = len(tracer.spans)
            for rec in json.loads(span_file.read_text()):
                rec[3] = rec[3] + base if rec[3] >= 0 else -1
                rec[4] = i
                tracer.spans.append(rec)
            span_file.unlink()
    probes.append(speed.probe())
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "latencies": latencies,
        "scaled": _scaled(latencies, probes),
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,  # the largest child, in KiB
    }, outputs


def checker(workload):
    """A function from one pass's outputs to a pass/fail flag per request;
    references are computed once and shared by every pass."""
    import qmmp132

    if workload == "formula":
        reference = functools.cache(qmmp132.q_series_recursive)
        return lambda reqs, outputs: workloads.check_formula(reqs, outputs, reference, qmmp132.catalan)
    if workload == "recursion":
        return lambda reqs, outputs: workloads.check_recursion(reqs, outputs, qmmp132.catalan)
    expected = functools.cache(lambda argv: workloads.expected_cli_stdout(argv, qmmp132))
    return lambda reqs, outputs: [
        out is not None and out[0] == 0 and out[1] == expected(argv)
        for argv, out in zip(reqs, outputs)
    ]


def summarize(passes) -> dict:
    """One record for several passes over the same list; a request's
    latency is the lowest of its passes."""
    return {
        "latencies": [min(t) for t in zip(*(p["latencies"] for p in passes))],
        "scaled": [min(t) for t in zip(*(p["scaled"] for p in passes))],
        "cpu_s": sum(p["cpu_s"] for p in passes) / len(passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "passes": len(passes),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="span dump file (traced runs)")
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qmmp132

    if args.workload == "cli":
        import qmmp132.cli  # noqa: F401  (the bare import a cli request pays)
    if Path(qmmp132.__file__).resolve().parent != (src / "qmmp132").resolve():
        print(f"qmmp132 imported from {qmmp132.__file__}, not {src}", file=sys.stderr)
        return 2
    reqs = workloads.generate(args.workload, args.seed, args.seconds)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.workload == "cli":
        span_dir = args.spans.parent if args.spans else ROOT

        def run(tracer):
            return run_cli(reqs, tracer, span_dir)
    else:
        def run(tracer):
            return run_in_process(args.workload, reqs, tracer)

    result = {"numpy": sys.modules["numpy"].__version__, "requests": len(reqs)}
    plain_passes, traced_passes, tracers = [], [], []
    # a traced run alternates two untraced and two traced passes, so both
    # sides see the same spells of a slow machine
    for i in range(4 if args.trace else workloads.PASSES):
        if not (args.trace and i % 2):
            plain_passes.append(run(None))
            continue
        tracers.append(spans.Tracer())
        tracers[-1].install()
        try:
            traced_passes.append(run(tracers[-1]))
        finally:
            tracers[-1].uninstall()
    if tracers:  # the layers come from the first traced pass
        choose_route = sys.modules["qmmp132.gf_formulas"].choose_route
        result["layers"] = spans.layer_metrics(tracers[0].spans, spans.route_of(choose_route))
        if args.spans:
            tracers[0].dump(args.spans)
    check = checker(args.workload)
    for stats, outputs in plain_passes + traced_passes:
        ok = check(reqs, outputs)
        stats["attempted"] = len(ok)
        stats["failed"] = ok.count(False)
    result["plain"] = summarize([stats for stats, _ in plain_passes])
    if traced_passes:
        result["traced"] = summarize([stats for stats, _ in traced_passes])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
