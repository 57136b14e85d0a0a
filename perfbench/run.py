"""qmmp132 benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload formula|recursion|cli --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --compare DIR_A DIR_B

A workload run prints human-readable lines, then, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (tracing off); with
``--trace 1`` they are the per-layer ones from a traced pass over the same
request list.  Each run also writes ``perfbench/out/results/<workload>-
seed<N>-trace<T>.json`` (metrics plus machine and software), and a traced
run writes its spans to ``perfbench/out/spans/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 9  # processes whose set-up is timed; the median is reported
IMPORT_PROBES = 5  # cold `import qmmp132.cli` processes per traced run
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_s": "s",
    "req_tail_s": "s",
    "peak_rss_mb": "MB",
    "verified_ratio": "ratio",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _launch(cmd) -> subprocess.Popen:
    # a session of its own, so that stopping it also stops its cli requests
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)


def _worker(args, *extra) -> subprocess.Popen:
    return _launch([
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ])


def _until_ready(proc: subprocess.Popen, t0: float) -> float | None:
    """Seconds from launch ``t0`` until the process prints READY."""
    line = proc.stdout.readline()
    return time.perf_counter() - t0 if line.strip() == "READY" else None


def _start_seconds(launch) -> float | None:
    """Seconds from ``launch()`` until its process is ready; the process is
    then run to its end.  None if it did not get ready or failed."""
    t0 = time.perf_counter()
    proc = launch()
    try:
        ready = _until_ready(proc, t0)
        proc.communicate(timeout=60)
    finally:
        _stop(proc)
    return ready if proc.returncode == 0 else None


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that still has
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def machine(numpy_version: str) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"  # a benchmark checkout is usually not a git repository
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def _import_seconds() -> float:
    """Median time of a cold ``import qmmp132.cli`` in a fresh process."""
    code = "import time;t=time.perf_counter();import qmmp132.cli;print(time.perf_counter()-t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(IMPORT_PROBES):
        got = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        samples.append(float(got.stdout))
    return statistics.median(samples)


def run_workload(args) -> int:
    if not (ROOT / "src" / "qmmp132" / "__init__.py").is_file():
        return fail(f"no qmmp132 sources under {ROOT / 'src'}; run from a checkout root")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + WORKER_TIMEOUT_S

    setup, setup_raw, start_probes = [], [], []
    for _ in range(SETUP_SAMPLES):
        probe = _start_seconds(lambda: _launch([sys.executable, *speed.START_PROBE]))
        ready = _start_seconds(lambda: _worker(args, "--setup-only"))
        if probe is None or ready is None:
            return fail("set-up process failed")
        setup.append(speed.scale_start(ready, probe))
        setup_raw.append(ready)
        start_probes.append(probe)

    span_file = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    extra = ("--spans", str(span_file)) if args.trace else ()
    proc = _worker(args, *extra)
    try:
        if _until_ready(proc, time.perf_counter()) is None:
            return fail("worker did not start")
        try:
            body, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1))
        except subprocess.TimeoutExpired:
            return fail(f"worker ran past {WORKER_TIMEOUT_S} s")
    finally:
        _stop(proc)
    if proc.returncode != 0:
        return fail(f"worker exited with {proc.returncode}")
    raw = json.loads(body.strip().splitlines()[-1])
    plain = raw["plain"]
    lat = plain["scaled"]
    tail_s, tail_pct = tail(lat)
    attempted = plain["attempted"]
    failed = plain["failed"]
    info = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": raw["requests"],
        "passes": plain["passes"],
        "rounds": workloads.rounds_for(args.workload, args.seconds),
        "req_tail_percentile": round(tail_pct, 2),
        "req_tail_samples": len(lat),
        "setup_samples_s": setup,
        "setup_raw_samples_s": setup_raw,
        "start_probes_s": start_probes,
        "raw_wall_s": sum(plain["latencies"]),
        "raw_req_p50_s": statistics.median(plain["latencies"]),
        "reference_s": speed.REFERENCE_S,
        "seed": args.seed,
        "machine": machine(raw["numpy"]),
    }
    if args.trace:
        traced = raw["traced"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        metrics = dict(raw["layers"])
        metrics["cli.import_s"] = _import_seconds()
        metrics["process.cpu_s"] = plain["cpu_s"]
        metrics["trace.overhead_s"] = sum(traced["scaled"]) - sum(lat)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        info["span_file"] = str(span_file.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(lat),
            "req_p50_s": statistics.median(lat),
            "req_tail_s": tail_s,
            "peak_rss_mb": plain["peak_rss_mb"],
            "verified_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    info["error_rate"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = dict(result, info=info)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(info))
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# compare mode


def _load(directory: Path) -> dict:
    """{(workload, trace): {metric: [values]}} from a results directory."""
    out: dict = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        key = (record["info"]["workload"], record["info"]["trace"])
        for name, m in record["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    """How B compares with A on one metric, within the benchmark's bound."""
    (ma, qa1, qa3), (mb, qb1, qb3) = summary(a), summary(b)
    if ma == 0:
        return "no base"
    spread = max((qa3 - qa1) / abs(ma), (qb3 - qb1) / abs(mb) if mb else 0.0)
    worse = (mb - ma) / abs(ma) * (1 if better == "lower" else -1)
    if spread > bound:
        if (better == "lower" and max(b) < min(a)) or (better == "higher" and min(b) > max(a)):
            return "better (every run)"
        return "unresolved"
    if worse > bound:
        return "worse"
    if -worse > spread:
        return "better"
    return "same"


def compare(dir_a: Path, dir_b: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    better_of = {m["name"]: m["better"] for m in spec["per_layer"]}
    a, b = _load(dir_a), _load(dir_b)
    print(f"{'workload':10s} {'metric':40s} {'A median [q1,q3]':>32s} {'B median [q1,q3]':>32s} {'delta':>8s}  verdict")
    for key in sorted(set(a) & set(b)):
        for name in a[key]:
            if name not in b[key]:
                continue
            (ma, a1, a3), (mb, b1, b3) = summary(a[key][name]), summary(b[key][name])
            delta = f"{(mb - ma) / abs(ma):+.1%}" if ma else "n/a"
            if name in bounds:
                text = verdict(a[key][name], b[key][name], *bounds[name])
            else:
                text = f"(per-layer, {better_of.get(name, '?')} is better)"
            print(
                f"{key[0]:10s} {name:40s} {ma:12.5g} [{a1:.4g},{a3:.4g}] "
                f"{mb:12.5g} [{b1:.4g},{b3:.4g}] {delta:>8s}  {text}"
            )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("DIR_A", "DIR_B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
