"""Host-speed probes: a fixed pure-Python kernel timed next to each request,
and a fixed process start timed next to each set-up.

The machine the benchmark runs on may be shared, and its CPU can run 40%
slower or more for minutes at a time.  A wall time alone then measures
the neighbours as much as the program.  The benchmark times this kernel,
which belongs to the benchmark and never changes with the program, right
before and right after every request, and scales the request's latency by
``REFERENCE_S / probe``: the seconds the request would have taken at the
speed at which the kernel takes ``REFERENCE_S``.  A change to the program
moves the request and not the probe, so it still shows in full; a slow
spell of the machine moves both and cancels.

The kernel does what the package spends its time on: a schoolbook product
of two polynomials with multi-limb integer coefficients, and dict inserts
and lookups keyed by small tuples.
"""

from __future__ import annotations

import time

# About the kernel's best time on a 2-vCPU x86 host with CPython 3.11; the
# scaled latencies are in seconds at that speed.
REFERENCE_S = 0.0004
REPEATS = 3  # a probe is the fastest of this many kernel runs

_A = tuple(3**k + 7 * k for k in range(12, 24))
_B = tuple(5**k + 11 * k for k in range(12, 24))


def kernel() -> int:
    out = [0] * (len(_A) + len(_B) - 1)
    for _ in range(10):
        for r, ca in enumerate(_A):
            for s, cb in enumerate(_B):
                out[r + s] += ca * cb
    table = {}
    for i in range(400):
        table[(i & 15, i >> 4)] = table.get((i & 15, (i >> 4) - 1), 0) + out[i % len(out)]
    return len(table)


def probe() -> float:
    """Seconds of the fastest of ``REPEATS`` kernel runs."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


# Process start-up, mostly system calls and file reads, slows far less than
# the kernel in a slow spell, so set-up is scaled by a probe of its own
# kind: a fresh interpreter that imports numpy, the package's one
# dependency, and nothing of the package.
START_PROBE = ("-c", "import numpy; print('READY', flush=True)")
START_REFERENCE_S = 0.2  # about its time on the host above


def scale_start(seconds: float, start_probe: float) -> float:
    """A process's set-up ``seconds`` at reference speed, from the start-up
    probe launched right before it."""
    return seconds * START_REFERENCE_S / start_probe


def scale(latency: float, before: float, after: float) -> float:
    """``latency`` in seconds at reference speed, from the probes around it."""
    return latency * REFERENCE_S / ((before + after) / 2)
