"""Seeded request lists and output checks for the three benchmark workloads.

A workload is a fixed list of requests built from ``--seed`` alone; the
program under test only ever sees the generated inputs.  Every list is
made of *rounds*: one round is a fixed skeleton of request slots whose
cost hardly depends on the seed, and the seed picks the concrete inputs
inside each slot.  That keeps the inputs varied (a claim must hold on a
held-out seed) while the total work of a list stays nearly the same
from seed to seed, so run-to-run spread measures the program and the
machine, not the draw.

* ``formula``  -- cold ``dispatch(pattern, order)``, every Route shape at
  two orders.  Each slot is an antithetic pair: bounds ``u`` in 1..3 from
  the seed and ``4 - u``, whose costs sum to nearly a constant (cost grows
  about linearly in each bound).  The seed also reflects
  (a,b,c,d) -> (a,d,c,b), which reaches the shapes served only through
  reflection.
* ``recursion`` -- cold ``q_poly_recursive`` / ``q_series_recursive``.
  A pattern always comes with its reflection, so the pair checks itself.
* ``cli`` -- one cold ``python -m qmmp132.cli`` process per request.

Every request stays inside the supported ranges (brute force n <= 13,
recursion n <= 64, formula order <= 40), so a correct program fails none.
"""

from __future__ import annotations

import csv
import io
import random
from math import comb

from spans import ROUTE_SHAPES

WORKLOADS = ("formula", "recursion", "cli")

# Each request runs in PASSES passes over the list, and a request's latency
# is the lowest of its passes: on a shared machine the CPU slows for
# seconds at a time, and passes a list-length apart rarely all land in a
# slow spell.
PASSES = 3

# Approximate cost of one pass over one round on a 2-vCPU x86 host
# (CPython 3.11).  The number of rounds is round(seconds / (PASSES *
# ROUND_S)), fixed before anything runs, so a parent and a child commit
# always run identical lists.
ROUND_S = {"formula": 6.0, "recursion": 9.0, "cli": 6.5}

# ---------------------------------------------------------------------------
# formula

FORMULA_ORDERS = (20, 30)
FORMULA_BOUND_MAX = 3


def reflect(pat):
    """(a, b, c, d) -> (a, d, c, b): inversion, which keeps Q_n(x)."""
    a, b, c, d = pat
    return (a, d, c, b)


def _formula_round(rng: random.Random) -> list[tuple]:
    out = []
    for shape, coords in ROUTE_SHAPES.items():
        for order in FORMULA_ORDERS:
            u = [rng.randint(1, FORMULA_BOUND_MAX) for _ in coords]
            for bounds in (u, [FORMULA_BOUND_MAX + 1 - v for v in u]):
                pat = [0, 0, 0, 0]
                for i, v in zip(coords, bounds):
                    pat[i] = v
                pat = tuple(pat)
                if rng.random() < 0.5:
                    pat = reflect(pat)
                out.append((shape, pat, order))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# recursion

# (kind, quads per round, n0, delta choices, a, unordered {b, d}, c choices).
# A quad is a pattern and its reflection at n0 + delta and at n0 - delta:
# the two lengths' costs nearly sum to a constant.  The slot sizes put the
# median inside the third slot's cluster of costs and the tail (ten
# samples beyond) inside the second's; those two keep delta small, so that
# their order statistics do not follow the draw.
RECURSION_SLOTS = (
    ("poly", 1, 60, (4,), 4, (2, 8), (4, 5)),
    ("poly", 3, 44, (0, 1), 2, (2, 6), (2, 3)),
    ("poly", 3, 44, (0, 1), 1, (1, 3), (1, 2)),
    ("series", 4, 44, (0, 1, 2, 3, 4), 1, (1, 2), (1, 2)),
)
RECURSION_MAX_BOX = (40, (8, 8, 8, 8))  # one request, the largest box


def _recursion_round(rng: random.Random) -> list[tuple]:
    out = [("poly", *RECURSION_MAX_BOX, 0)]
    for kind, quads, n0, deltas, a, (b, d), cs in RECURSION_SLOTS:
        for _ in range(quads):
            delta = rng.choice(deltas)
            if rng.random() < 0.5:
                b, d = d, b
            for n in (n0 + delta, n0 - delta):
                pat = (a, b, rng.choice(cs), d)
                pair = len(out)
                out.append((kind, n, pat, pair))
                out.append((kind, n, reflect(pat), pair))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# cli


def _pat_text(pat) -> str:
    return ",".join("e" if v is None else str(v) for v in pat)


def _bounds(rng: random.Random, hi: int) -> tuple[int, int, int, int]:
    return tuple(rng.randint(0, hi) for _ in range(4))


def _avoider(rng: random.Random, n: int) -> tuple[int, ...]:
    """A uniform-ish random 132-avoider: A n B, A above B."""
    if n == 0:
        return ()
    i = rng.randint(1, n)
    left = _avoider(rng, i - 1)
    right = _avoider(rng, n - i)
    return tuple(v + n - i for v in left) + (n,) + right


def _cli_round(rng: random.Random) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []

    def add(*argv):
        out.append(tuple(str(a) for a in argv))

    add("poly", "--pattern", _pat_text(_bounds(rng, 2)), "--n", 13, "--method", "brute")
    add("poly", "--pattern", _pat_text(_bounds(rng, 3)), "--n", 12, "--method", "brute")
    add("check", "--n-max", 25)
    # the cost of xval grows fast with its arguments, so they are fixed
    add("xval", "--entry-bound", 3, "--n-max", 8, "--order", 10)
    add("xval", "--entry-bound", 2, "--n-max", 10, "--order", 14)
    for _ in range(4):
        add("poly", "--pattern", _pat_text(_bounds(rng, 4)), "--n", rng.randint(24, 36), "--method", "rec")
    for _ in range(3):
        add("poly", "--pattern", _pat_text(_bounds(rng, 3)), "--n", rng.randint(12, 16), "--method", "gf")
    for _ in range(4):
        add("series", "--pattern", _pat_text(_bounds(rng, 3)), "--order", rng.randint(14, 18))
    for _ in range(3):
        add("series", "--pattern", _pat_text(_bounds(rng, 4)), "--order", rng.randint(24, 36), "--method", "rec")
    for _ in range(3):
        transform = rng.choice(("x0", "top", f"x^{rng.randint(1, 3)}"))
        argv = ["seq", "--pattern", _pat_text(_bounds(rng, 3)), "--transform", transform, "--n-max", rng.randint(10, 30)]
        if rng.random() < 0.5:
            argv += ["--format", "csv"]
        add(*argv)
    for _ in range(3):
        perm = _avoider(rng, rng.randint(5, 9))
        pat = tuple(None if rng.random() < 0.25 else rng.randint(0, 3) for _ in range(4))
        add("stat", "--perm", "".join(map(str, perm)), "--pattern", _pat_text(pat))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / (PASSES * ROUND_S[workload])))


def generate(workload: str, seed: int, seconds: float) -> list[tuple]:
    """The request list for one run; the same arguments give the same list."""
    make = {"formula": _formula_round, "recursion": _recursion_round, "cli": _cli_round}[workload]
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(rounds_for(workload, seconds)):
        base = len(out)
        reqs = make(rng)
        if workload == "recursion":  # keep pair ids unique across rounds
            reqs = [(k, n, p, pair + base) for k, n, p, pair in reqs]
        out.extend(reqs)
    return out


# ---------------------------------------------------------------------------
# output checks (always run outside the timed region)


def _self_consistent(kind, n, pat, out, engine, catalan) -> bool:
    """Every row of ``out`` sums to its Catalan number, and ``out`` equals
    ``engine``'s result for the reflected pattern.  Needs no second engine,
    so it also checks results that ``engine`` itself produced."""
    rows = enumerate(out.coeffs) if kind == "series" else [(n, out)]
    return all(p.eval_at(1) == catalan(m) for m, p in rows) and out == engine(n, reflect(pat))


def check_formula(reqs, outputs, reference, catalan) -> list[bool]:
    """Each series must equal ``reference(pattern, order)``, the recursion
    engine's series.  The ``engine`` shape is served by that same engine,
    so its results must also be self-consistent."""
    ok = []
    for (shape, pat, order), out in zip(reqs, outputs):
        good = out is not None and out == reference(pat, order)
        if good and shape == "engine":
            good = _self_consistent("series", order, pat, out, lambda n, p: reference(p, n), catalan)
        ok.append(good)
    return ok


def check_recursion(reqs, outputs, catalan) -> list[bool]:
    """Q_n(1) = C_n for every length, and a pattern equals its reflection."""
    first = {}
    for (_, _, _, pair), out in zip(reqs, outputs):
        first.setdefault(pair, out)
    ok = []
    for (kind, n, _, pair), out in zip(reqs, outputs):
        if out is None:
            ok.append(False)
            continue
        rows = enumerate(out.coeffs) if kind == "series" else [(n, out)]
        sums = all(p.eval_at(1) == catalan(m) for m, p in rows)
        ok.append(sums and out == first[pair])
    return ok


def _check_text(n_max: int, registry) -> str:
    lines = []
    for c in registry:
        span = f"n={c.validity}..{n_max}" if c.validity <= n_max else "no n in range"
        lines.append(f"PASS {c.name} ({span})")
    lines.append(f"{len(registry)}/{len(registry)} checks passed")
    return "\n".join(lines)


def _xval_text(entry_bound: int, n_max: int, order: int) -> str:
    patterns = comb(entry_bound + 4, 4)  # a+b+c+d <= entry_bound
    comparisons = patterns * (2 * (n_max + 1) + order + 1)
    return (
        f"cross-validation: entry bound {entry_bound}, lengths <= {n_max}, "
        f"series order {order}\nPASS: {patterns} patterns, {comparisons} "
        "comparisons, no discrepancies"
    )


def expected_cli_stdout(argv, lib) -> str | None:
    """What a correct ``qmmp132`` prints for ``argv``, from the library.

    Polynomials and series come from the recursion engine whatever method
    the request names, so every gf and brute request is also checked
    against an independent engine.  A ``--method rec`` request would be
    checked against its own engine, so its result must also be
    self-consistent; if it is not, there is no correct output (None).
    ``check`` and ``xval`` must print a PASS line for every check; their
    text follows from the arguments.
    """
    cmd, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    if cmd in ("poly", "series", "seq"):
        pat = tuple(int(v) for v in opts["--pattern"].split(","))
    if cmd in ("poly", "series"):
        if cmd == "poly":
            n, engine = int(opts["--n"]), lib.q_poly_recursive
        else:
            n, engine = int(opts["--order"]), lambda n, p: lib.q_series_recursive(p, n)
        out = engine(n, pat)
        if opts.get("--method") == "rec" and not _self_consistent(cmd, n, pat, out, engine, lib.catalan):
            return None
        text = str(out)
    elif cmd == "seq":
        exp = lib.export_sequence(pat, opts["--transform"], int(opts["--n-max"]))
        if opts.get("--format") == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["n", "pattern", "transform", "value"])
            for n, value in exp.rows():
                writer.writerow([n, opts["--pattern"], exp.transform, str(value)])
            return buf.getvalue()
        text = "\n".join(f"{n},{v}" for n, v in exp.rows())
    elif cmd == "stat":
        perm = lib.parse_perm(opts["--perm"])
        text = str(lib.mmp_count(perm, lib.parse_pattern(opts["--pattern"])))
    elif cmd == "check":
        text = _check_text(int(opts["--n-max"]), lib.default_registry())
    elif cmd == "xval":
        text = _xval_text(int(opts["--entry-bound"]), int(opts["--n-max"]), int(opts["--order"]))
    else:
        raise ValueError(f"no expectation for {argv!r}")
    return text + "\n"
