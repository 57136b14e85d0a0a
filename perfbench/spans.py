"""Span tracing around calls into qmmp132, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``qmmp132`` module namespace that binds it, in the keyword defaults of
``qmmp132`` functions (``cross_validate`` takes its engines that way) and,
for methods, on the class.  One wrapper object per function is used
everywhere, so identity tests in the package (``rec_fn is
q_poly_recursive``) still hold.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, request, outer_start, outer_end,
info]``.  ``start``/``end`` bracket the wrapped call; ``outer_*`` also cover
the wrapper's own bookkeeping, and that wider interval is what a parent
subtracts to get its self time, so the bookkeeping does not inflate the
parent's self time.  Spans stay in memory; ``dump`` writes them out.

``XPoly.__mul__`` is deliberately not traced: one order-40 request makes
about 75k calls to it, and a wrapper on each would distort every timing.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from math import comb

DISPATCH = "gf_formulas.dispatch"
# Route shape -> coordinates of (a, b, c, d) that carry its nonzero bounds
ROUTE_SHAPES = {
    "q1": (0,),
    "q3": (2,),
    "q13": (0, 2),
    "q14": (0, 3),
    "q23": (1, 2),
    "q24": (1, 3),
    "q123": (0, 1, 2),
    "q234": (1, 2, 3),
    "q124": (0, 1, 3),
    "q1234": (0, 1, 2, 3),
    "engine": (1,),
}

# (name, unit, better) for every per-layer metric a traced run reports
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("poly_series.tmul.calls", "count", "lower"),
    ("poly_series.tmul.self_s", "s", "lower"),
    ("poly_series.tmul.coef_mults", "count", "lower"),
    ("poly_series.tmul.ns_per_coef_mult", "ns", "lower"),
    ("poly_series.reciprocal.calls", "count", "lower"),
    ("poly_series.reciprocal.self_s", "s", "lower"),
    ("poly_series.solve_q00k0.self_s", "s", "lower"),
    ("poly_series.format.self_s", "s", "lower"),
    ("gf_formulas.dispatch.calls", "count", "lower"),
    ("gf_formulas.dispatch.self_s", "s", "lower"),
    ("gf_formulas.dispatch.hit_ratio", "ratio", "higher"),
    ("gf_formulas.subseries", "count", "lower"),
    *((f"gf_formulas.route.{s}_s", "s", "lower") for s in ROUTE_SHAPES),
    ("dist_engine.rec.calls", "count", "lower"),
    ("dist_engine.rec.self_s", "s", "lower"),
    ("dist_engine.rec.rows", "count", "lower"),
    ("dist_engine.rec.inner_iters", "count", "lower"),
    ("dist_engine.rec.ns_per_inner_iter", "ns", "lower"),
    ("dist_engine.brute.calls", "count", "lower"),
    ("dist_engine.brute.self_s", "s", "lower"),
    ("dist_engine.brute.hit_ratio", "ratio", "higher"),
    ("dist_engine.brute.tensor_bytes", "B", "lower"),
    ("dist_engine.avoiders.self_s", "s", "lower"),
    ("analysis.check.self_s", "s", "lower"),
    ("analysis.xval.self_s", "s", "lower"),
    ("analysis.xval.comparisons", "count", "higher"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def recursion_box(n: int, pat):
    """Memo keys a cold ``q_poly_recursive(n, pat)`` fills, in fill order.

    Mirrors the table fill: bounds are clamped to n, and a length-m row
    clamps b and d to m.
    """
    if n <= 0:
        return
    a, b, c, d = (min(v, n) for v in pat)
    for m in range(1, n + 1):
        for aa in range(a + 1):
            for bb in range(min(b, m) + 1):
                for dd in range(min(d, m) + 1):
                    yield (m, aa, bb, c, dd)


def route_of(choose_route):
    """``(pattern, order) -> (shape, canonical pattern)`` using the package's
    ``choose_route``.  The canonical pattern is the one the shape function
    caches under; it differs from the request when dispatch reflected it."""

    def of(pat, order):
        req = choose_route(pat, order)
        shape = req.route.value
        if shape == "engine":
            return shape, tuple(pat)
        canonical = [0, 0, 0, 0]
        for i, v in zip(ROUTE_SHAPES[shape], req.args):
            canonical[i] = v
        return shape, tuple(canonical)

    return of


def coef_mults(u, v) -> int:
    """Coefficient products a schoolbook series product performs:
    sum of len(u_i) * len(v_j) over nonzero pairs with i + j <= order."""
    lu = [len(p.coeffs) for p in u.coeffs]
    lv = [len(p.coeffs) for p in v.coeffs]
    top = u.order
    return sum(la * sum(lv[: top + 1 - i]) for i, la in enumerate(lu) if la)


class Tracer:
    """Collects spans for one process; ``request`` tags the spans that follow."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._seen: dict = {}  # dispatch key -> object it last returned
        self._filled: set = set()  # mirror of the recursion memo's keys
        self._undo: list = []

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name, fn, pre=None, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = clock()
            ctx = pre(args) if pre is not None else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, t_in, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                rec[1] = clock()
                out = fn(*args, **kwargs)
            finally:
                rec[2] = rec[6] = clock()
                stack.pop()
            if post is not None:
                rec[7] = post(args, out, ctx)
                rec[6] = clock()
            return out

        return traced

    def _dispatch_pre(self, args):
        return not self._seen

    def _dispatch_post(self, args, out, cold):
        key = (tuple(args[0]), args[1])
        hit = self._seen.get(key) is out
        self._seen[key] = out
        return [list(key[0]), key[1], hit, cold]

    def _rec_post(self, args, out, ctx):
        n, pat = args[0], args[1]
        rows = inner = 0
        filled = self._filled
        for key in recursion_box(n, pat):
            if key not in filled:
                filled.add(key)
                rows += 1
                inner += key[0]
        return [rows, inner]

    def _hook(self, fn, after):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            out = fn(*args, **kwargs)
            after()
            return out

        return hooked

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Install every wrapper; the ``qmmp132`` package must be imported."""
        from qmmp132 import analysis, cli, dist_engine, gf_formulas, poly_series

        tseries, xpoly = poly_series.TSeries, poly_series.XPoly
        for cls, attr, name, post in (
            (tseries, "__mul__", "poly_series.tmul", lambda a, o, c: coef_mults(a[0], a[1])),
            (tseries, "reciprocal", "poly_series.reciprocal", None),
            (tseries, "__str__", "poly_series.format", None),
            (xpoly, "__str__", "poly_series.format", None),
        ):
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, post=post))

        wrappers = {}
        for fn, replacement in (
            (cli.main, self._wrap("cli.main", cli.main)),
            (analysis.check_closed_forms, self._wrap("analysis.check", analysis.check_closed_forms)),
            (
                analysis.cross_validate,
                self._wrap("analysis.xval", analysis.cross_validate, post=lambda a, o, c: o.comparisons),
            ),
            (
                gf_formulas.dispatch,
                self._wrap(DISPATCH, gf_formulas.dispatch, self._dispatch_pre, self._dispatch_post),
            ),
            (poly_series.solve_q00k0, self._wrap("poly_series.solve_q00k0", poly_series.solve_q00k0)),
            (
                dist_engine.q_poly_recursive,
                self._wrap("dist_engine.rec", dist_engine.q_poly_recursive, post=self._rec_post),
            ),
            (dist_engine.q_series_recursive, self._wrap("dist_engine.rec", dist_engine.q_series_recursive)),
            (
                dist_engine.q_poly_bruteforce,
                self._wrap("dist_engine.brute", dist_engine.q_poly_bruteforce, post=lambda a, o, c: a[0]),
            ),
            (dist_engine.avoiders_array, self._wrap("dist_engine.avoiders", dist_engine.avoiders_array)),
            (gf_formulas.clear_gf_cache, self._hook(gf_formulas.clear_gf_cache, self._seen.clear)),
            (
                dist_engine.clear_recursion_memo,
                self._hook(dist_engine.clear_recursion_memo, self._filled.clear),
            ),
        ):
            wrappers[id(fn)] = (fn, replacement)

        def swap(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        # keyword defaults first: once the module attributes are swapped the
        # originals, whose defaults need patching, are no longer reachable
        modules = [m for k, m in sys.modules.items() if k == "qmmp132" or k.startswith("qmmp132.")]
        for mod in modules:
            for value in list(vars(mod).values()):
                if getattr(value, "__code__", None) is None:
                    continue
                for attr in ("__defaults__", "__kwdefaults__"):
                    old = getattr(value, attr)
                    items = old.values() if isinstance(old, dict) else old or ()
                    if all(swap(v) is v for v in items):
                        continue
                    if isinstance(old, dict):
                        new = {k: swap(v) for k, v in old.items()}
                    else:
                        new = tuple(swap(v) for v in old)
                    self._undo.append((value, attr, old))
                    setattr(value, attr, new)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                new = swap(value)
                if new is not value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ---------------------------------------------------------

    def dump(self, path) -> None:
        """One JSON object per line: name, start, end, parent, request, info."""
        with open(path, "w") as fh:
            for name, start, end, parent, request, _, _, info in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "request": request}
                if info is not None:
                    row["info"] = info
                fh.write(json.dumps(row) + "\n")


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def layer_metrics(spans, route_of) -> dict:
    """Per-layer numbers from a span list.

    ``route_of`` is ``route_of(choose_route)`` from this module.  Self
    time is a span's duration minus the outer intervals of its children.
    Metrics of a layer the run never reached are 0.
    """
    count = len(spans)
    self_time = [s[2] - s[1] for s in spans]
    child_names: list[set] = [set() for _ in range(count)]
    top_dispatch = [-1] * count
    for i, (name, _, _, parent, _, o_start, o_end, _) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= o_end - o_start
            child_names[parent].add(name)
            top_dispatch[i] = top_dispatch[parent]
        if name == DISPATCH and top_dispatch[i] < 0:
            top_dispatch[i] = i

    def total(name):
        return sum(t for s, t in zip(spans, self_time) if s[0] == name)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    out = {}
    out["cli.main.self_s"] = total("cli.main")
    out["poly_series.tmul.calls"] = calls("poly_series.tmul")
    out["poly_series.tmul.self_s"] = total("poly_series.tmul")
    mults = sum(s[7] for s in spans if s[0] == "poly_series.tmul" and s[7] is not None)
    out["poly_series.tmul.coef_mults"] = mults
    out["poly_series.tmul.ns_per_coef_mult"] = out["poly_series.tmul.self_s"] * 1e9 / mults if mults else 0.0
    out["poly_series.reciprocal.calls"] = calls("poly_series.reciprocal")
    out["poly_series.reciprocal.self_s"] = total("poly_series.reciprocal")
    out["poly_series.solve_q00k0.self_s"] = total("poly_series.solve_q00k0")
    out["poly_series.format.self_s"] = total("poly_series.format")

    dispatches = [i for i, s in enumerate(spans) if s[0] == DISPATCH and s[7] is not None]
    out["gf_formulas.dispatch.calls"] = calls(DISPATCH)
    out["gf_formulas.dispatch.self_s"] = total(DISPATCH)
    hits = sum(1 for i in dispatches if spans[i][7][2])
    out["gf_formulas.dispatch.hit_ratio"] = hits / len(dispatches) if dispatches else 0.0
    # sub-series a top-level request pulls in: the keys the gf cache holds
    # after it, i.e. each requested key plus its canonical (reflected) form
    keys: dict[int, set] = {}
    cold: dict[str, list] = {s: [] for s in ROUTE_SHAPES}
    for i in dispatches:
        pat, order, _, was_cold = spans[i][7]
        shape, canonical = route_of(tuple(pat), order)
        keys.setdefault(top_dispatch[i], set()).update({(tuple(pat), order), (canonical, order)})
        if top_dispatch[i] == i and was_cold:
            cold[shape].append(spans[i][2] - spans[i][1])
    out["gf_formulas.subseries"] = statistics.median(len(k) for k in keys.values()) if keys else 0
    for shape, times in cold.items():
        out[f"gf_formulas.route.{shape}_s"] = statistics.median(times) if times else 0.0

    out["dist_engine.rec.calls"] = calls("dist_engine.rec")
    out["dist_engine.rec.self_s"] = total("dist_engine.rec")
    work = [s[7] for s in spans if s[0] == "dist_engine.rec" and s[7] is not None]
    out["dist_engine.rec.rows"] = sum(w[0] for w in work)
    inner = sum(w[1] for w in work)
    out["dist_engine.rec.inner_iters"] = inner
    out["dist_engine.rec.ns_per_inner_iter"] = out["dist_engine.rec.self_s"] * 1e9 / inner if inner else 0.0

    brute = [i for i, s in enumerate(spans) if s[0] == "dist_engine.brute"]
    rebuilt = [i for i in brute if "dist_engine.avoiders" in child_names[i] and spans[i][7] is not None]
    out["dist_engine.brute.calls"] = len(brute)
    out["dist_engine.brute.self_s"] = total("dist_engine.brute")
    out["dist_engine.brute.hit_ratio"] = (len(brute) - len(rebuilt)) / len(brute) if brute else 0.0
    out["dist_engine.brute.tensor_bytes"] = sum(
        _catalan(spans[i][7]) * spans[i][7] * 4 for i in rebuilt
    )
    out["dist_engine.avoiders.self_s"] = total("dist_engine.avoiders")
    out["analysis.check.self_s"] = total("analysis.check")
    out["analysis.xval.self_s"] = total("analysis.xval")
    out["analysis.xval.comparisons"] = sum(
        s[7] for s in spans if s[0] == "analysis.xval" and s[7] is not None
    )
    return out
