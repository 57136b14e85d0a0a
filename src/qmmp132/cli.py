"""Command-line interface.

Subcommands:

* ``poly``   — one distribution polynomial Q_n(x), by any engine.
* ``series`` — the truncated generating series, one ``t^n:`` line per order.
* ``stat``   — the match count of a single pattern on a single permutation.
* ``seq``    — an integer-sequence export (x=0 column, fixed coefficient,
  or leading coefficient), plain ``n,value`` rows or CSV.
* ``check``  — run the closed-form registry against the recursion engine.
* ``xval``   — cross-validate the three engines over a pattern family.

Exit codes: 0 — success / all checks passed; 1 — a verification check
failed; 2 — usage error or resource limit.  All output is 7-bit ASCII.
"""

from __future__ import annotations

import argparse
import sys

from .dist_engine import q_poly_bruteforce, q_poly_recursive, q_series_recursive
from .gf_formulas import dispatch, q_poly_gf
from .mmp_stat import format_pattern, mmp_count, parse_pattern
from .perm_core import ResourceLimitError, parse_digits, parse_perm

__all__ = ["main"]

DEFAULT_TRUNCATION = 12


def _int(text: str) -> int:
    """ASCII digits, spaces stripped; a '-' is kept for the length check."""
    body = text.strip()
    n = parse_digits(body.removeprefix("-"))
    if n is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!a}")
    return -n if body.startswith("-") else n


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qmmp132",
        description=(
            "Exact distribution of quadrant marked mesh pattern matches "
            "over 132-avoiding permutations."
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)

    # read when the parser is built: a wrapper on a module name still runs
    engines = {"brute": q_poly_bruteforce, "rec": q_poly_recursive, "gf": q_poly_gf}
    p = sub.add_parser("poly", help="one distribution polynomial Q_n(x)")
    p.set_defaults(run=_cmd_poly, engines=engines)
    p.add_argument("--pattern", required=True, help="bounds a,b,c,d")
    p.add_argument("--n", type=_int, required=True, help="permutation length")
    p.add_argument(
        "--method",
        choices=tuple(engines),
        default="rec",
        help="engine: enumeration, structural recursion (default), or formulas",
    )

    engines = {"rec": q_series_recursive, "gf": dispatch}
    s = sub.add_parser("series", help="truncated generating series")
    s.set_defaults(run=_cmd_series, engines=engines)
    s.add_argument("--pattern", required=True, help="bounds a,b,c,d")
    s.add_argument(
        "--order", type=_int, default=DEFAULT_TRUNCATION, help="truncation order"
    )
    s.add_argument(
        "--method",
        choices=tuple(engines),
        default="gf",
        help="engine: structural recursion or formulas (default)",
    )

    st = sub.add_parser("stat", help="match count on one permutation")
    st.set_defaults(run=_cmd_stat)
    st.add_argument("--perm", required=True, help="permutation, e.g. 471569283")
    st.add_argument(
        "--pattern", required=True, help="bounds a,b,c,d; e marks an empty quadrant"
    )

    q = sub.add_parser("seq", help="integer sequence export")
    q.set_defaults(run=_cmd_seq)
    q.add_argument("--pattern", required=True, help="bounds a,b,c,d")
    q.add_argument(
        "--transform",
        required=True,
        help="x0 (zero-match column), x^R (fixed coefficient), or top",
    )
    # the default, analysis.DEFAULT_SEQUENCE_TERMS, is read when seq runs,
    # so that building the parser does not import analysis
    q.add_argument("--n-max", type=_int, help="last length")
    q.add_argument("--format", choices=("plain", "csv"), default="plain")

    c = sub.add_parser("check", help="run the closed-form registry")
    c.set_defaults(run=_cmd_check)
    c.add_argument("--only", help="run a single named check")
    # as for seq, the default (analysis.DEFAULT_CHECK_N_MAX) is read at run time
    c.add_argument("--n-max", type=_int, help="largest length checked")

    x = sub.add_parser("xval", help="cross-validate the three engines")
    x.set_defaults(run=_cmd_xval)
    x.add_argument("--entry-bound", type=_int, required=True, help="max of a+b+c+d")
    x.add_argument("--n-max", type=_int, required=True, help="largest length")
    x.add_argument("--order", type=_int, required=True, help="series order")
    return top


def _cmd_poly(args) -> int:
    print(args.engines[args.method](args.n, parse_pattern(args.pattern)))
    return 0


def _cmd_series(args) -> int:
    print(args.engines[args.method](parse_pattern(args.pattern), args.order))
    return 0


def _cmd_stat(args) -> int:
    perm = parse_perm(args.perm)
    pat = parse_pattern(args.pattern)
    print(mmp_count(perm, pat))
    return 0


def _cmd_seq(args) -> int:
    from .analysis import DEFAULT_SEQUENCE_TERMS, export_sequence

    pat = parse_pattern(args.pattern)
    n_max = DEFAULT_SEQUENCE_TERMS if args.n_max is None else args.n_max
    exp = export_sequence(pat, args.transform, n_max)
    if args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "pattern", "transform", "value"])
        patstr = format_pattern(exp.pattern)
        for n, value in exp.rows():
            writer.writerow([n, patstr, exp.transform, str(value)])
    else:
        for n, value in exp.rows():
            print(f"{n},{value}")
    return 0


def _cmd_check(args) -> int:
    from .analysis import DEFAULT_CHECK_N_MAX, check_closed_forms, default_registry

    registry = default_registry()
    if args.only is not None:
        registry = tuple(c for c in registry if c.name == args.only)
        if not registry:
            raise ValueError(f"no check named {args.only!r}")
    n_max = DEFAULT_CHECK_N_MAX if args.n_max is None else args.n_max
    report = check_closed_forms(registry, n_max=n_max)
    print(report)
    return 0 if report.all_passed else 1


def _cmd_xval(args) -> int:
    from .analysis import cross_validate

    report = cross_validate(args.entry_bound, args.n_max, args.order)
    print(report)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.run(args)
    except (ResourceLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
