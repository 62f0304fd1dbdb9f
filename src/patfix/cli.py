"""Command-line interface: tables and sequences read from the route
table ``_ROUTES``, audits, classes, generating functions and avoiders.

Exit codes: 0 success (and everything verified), 1 at least one audited
item is discrepant, 2 usage error, 3 resource cap exceeded, 141 stdout
closed by its reader before all output was written.  Results go
to stdout, diagnostics to stderr.  JSON output renders every count as a
decimal string so exactness survives any consumer.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from typing import Sequence

from . import audit as audit_mod
from . import generators
from .equivalence import divergence_witness, super_wilf_classes, symmetry_classes
from .formulas import evaluate, formula_for_patterns, formula_ids, row_text
from .genfun import gf_for_k, poly_text, series_coefficients
from .oracle import CapExceeded, check_size, enumerate_avoiders, refined_count
from .perms import ALL_PATTERNS, PatternSet

EXIT_OK = 0
EXIT_DISCREPANT = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer the signal ends

# Options that count something; a negative value is a usage error.
_COUNTS = ("n_max", "k", "n", "terms", "cap")


class UsageError(Exception):
    pass


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="patfix",
        description=(
            "Exact refined enumeration of permutations avoiding length-3 "
            "patterns, counted by fixed points."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, patterns=True, cap=True, formats=("plain", "json", "csv")):
        """``formats`` are the ones the command prints; the first is the default."""
        if patterns:
            p.add_argument("--patterns", required=True,
                           help='comma-separated patterns, e.g. "123,132"')
        if cap:
            p.add_argument("--cap", type=int, default=None,
                           help="override the enumeration cap")
        p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("table", help="refined counts for n = 0..n-max")
    add_common(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--method", choices=list(_ROUTES), default="oracle")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("sequence", help="one column of the table as a sequence in n")
    add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--method", choices=list(_ROUTES), default="oracle")
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("verify", help="audit closed forms against the oracle")
    add_common(p, patterns=False, formats=("json", "plain"))
    p.add_argument("--all", action="store_true", help="audit every registered item")
    p.add_argument("--formula", help="audit one formula id, e.g. thm-231-312")
    p.add_argument("--n-max", type=int, default=8)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classes", help="symmetry or empirical equivalence classes")
    add_common(p, patterns=False, formats=("json", "plain"))
    p.add_argument("--size", type=int, choices=range(1, 7), required=True,
                   help="pattern set cardinality, 1..6")
    p.add_argument("--mode", choices=("symmetry", "superwilf"), default="symmetry")
    p.add_argument("--n-max", type=int, default=None,
                   help="table depth for superwilf mode")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("gf", help="generating function and series for {231,321}")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--terms", type=int, required=True)
    add_common(p, patterns=False, cap=False, formats=("plain", "json"))
    p.set_defaults(func=_cmd_gf)

    p = sub.add_parser("avoiders", help="dump the avoiders of a pattern set")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_avoiders)

    return parser


def _parse_patterns(text: str) -> PatternSet:
    try:
        return PatternSet.parse(text)
    except ValueError as exc:
        raise UsageError(f"bad pattern set {text!r}: {exc}") from exc


def _emit(fmt: str, payload, plain, csv=None) -> None:
    """Print one result in the chosen format: ``payload`` as JSON, else
    the lines of ``plain()`` or ``csv()``, so a command formats only the
    lines it prints."""
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    for line in (csv if fmt == "csv" else plain)():
        print(line)


def _join(cells: list, missing: str) -> str:
    """Cells as one comma-separated line, ``missing`` for None."""
    if None not in cells:
        return ",".join(cells)
    return ",".join(missing if v is None else v for v in cells)


def _no_cap(cap: int | None) -> None:
    if cap is not None:
        raise UsageError("--cap applies only to --method oracle and generator")


def _cells(row: list[int], ks) -> list[int]:
    return [row[k] if k < len(row) else 0 for k in ks]


def _oracle_route(ps: PatternSet, n_max: int, cap: int | None):
    check_size(n_max, cap)
    return lambda n, ks: _cells(refined_count(n, ps, cap=cap), ks)


def _formula_route(ps: PatternSet, n_max: int, cap: int | None):
    if (fid := formula_for_patterns(ps)) is None:
        raise UsageError(f"no closed form is registered for {{{ps.canonical()}}}")
    _no_cap(cap)
    return lambda n, ks: [evaluate(fid, n, k) for k in ks]


def _generator_route(ps: PatternSet, n_max: int, cap: int | None):
    if ps not in generators.supported_families():
        raise UsageError(f"no structural generator for {{{ps.canonical()}}}; use --method oracle")
    generators.check_size(n_max, cap)
    return lambda n, ks: _cells(generators.generate_refined(ps, n, cap=cap), ks)


def _gf_route(ps: PatternSet, n_max: int, cap: int | None):
    if ps != PatternSet.parse("231,321"):
        raise UsageError('the gf method only covers --patterns "231,321"')
    _no_cap(cap)
    column = functools.cache(lambda k: series_coefficients(gf_for_k(k), n_max))  # per command
    return lambda n, ks: [column(k)[n] if k <= n else 0 for k in ks]


# --method -> route (ps, n_max, cap).  It refuses a set it has no answer
# for, a --cap it does not read and an oversized n_max before any work,
# then returns values(n, ks): cells (n, k) for each k in ks, 0 past the diagonal.
_ROUTES = {"oracle": _oracle_route, "formula": _formula_route,
           "generator": _generator_route, "gf": _gf_route}


def _cmd_table(args) -> int:
    ps = _parse_patterns(args.patterns)
    values = _ROUTES[args.method](ps, args.n_max, args.cap)
    rows = [row_text(values(n, range(n + 1))) for n in range(args.n_max + 1)]

    def csv():
        yield ",".join(["n"] + [f"k{k}" for k in range(args.n_max + 1)])
        for n, row in enumerate(rows):
            yield _join([str(n), *row, *[None] * (args.n_max - n)], "")

    _emit(args.format, {
        "patterns": ps.canonical(),
        "method": args.method,
        "n_max": args.n_max,
        "rows": [{"n": n, "counts": row} for n, row in enumerate(rows)],
    }, plain=lambda: (f"n={n}: " + _join(row, "-") for n, row in enumerate(rows)), csv=csv)
    return EXIT_OK


def _cmd_sequence(args) -> int:
    ps = _parse_patterns(args.patterns)
    values = _ROUTES[args.method](ps, args.n_max, args.cap)
    column = row_text([values(n, (args.k,))[0] for n in range(args.n_max + 1)])
    _emit(args.format, {
        "patterns": ps.canonical(),
        "k": args.k,
        "method": args.method,
        "n_max": args.n_max,
        "values": column,
    }, plain=lambda: [_join(column, "-")],
       csv=lambda: ["n,value"] + [_join([str(n), v], "") for n, v in enumerate(column)])
    return EXIT_OK


def _report_line(r) -> str:
    line = f"{r.status.upper():10s} {r.item_id} (cells={r.cells_checked}, skipped={r.cells_skipped})"
    if r.counterexample is not None:
        c = r.counterexample
        line += (
            f"  counterexample n={c.n} k={c.k}: "
            f"claimed {c.formula_value}, oracle {c.oracle_value}"
        )
    return line


def _cmd_verify(args) -> int:
    if args.all == bool(args.formula):
        raise UsageError("choose exactly one of --all or --formula ID")
    if args.formula and args.formula not in formula_ids():
        raise UsageError(
            f"unknown formula id {args.formula!r}; known ids: "
            + ", ".join(formula_ids())
        )
    if args.all:
        reports = audit_mod.audit_all(args.n_max, cap=args.cap)
    else:
        reports = [audit_mod.audit_formula(args.formula, args.n_max, cap=args.cap)]
    _emit(args.format, [r.to_json_dict() for r in reports],
          plain=lambda: map(_report_line, reports))
    return EXIT_OK if all(r.verified for r in reports) else EXIT_DISCREPANT


def _cmd_classes(args) -> int:
    if args.mode == "symmetry":
        if args.n_max is not None or args.cap is not None:
            option = "--n-max" if args.n_max is not None else "--cap"
            raise UsageError(f"{option} applies only to --mode superwilf")
        members = [[m.canonical() for m in c] for c in symmetry_classes(args.size)]
        _emit(args.format, {"mode": "symmetry", "size": args.size, "classes": members},
              plain=lambda: (" ; ".join(m) for m in members))
        return EXIT_OK
    if args.n_max is None:
        raise UsageError("--mode superwilf requires --n-max")
    candidates = [PatternSet(c) for c in itertools.combinations(ALL_PATTERNS, args.size)]
    classes = super_wilf_classes(candidates, args.n_max, cap=args.cap)
    members = [[m.canonical() for m in c] for c in classes]
    witnesses = []
    for a, b in itertools.combinations([c[0] for c in classes], 2):
        w = divergence_witness(a, b, args.n_max, cap=args.cap)
        if w is not None:
            witnesses.append({"a": a.canonical(), "b": b.canonical(), "n": w[0], "k": w[1]})
    _emit(args.format, {
        "mode": "superwilf",
        "size": args.size,
        "n_max": args.n_max,
        "empirical": True,
        "classes": members,
        "witnesses": witnesses,
    }, plain=lambda: [" ; ".join(m) for m in members] + [
        f"split {w['a']} | {w['b']} at n={w['n']} k={w['k']}" for w in witnesses
    ])
    return EXIT_OK


def _cmd_gf(args) -> int:
    gf = gf_for_k(args.k)
    numerator, denominator = poly_text(gf.numerator), poly_text(gf.denominator)
    series = [str(c) for c in series_coefficients(gf, args.terms)]
    _emit(args.format, {
        "k": args.k,
        "terms": args.terms,
        "numerator": numerator,
        "denominator": denominator,
        "series": series,
    }, plain=lambda: [f"numerator: {numerator}", f"denominator: {denominator}",
                      "series: " + ",".join(series)])
    return EXIT_OK


def _cmd_avoiders(args) -> int:
    ps = _parse_patterns(args.patterns)
    perms = [p.compact() for p in enumerate_avoiders(args.n, ps, cap=args.cap)]
    _emit(args.format, {
        "patterns": ps.canonical(),
        "n": args.n,
        "count": str(len(perms)),
        "avoiders": perms,
    }, plain=lambda: perms, csv=lambda: ["permutation"] + perms)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        for dest in _COUNTS:
            if (getattr(args, dest, None) or 0) < 0:
                raise UsageError(f"--{dest.replace('_', '-')} must be nonnegative")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull so the exit flush cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (CapExceeded, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP if isinstance(exc, CapExceeded) else EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
