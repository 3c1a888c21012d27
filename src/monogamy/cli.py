"""Command-line front end.

Subcommands: value, table, verify, spectrum, matchings, ppt-region,
dual-scan, cycle. Rationals are printed as "num/den" (never floats) with
a decimal column for humans. Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 budget exceeded (d^n, or the number of
matchings), 4 numeric eigensolver did not converge, 5 internal error (any
other exception).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from fractions import Fraction

from . import checks
from . import extendibility as ext
from .budget import ENV_VAR, BudgetExceededError, check_budget, current_budget
from .diagrams import jm_sum_brauer, jm_sum_sym, projectors
from .graphs import edge_average_hamiltonian, graph_from_json, iter_perfect_matchings, make_family
from .spectral import NoConvergenceError, lambda_max, sym_eigen

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_NO_CONVERGENCE = 4
EXIT_INTERNAL = 5

CLI_FAMILIES = ("werner", "brauer", "isotropic", "isotropic-prime", "isotropic-bipartite")


def _family_key(cli_name: str) -> str:
    return cli_name.replace("-", "_")


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _int_at_least_2(text: str) -> int:
    """argparse type: an integer >= 2, rejected with exit code 2 otherwise."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2: {value}")
    return value


# the largest |x| that dual-scan samples: H(x) has entries of order |x|, and
# the Lanczos norms square them, so from about 1e154 on they overflow and
# the printed lambda_max is wrong
SCAN_BOUND = 1e100


def _scan_point(text: str) -> float:
    """argparse type: a finite float with |x| <= SCAN_BOUND, rejected with exit code 2 otherwise."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite: {text!r}")
    if abs(value) > SCAN_BOUND:
        raise argparse.ArgumentTypeError(f"|x| must be at most {SCAN_BOUND:g}: {text!r}")
    return value


def _load_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(fh.read())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monogamy",
        description="Exact graph-extendibility values of Werner, isotropic and Brauer states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser("value", help="one closed-form value")
    p_value.add_argument("--family", choices=CLI_FAMILIES, required=True)
    p_value.add_argument("--n", type=int, required=True)
    p_value.add_argument("--d", type=int, required=True)
    p_value.add_argument("--m", type=int, help="second part size for the bipartite family")
    p_value.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p_table = sub.add_parser("table", help="grid of values over 2..max in both n and d")
    p_table.add_argument("--family", choices=CLI_FAMILIES[:4], required=True)
    p_table.add_argument("--max", type=_int_at_least_2, default=9)
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p_verify = sub.add_parser("verify", help="cross-check closed forms against oracles")
    p_verify.add_argument(
        "--all", action="store_true", help="accepted for compatibility; verify runs every check"
    )
    p_verify.add_argument("--budget", type=int, default=None, help="dense-matrix cap on d^n")

    p_spec = sub.add_parser("spectrum", help="eigenvalue multiset of a named operator")
    p_spec.add_argument(
        "--what", choices=("jm-sym", "jm-brauer", "werner", "brauer"), required=True
    )
    p_spec.add_argument("--n", type=int)
    p_spec.add_argument("--d", type=int, required=True)
    p_spec.add_argument("--graph", help="graph JSON file (for werner/brauer Hamiltonians)")
    p_spec.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p_match = sub.add_parser("matchings", help="perfect matchings of a graph")
    p_source = p_match.add_mutually_exclusive_group(required=True)
    p_source.add_argument("--complete", type=int, help="use the complete graph K_n")
    p_source.add_argument("--graph", help="graph JSON file")
    p_match.add_argument("--count", action="store_true", help="print only the count")
    p_match.add_argument("--budget", type=int, default=None, help="cap on the number of matchings")

    p_ppt = sub.add_parser("ppt-region", help="classify a Brauer state (p, q, d)")
    p_ppt.add_argument("--p", type=_parse_rational, required=True)
    p_ppt.add_argument("--q", type=_parse_rational, required=True)
    p_ppt.add_argument("--d", type=_int_at_least_2, required=True)
    p_ppt.add_argument(
        "--prime", action="store_true", help="interpret (p, q) as W/F/I weights (p', q')"
    )

    p_scan = sub.add_parser("dual-scan", help="sample (x, lambda_max(H(x))) for the isotropic dual")
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--d", type=int, required=True)
    p_scan.add_argument("--lo", type=_scan_point, default=-1.0,
                        help=f"first x, finite with |x| <= {SCAN_BOUND:g} (default -1)")
    p_scan.add_argument("--hi", type=_scan_point, default=1.0,
                        help=f"last x, finite with |x| <= {SCAN_BOUND:g} (default 1)")
    p_scan.add_argument("--points", type=_int_at_least_2, default=41)
    p_scan.add_argument("--budget", type=int, default=None)
    p_scan.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p_cycle = sub.add_parser("cycle", help="Werner values on even cycles at d=2")
    p_cycle.add_argument("--max", type=int, default=10)
    p_cycle.add_argument("--budget", type=int, default=None)

    return parser


def cmd_value(args, out) -> int:
    family = _family_key(args.family)
    result = ext.compute_value(family, args.n, args.d, args.m)
    val = result.value
    if args.format == "json":
        json.dump(value_to_json(result), out)
        out.write("\n")
    elif args.format == "csv":
        keys = _record_keys(result)
        writer = csv.writer(out)
        writer.writerow(keys + ["value", "decimal", "method"])
        place = [getattr(result, k) for k in keys]
        writer.writerow(place + [frac_str(val), float(val), result.method])
    else:
        out.write(f"{frac_str(val)} ({float(val):.10g})\n")
    return EXIT_OK


def _record_keys(result: ext.ExtendibilityValue) -> list[str]:
    """The fields that place a value: m only for the bipartite graph K_{n,m}."""
    return ["family", "n", "d"] if result.m is None else ["family", "n", "m", "d"]


def value_to_json(result: ext.ExtendibilityValue) -> dict:
    return {
        **{k: getattr(result, k) for k in _record_keys(result)},
        "value": {"num": result.value.numerator, "den": result.value.denominator},
        "method": result.method,
    }


def value_from_json(obj: dict) -> ext.ExtendibilityValue:
    return ext.ExtendibilityValue(
        Fraction(obj["value"]["num"], obj["value"]["den"]),
        obj["family"],
        obj["n"],
        obj["d"],
        obj.get("m"),
        obj["method"],
    )


def table_cells(family: str, top: int):
    fn = ext.CLOSED_FORMS[family]
    return [[fn(n, d) for n in range(2, top + 1)] for d in range(2, top + 1)]


def cmd_table(args, out) -> int:
    family = _family_key(args.family)
    ns = list(range(2, args.max + 1))
    if args.format == "json":
        json.dump([value_to_json(ext.compute_value(family, n, d)) for d in ns for n in ns], out)
        out.write("\n")
        return EXIT_OK
    cells = table_cells(family, args.max)
    if args.format == "csv":
        writer = csv.writer(out)
        writer.writerow(["d\\n"] + [str(n) for n in ns])
        for d, row in zip(ns, cells):
            writer.writerow([d] + [frac_str(v) for v in row])
    else:
        width = max(len(frac_str(v)) for row in cells for v in row)
        out.write("d\\n " + " ".join(f"{n:>{width}}" for n in ns) + "\n")
        for d, row in zip(ns, cells):
            out.write(f"{d:>4} " + " ".join(f"{frac_str(v):>{width}}" for v in row) + "\n")
    return EXIT_OK


def cmd_verify(args, out) -> int:
    failed = 0
    for name, ok, detail in checks.run_all(args.budget):
        status = "PASS" if ok else "FAIL"
        out.write(f"{status} {name}: {detail}\n")
        if not ok:
            failed += 1
    out.write(f"{'OK' if failed == 0 else 'FAILED'} ({failed} failing checks)\n")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def cmd_spectrum(args, out) -> int:
    d = args.d
    graph_op = args.what in ("werner", "brauer")
    if args.graph and not graph_op:
        raise ValueError(f"spectrum --what {args.what} acts on K_n and takes --n, not --graph")
    if args.graph and args.n is not None:
        raise ValueError(f"spectrum --what {args.what} takes --n or --graph, not both")
    g = _load_graph(args.graph) if args.graph else None
    n = g.vertex_count if g is not None else args.n
    if n is None:
        source = "--n or --graph" if graph_op else "--n"
        raise ValueError(f"spectrum --what {args.what} needs {source}")
    check_budget(n, d)
    if args.what == "jm-sym":
        op = jm_sum_sym(n, d)
    elif args.what == "jm-brauer":
        op = jm_sum_brauer(n, d)
    else:
        g = g or make_family("complete", n)
        p_empty, p_11, _ = projectors(d)
        op = edge_average_hamiltonian(g, p_11 if args.what == "werner" else p_empty)
    spec = sym_eigen(op)
    if args.format == "json":
        json.dump(
            {"eigenvalues": list(spec.eigenvalues), "multiplicities": list(spec.multiplicities)},
            out,
        )
        out.write("\n")
    elif args.format == "csv":
        writer = csv.writer(out)
        writer.writerow(["eigenvalue", "multiplicity"])
        for v, m in spec.as_pairs():
            writer.writerow([v, m])
    else:
        for v, m in spec.as_pairs():
            out.write(f"{v:.10g} x {m}\n")
    return EXIT_OK


def cmd_matchings(args, out) -> int:
    cap = current_budget(args.budget)
    if args.complete is not None:
        g = make_family("complete", args.complete)
    else:
        g = _load_graph(args.graph)
    # one past the cap is enough to refuse; K_40 alone has 39!! matchings
    matchings = list(itertools.islice(iter_perfect_matchings(g), cap + 1))
    if len(matchings) > cap:
        raise BudgetExceededError(
            f"the graph has more than {cap} perfect matchings, the budget; "
            f"pass --budget or set {ENV_VAR} to raise the cap"
        )
    if args.count:
        out.write(f"{len(matchings)}\n")
    else:
        for m in matchings:
            out.write(" ".join(f"({u},{v})" for u, v in m) + "\n")
        out.write(f"total {len(matchings)}\n")
    return EXIT_OK


def cmd_ppt(args, out) -> int:
    d = args.d
    if args.prime:
        pp, qq = args.p, args.q
        p, q = ext.brauer_wfi_to_proj(pp, qq, d)
    else:
        p, q = args.p, args.q
        pp, qq = ext.brauer_proj_to_wfi(p, q, d)
    positive = ext.is_positive_brauer_prime(pp, qq, d)
    if not positive or p < 0 or q < 0 or p + q > 1:
        out.write(f"invalid: not a state (p={frac_str(p)}, q={frac_str(q)}, d={d})\n")
        return EXIT_OK
    sep = ext.brauer_is_separable(p, q, d)
    ppt = ext.brauer_is_ppt(p, q, d)
    kind = "separable" if sep else "entangled"
    out.write(
        f"{kind} (p={frac_str(p)}, q={frac_str(q)}, p'={frac_str(pp)}, q'={frac_str(qq)}, "
        f"d={d}, ppt={'yes' if ppt else 'no'})\n"
    )
    return EXIT_OK


def cmd_dual_scan(args, out) -> int:
    n, d = args.n, args.d
    check_budget(n, d, args.budget)
    # a convex combination of the bounds stays finite where hi - lo would overflow
    ts = [i / (args.points - 1) for i in range(args.points)]
    xs = [args.lo * (1 - t) + args.hi * t for t in ts]
    rows = [(x, lambda_max(ext.iso_dual_hamiltonian(n, d, x), d ** n)) for x in xs]
    if args.format == "json":
        json.dump([{"x": x, "lambda_max": v} for x, v in rows], out)
        out.write("\n")
    elif args.format == "csv":
        writer = csv.writer(out)
        writer.writerow(["x", "lambda_max"])
        for x, v in rows:
            writer.writerow([x, v])
    else:
        for x, v in rows:
            out.write(f"{x:+.10f} {v:.10f}\n")
    return EXIT_OK


def cmd_cycle(args, out) -> int:
    cap = current_budget(args.budget)  # checked even when --max runs no cycle
    for n in range(4, args.max + 1, 2):
        val = ext.cycle_werner_value(n, cap)
        out.write(f"C_{n}: {val:.10f}\n")
    out.write(f"ln(2) limit: {ext.LN2:.10f}\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    handlers = {
        "value": cmd_value,
        "table": cmd_table,
        "verify": cmd_verify,
        "spectrum": cmd_spectrum,
        "matchings": cmd_matchings,
        "ppt-region": cmd_ppt,
        "dual-scan": cmd_dual_scan,
        "cycle": cmd_cycle,
    }
    try:
        return handlers[args.command](args, out)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NoConvergenceError as exc:
        print(f"error: numeric eigensolver did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # so that exit 1 means only "a verify check failed"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
