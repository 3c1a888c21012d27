"""Seeded workload inputs, one timed pass over them, and the correctness gate.

Every workload is a list of items. A pass times each item's program call
on its own, then checks the output against an exact closed form or a
bound. An item that raises, returns a value outside its tolerance, or
(for the verify suite) prints a FAIL line counts as failed; the pass
goes on. The benchmark's tolerances are fixed here, not read from the
package, so loosening the package's own checks cannot loosen this gate.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from monogamy import cli, graphs
from monogamy import extendibility as ext

ORACLE_TOL = 1e-9  # numeric edge-averaged oracle vs closed form
SPEC_TOL = 1e-8  # golden-section isotropic dual vs closed form
LN2 = math.log(2.0)

VERIFY_ARGV = ("verify", "--all")
VERIFY_CHECKS = 13

# oracle_scale: graphs with 2048 < d^n <= ORACLE_BUDGET, all on the sparse Lanczos path
ORACLE_BUDGET = 16384
ORACLE_GRAPHS = (
    # (family, n, m, which, d)
    ("complete", 12, None, "werner", 2),
    ("complete", 8, None, "werner", 3),
    ("complete", 6, None, "brauer", 4),
    ("cycle", 14, None, "werner", 2),
    ("complete_bipartite", 5, 7, "brauer", 2),
)
ORACLE_ISO_POINTS = ((7, 3), (5, 5))

# exact_minimax: every 2 <= n, d <= MINIMAX_MAX pair, plus PPT points per d
MINIMAX_MAX = 16
PPT_POINTS_PER_D = 100
PPT_MAX_DEN = 64


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[], Any]
    # output -> (passed, |numeric - exact| / tolerance, or None when not numeric)
    check: Callable[[Any], tuple[bool, float | None]]


# ---------------------------------------------------------------------------
# inputs

def _edges(family: str, n: int, m: int | None) -> list[tuple[int, int]]:
    if family == "complete":
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    if family == "cycle":
        return [(v, (v + 1) % n) for v in range(n)]
    if family == "complete_bipartite":
        return [(u, n + v) for u in range(n) for v in range(m)]
    raise ValueError(f"unknown family {family!r}")


def graph_json(family: str, n: int, m: int | None, rng: random.Random) -> str:
    """The graph with its vertices relabelled by a seeded permutation, as custom JSON."""
    vertices = n + (m or 0)
    perm = rng.sample(range(vertices), vertices)
    edges = sorted(sorted((perm[u], perm[v])) for u, v in _edges(family, n, m))
    return '{"n": %d, "edges": %s, "family": "custom"}' % (vertices, edges)


def closed_form(family: str, n: int, m: int | None, which: str, d: int) -> Fraction | None:
    """Exact edge-averaged value of a graph family, or None where none is known."""
    if family == "complete":
        return ext.p_w_complete(n, d) if which == "werner" else ext.p_b_complete(n, d)
    if family == "complete_bipartite" and which == "brauer":
        return ext.p_iso_bipartite(n, m, d)
    return None


def _within(value: float, exact: Fraction, tol: float) -> tuple[bool, float]:
    err = abs(value - float(exact)) / tol
    return err <= 1.0, err


def _oracle_graph_item(family, n, m, which, d, rng) -> Item:
    text = graph_json(family, n, m, rng)
    name = {"complete": f"K_{n}", "cycle": f"C_{n}", "complete_bipartite": f"K_{n},{m}"}[family]
    label = f"{which} {name}@{d}"

    def check(value):
        if family == "cycle":
            return LN2 < value <= 0.75, None
        return _within(value, closed_form(family, n, m, which, d), ORACLE_TOL)

    return Item(
        label,
        lambda: ext.p_avg_numeric(graphs.graph_from_json(text), which, d, budget=ORACLE_BUDGET),
        check,
    )


def _iso_item(n, d) -> Item:
    return Item(
        f"iso_dual_numeric({n},{d})",
        lambda: ext.iso_dual_numeric(n, d, budget=ORACLE_BUDGET),
        lambda value: _within(value, ext.p_iso_prime(n, d), SPEC_TOL),
    )


def _minimax_item(n, d) -> Item:
    def check(out):
        iso, q0 = out
        return iso == ext.p_iso_prime(n, d) and q0 == ext.p_b_complete(n, d), None

    return Item(
        f"minimax({n},{d})",
        lambda: (ext.isotropic_dual_minimax(n, d), ext.q0_dual_value(n, d)),
        check,
    )


def _ppt_item(d, points) -> Item:
    return Item(
        f"ppt(d={d})",
        lambda: [(ext.brauer_is_separable(p, q, d), ext.brauer_is_ppt(p, q, d)) for p, q in points],
        lambda out: (all(sep == ppt for sep, ppt in out), None),
    )


def ppt_points(rng: random.Random, count: int) -> list[tuple[Fraction, Fraction]]:
    """Rational (p, q) with p, q >= 0 and p + q <= 1: always a valid Brauer state."""
    points = []
    for _ in range(count):
        den = rng.randint(2, PPT_MAX_DEN)
        i = rng.randint(0, den)
        j = rng.randint(0, den - i)
        points.append((Fraction(i, den), Fraction(j, den)))
    return points


def make_inputs(workload: str, seed: int) -> list[Item] | tuple[str, ...]:
    """The workload's inputs for this seed: argv for verify_suite, items otherwise."""
    rng = random.Random(seed)
    if workload == "verify_suite":
        return VERIFY_ARGV  # the seed is recorded but changes nothing
    if workload == "oracle_scale":
        items = [_oracle_graph_item(*spec, rng) for spec in ORACLE_GRAPHS]
        items += [_iso_item(n, d) for n, d in ORACLE_ISO_POINTS]
    elif workload == "exact_minimax":
        span = range(2, MINIMAX_MAX + 1)
        items = [_minimax_item(n, d) for n in span for d in span]
        items += [_ppt_item(d, ppt_points(rng, PPT_POINTS_PER_D)) for d in span]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# one pass

def run_items(items: list[Item], clock) -> dict:
    """Time each item's call, then check it. Failures are counted, never raised."""
    latencies, failures, errs = [], [], []
    start = clock()
    for item in items:
        t0 = clock()
        try:
            out = item.run()
        except Exception as exc:  # any failure of the program is a failed item
            latencies.append(clock() - t0)
            failures.append(f"{item.label}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(clock() - t0)
        try:
            ok, err = item.check(out)
        except Exception as exc:  # an output the check cannot read is wrong
            ok, err = False, None
            out = f"{out!r} ({type(exc).__name__}: {exc})"
        if err is not None:
            errs.append(err)
        if not ok:
            failures.append(f"{item.label}: wrong value {out!r}")
    return {
        "run_s": clock() - start,
        "latencies_s": latencies,
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures,
        "err_over_tol": max(errs, default=0.0),
    }


class _LineClock:
    """A stdout stand-in that timestamps each complete line written to it."""

    def __init__(self, clock):
        self.clock = clock
        self.lines: list[tuple[float, str]] = []
        self._buf = ""

    def write(self, text: str) -> int:
        self._buf += text
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            self.lines.append((self.clock(), line))
        return len(text)

    def flush(self):
        pass


def run_verify(argv, clock) -> dict:
    """Drive `monogamy verify --all` through cli.main; each check line is one item."""
    capture = _LineClock(clock)
    rc, crash = None, None
    saved = sys.stdout
    start = clock()
    sys.stdout = capture
    try:
        rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash fails every check not yet reported
        crash = f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdout = saved
    run_s = clock() - start
    latencies, failures = [], []
    prev, passed = start, 0
    for t, line in capture.lines:
        if line.startswith(("PASS ", "FAIL ")):
            latencies.append(t - prev)
            prev = t
            if line.startswith("PASS "):
                passed += 1
            else:
                failures.append(line)
    reported = len(latencies)
    if reported < VERIFY_CHECKS:
        failures.append(f"{VERIFY_CHECKS - reported} checks not reported")
    elif reported > VERIFY_CHECKS:
        failures.append(f"{reported} check lines, expected {VERIFY_CHECKS}")
    if rc != 0:
        failures.append(f"exit code {rc}")
    if crash:
        failures.append(crash)
    # a failed item is a FAIL line or a check never reported; a wrong exit
    # code, crash or extra line with every PASS present still fails one item
    failed = (reported - passed) + max(0, VERIFY_CHECKS - reported)
    if failures and failed == 0:
        failed = 1
    return {
        "run_s": run_s,
        "latencies_s": latencies,
        "attempted": max(VERIFY_CHECKS, reported),
        "failed": failed,
        "failures": failures,
        "err_over_tol": None,
    }


def run_pass(workload: str, inputs, clock) -> dict:
    if workload == "verify_suite":
        return run_verify(inputs, clock)
    return run_items(inputs, clock)


def oracle_err_over_tol(values) -> float:
    """max |numeric - exact| / tolerance over recorded oracle calls with a closed form."""
    worst = 0.0
    for kind, args, value in values:
        if kind == "iso_dual_numeric":
            n, d = args[0], args[1]
            worst = max(worst, _within(value, ext.p_iso_prime(n, d), SPEC_TOL)[1])
            continue
        g, which, d = args[0], args[1], args[2]
        n, m = g.vertex_count, None
        if g.family_tag == "complete_bipartite":
            n = len({u for u, _ in g.edges})
            m = g.vertex_count - n
        exact = closed_form(g.family_tag, n, m, which, d)
        if exact is not None:
            worst = max(worst, _within(value, exact, ORACLE_TOL)[1])
    return worst
