"""Cross-verification suite: closed forms vs independent oracles.

`CHECKS` is the one list of checks, in run order. Each check takes the
dense-matrix cap, lists what disagrees and returns through `verdict`, the
one place that judges a check (it passes iff that list is empty) and words
its (name, passed, detail) result. A check that builds d^n-sized data runs
only the (n, d) points of its grid that `budget.within_budget` allows, so
no cap makes it raise, and its detail says how many points ran; the four
that build no d^n data (dual solvers, primal certificates, PPT region,
asymptotics) ignore the cap. `run_all` resolves the cap once and runs
every check. The CLI `verify` subcommand prints the results and exits
nonzero on any failure; the acceptance tests call the same checks.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .budget import current_budget, within_budget
from . import extendibility as ext
from .diagrams import (
    all_diagrams,
    compose,
    jm_sum_brauer,
    jm_sum_sym,
    matrix_rep,
)
from .graphs import make_family, perfect_matchings
from .partitions import (
    brauer_jm_eigenvalue,
    content,
    enumerate_brauer_irreps,
    enumerate_sym_irreps,
    gl_dim,
    sym_dim,
)
from .spectral import joint_spectrum, sym_eigen

ORACLE_TOL = 1e-9
SPEC_TOL = 1e-8
SHOWN = 5  # failing entries a FAIL detail lists


def verdict(name: str, bad: list, summary: str) -> tuple[str, bool, str]:
    """Pass iff `bad` is empty, with `summary` as detail; else list bad[:SHOWN] and the count."""
    if not bad:
        return name, True, summary
    shown = "; ".join(str(entry) for entry in bad[:SHOWN])
    return name, False, f"mismatches: {shown} ({len(bad)} in all)"


def grid_pairs(cap: int, n_max: int = 12, d_max: int = 9):
    """(n, d) pairs with d^n within cap, over the verified table ranges."""
    return within_budget(
        ((n, d) for d in range(2, d_max + 1) for n in range(2, n_max + 1)), cap
    )


def check_dual_solvers_exact(cap: int) -> tuple[str, bool, str]:
    bad = []
    for n in range(2, 10):
        for d in range(2, 10):
            if ext.isotropic_dual_minimax(n, d) != ext.p_iso_prime(n, d):
                bad.append(("iso", n, d))
            if ext.q0_dual_value(n, d) != ext.p_b_complete(n, d):
                bad.append(("q0", n, d))
    x, v, _ = ext.isotropic_dual_argmin(5, 3)
    if (x, v) != (Fraction(-3, 62), Fraction(7, 31)):
        bad.append(("iso-argmin", 5, 3, x, v))
    return verdict("dual-solvers-exact", bad, "2<=n,d<=9, (5,3) optimum at (-3/62, 7/31)")


def check_oracle_closed_forms(cap: int) -> tuple[str, bool, str]:
    bad = []
    worst = 0.0
    pairs = grid_pairs(cap)
    for n, d in pairs:
        g = make_family("complete", n)
        for which, closed_form in (("werner", ext.p_w_complete), ("brauer", ext.p_b_complete)):
            error = abs(ext.p_avg_numeric(g, which, d, cap) - float(closed_form(n, d)))
            worst = max(worst, error)
            if error > ORACLE_TOL:
                bad.append((which, n, d))
    summary = f"{len(pairs)} (n,d) grid points, worst error {worst:.1e}, tol {ORACLE_TOL}"
    return verdict("oracle-closed-forms", bad, summary)


def check_brauer_composition(cap: int) -> tuple[str, bool, str]:
    diagrams = all_diagrams(3)
    points = within_budget([(3, 2), (3, 3)], cap)
    bad = []
    for _, d in points:
        reps = {dg: matrix_rep(dg, d) for dg in diagrams}
        for (i, a), (j, b) in itertools.product(enumerate(diagrams), repeat=2):
            result, loops = compose(a, b)
            if reps[a] @ reps[b] != reps[result] * (d ** loops):
                bad.append((d, i, j))
    summary = f"225 ordered pairs, exact, at {len(points)} (n,d) points"
    return verdict("brauer-composition", bad, summary)


def check_jm_spectra(cap: int) -> tuple[str, bool, str]:
    bad = []
    points = within_budget([(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)], cap)
    for n, d in points:
        js = jm_sum_sym(n, d)
        expected = {}
        for mu in enumerate_sym_irreps(n, d):
            c = content(mu)
            expected[c] = expected.get(c, 0) + sym_dim(mu) * gl_dim(mu, d)
        spec = sym_eigen(js)
        got = {round(v): m for v, m in spec.as_pairs()}
        if got != expected or any(abs(v - round(v)) > SPEC_TOL for v in spec.eigenvalues):
            bad.append(("sym", n, d))

        jb = jm_sum_brauer(n, d)
        allowed = {brauer_jm_eigenvalue(lam, n, d) for lam in enumerate_brauer_irreps(n, d)}
        bspec = sym_eigen(jb)
        if bspec.dimension != d ** n or not all(
            any(abs(v - float(a)) <= SPEC_TOL for a in allowed) for v in bspec.eigenvalues
        ):
            bad.append(("brauer", n, d))
        if js @ jb != jb @ js:
            bad.append(("commute", n, d))
    return verdict("jm-spectra", bad, f"{len(points)} (n,d) pairs")


def check_joint_spectrum_easy_pairs(cap: int) -> tuple[str, bool, str]:
    bad = []
    points = within_budget([(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)], cap)
    for n, d in points:
        js = joint_spectrum(jm_sum_sym(n, d), jm_sum_brauer(n, d))
        predicted = {
            (content(mu), brauer_jm_eigenvalue(lam, n, d)) for lam, mu in ext.okada_easy_pairs(n, d)
        }
        for a, b in predicted:
            if not any(
                abs(pa - a) <= SPEC_TOL and abs(pb - float(b)) <= SPEC_TOL
                for pa, pb in js.pairs
            ):
                bad.append((n, d, a, b))
    summary = f"easy-rule pairs appear in joint spectra at {len(points)} (n,d) pairs"
    return verdict("joint-spectrum-easy-pairs", bad, summary)


def check_primal_certificates(cap: int) -> tuple[str, bool, str]:
    # every 2 <= n <= 8, 2 <= d <= 9, and d up to 64 at n <= 6 where d^n <= 4096
    points = sorted(
        {(n, d) for n in range(2, 9) for d in range(2, 10)}
        | {(n, d) for n in range(2, 7) for d in range(2, 65) if d ** n <= 4096}
    )
    bad = [(n, d) for n, d in points if ext.werner_primal_value(n, d) != ext.p_w_complete(n, d)]
    summary = f"{len(points)} certificates, exact rational equality"
    return verdict("werner-primal-certificates", bad, summary)


def check_matching_states(cap: int) -> tuple[str, bool, str]:
    bad = []
    for m in range(1, 6):
        got = len(perfect_matchings(make_family("complete", 2 * m)))
        if got != math.prod(range(1, 2 * m, 2)):
            bad.append(("count", 2 * m))
    points = within_budget([(3, 2), (4, 2), (5, 2), (3, 3), (4, 3)], cap)
    for n, d in points:
        rho = ext.matching_lower_bound_state(n, d, cap)
        target = ext.isotropic_pair_state(Fraction(1, n + n % 2 - 1), d)
        for e in make_family("complete", n).edges:
            if ext.reduced_state(rho, e, n, d) != target:
                bad.append((n, d, e))
    summary = f"counts (2m-1)!! and exact marginals at {len(points)} (n,d) points"
    return verdict("matching-lower-bound-states", bad, summary)


def check_ppt_region(cap: int) -> tuple[str, bool, str]:
    bad = []
    grid = [Fraction(i, 100) for i in range(101)]
    for d in (2, 3):
        for i, p in enumerate(grid):
            for q in grid[:101 - i]:
                if ext.brauer_is_separable(p, q, d) != ext.brauer_is_ppt(p, q, d):
                    bad.append((d, p, q))
    return verdict("ppt-separability-region", bad, "101x101 grid at d in {2,3}")


def check_iso_dual_numeric(cap: int) -> tuple[str, bool, str]:
    bad = []
    points = within_budget([(2, 2), (3, 2), (3, 3), (4, 2), (5, 3)], cap)
    for n, d in points:
        got = ext.iso_dual_numeric(n, d, cap)
        if abs(got - float(ext.p_iso_prime(n, d))) > SPEC_TOL:
            bad.append((n, d, got))
    summary = f"cutting-plane minimum at {len(points)} (n,d) points, tol {SPEC_TOL}"
    return verdict("isotropic-dual-numeric", bad, summary)


def check_cycle_values(cap: int) -> tuple[str, bool, str]:
    points = within_budget([(4, 2), (6, 2), (8, 2), (10, 2)], cap)
    vals = [ext.cycle_werner_value(n, cap) for n, _ in points]
    # every value lies above ln 2 and below the one before; C_4, if it ran, is 3/4
    bad = [
        (n, v) for (n, _), v, before in zip(points, vals, [math.inf] + vals)
        if not ext.LN2 < v < before or (n == 4 and abs(v - 0.75) > ORACLE_TOL)
    ]
    summary = f"{len(vals)} cycles from C_4, values {vals}, strictly decreasing, all above ln 2"
    return verdict("cycle-werner-values", bad, summary)


def check_conjecture_probe(cap: int) -> tuple[str, bool, str]:
    bad = []
    points = within_budget([(3, 2)], cap)
    for n, d in points:
        for g in (make_family("complete", n), make_family("path", n)):
            rep = ext.conjecture_probe(g, "werner", d, budget=cap)
            if not (-1e-9 <= rep["gap"] <= rep["tolerance"]):
                bad.append((g.family_tag, rep["gap"]))
    summary = f"signed vs simplex minima agree at {len(points)} (n,d) points (observation)"
    return verdict("conjecture-probe", bad, summary)


def check_bipartite(cap: int) -> tuple[str, bool, str]:
    g = make_family("complete_bipartite", 2, 3)
    got = [ext.p_avg_numeric(g, "brauer", d, cap) for _, d in within_budget([(5, 2)], cap)]
    want = float(ext.p_iso_bipartite(2, 3, 2))
    bad = [v for v in got if abs(v - want) > ORACLE_TOL]
    worst = max((abs(v - want) for v in got), default=0.0)
    summary = f"K_(2,3) numeric {got} vs closed form {want}, worst error {worst:.1e}, tol {ORACLE_TOL}"
    return verdict("bipartite-value", bad, summary)


def check_asymptotics(cap: int) -> tuple[str, bool, str]:
    bad = []
    for d in (50, 100):
        for n in (3, 4, 5):
            if abs(float(ext.p_b_complete(n, d) - ext.p_iso(n, d))) > 2.0 / d:
                bad.append((n, d))
    if ext.asymptotic_limit("werner", "n", d=2) != Fraction(1, 4):
        bad.append("werner-n-limit")
    if ext.asymptotic_limit("isotropic_prime", "n", d=3) != 0:
        bad.append("iso-prime-n-limit")
    return verdict("asymptotic-limits", bad, "large-d closeness and limit values")


# a list, not a tuple: callers may rebind its items (perfbench's tracer does)
CHECKS = [
    check_dual_solvers_exact,
    check_brauer_composition,
    check_jm_spectra,
    check_joint_spectrum_easy_pairs,
    check_ppt_region,
    check_conjecture_probe,
    check_asymptotics,
    check_oracle_closed_forms,
    check_primal_certificates,
    check_matching_states,
    check_iso_dual_numeric,
    check_cycle_values,
    check_bipartite,
]


def run_all(budget: int | None = None):
    """Run every check at one cap, resolved once; yields (name, passed, detail)."""
    cap = current_budget(budget)
    for check in CHECKS:
        yield check(cap)
