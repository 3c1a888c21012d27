"""End-to-end acceptance gate: eleven cross-verification criteria.

Each test prints exactly one PASS/FAIL line (bypassing capture) so the
full gate is readable in any pytest run, then asserts. Every criterion but
the closed-form tables gets its verdict from the check functions that
back the `monogamy verify` CLI command, run at the default cap, so the CLI
path and the test path exercise identical code.
"""

import math
import time
from fractions import Fraction

from monogamy import checks
from monogamy import extendibility as ext
from monogamy.cli import table_cells

CAP = 4096


def report(capsys, name: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def run_checks(capsys, name: str, *fns, seconds: float = math.inf):
    """Run checks at CAP and report them as one criterion, failed if slower than seconds."""
    start = time.perf_counter()
    results = [fn(CAP) for fn in fns]
    elapsed = time.perf_counter() - start
    ok = all(passed for _, passed, _ in results) and elapsed < seconds
    detail = "; ".join(f"[{check}] {text}" for check, _, text in results)
    report(capsys, name, ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_01_closed_form_tables(capsys, golden_tables):
    start = time.perf_counter()
    cells = {
        family: table_cells(family, 9)
        for family in ("werner", "brauer", "isotropic", "isotropic_prime")
    }
    elapsed = time.perf_counter() - start
    bad = []
    for family, table in cells.items():
        golden = golden_tables[family if family != "isotropic_prime" else "isotropic_prime"]
        for di, row in enumerate(table):
            for ni, got in enumerate(row):
                if golden[(ni + 2, di + 2)] != got:
                    bad.append((family, ni + 2, di + 2))
    spot = (
        ext.p_w_complete(7, 3) == Fraction(11, 21)
        and ext.p_b_complete(3, 3) == Fraction(5, 9)
        and ext.p_iso_prime(3, 3) == Fraction(7, 19)
        and ext.p_iso(3, 3) == Fraction(25, 57)
    )
    ok = not bad and spot and elapsed < 1.0
    report(
        capsys,
        "criterion-01-tables",
        ok,
        f"4 tables x 64 cells exact, spot values ok={spot}, {elapsed:.3f}s",
    )


def test_criterion_02_numeric_oracle_grid(capsys):
    start = time.perf_counter()
    name, ok, detail = checks.check_oracle_closed_forms(CAP)
    elapsed = time.perf_counter() - start
    pairs = checks.grid_pairs(CAP)
    coverage = (
        all((n, 2) in pairs for n in range(2, 13))
        and all((n, 3) in pairs for n in range(2, 8))
        and all((n, 4) in pairs for n in range(2, 7))
    )
    ok = ok and coverage and elapsed < 600.0
    report(capsys, "criterion-02-oracle", ok, f"[{name}] {detail}, coverage ok, {elapsed:.1f}s")


def test_criterion_03_diagram_composition(capsys):
    run_checks(capsys, "criterion-03-composition", checks.check_brauer_composition, seconds=30.0)


def test_criterion_04_jm_spectra(capsys):
    run_checks(capsys, "criterion-04-jm-spectra", checks.check_jm_spectra)


def test_criterion_05_werner_primal(capsys):
    run_checks(capsys, "criterion-05-primal", checks.check_primal_certificates)


def test_criterion_06_isotropic_dual(capsys):
    run_checks(
        capsys,
        "criterion-06-isotropic-dual",
        checks.check_dual_solvers_exact,
        checks.check_iso_dual_numeric,
    )


def test_criterion_07_q0_dual(capsys):
    run_checks(capsys, "criterion-07-q0-dual", checks.check_dual_solvers_exact)


def test_criterion_08_matching_states(capsys):
    run_checks(capsys, "criterion-08-matchings", checks.check_matching_states)


def test_criterion_09_ppt_region(capsys):
    run_checks(capsys, "criterion-09-ppt-region", checks.check_ppt_region)


def test_criterion_10_cycle_values(capsys):
    run_checks(capsys, "criterion-10-cycles", checks.check_cycle_values)


def test_criterion_11_conjecture_probe(capsys):
    run_checks(capsys, "criterion-11-probe", checks.check_conjecture_probe)
