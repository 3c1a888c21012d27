"""The package runs with numpy as its only runtime dependency."""

import os
import subprocess
import sys
from pathlib import Path

import monogamy

# scipy is a test dependency (perfbench imports it), so block it in a fresh
# interpreter: with sys.modules["scipy"] = None, any import of it raises
NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None
import monogamy
from monogamy import cli
from monogamy.checks import ORACLE_TOL, SPEC_TOL
from monogamy.extendibility import (
    conjecture_probe, iso_dual_numeric, p_avg_numeric, p_iso_prime, p_w_complete,
)
from monogamy.graphs import make_family
werner = p_avg_numeric(make_family("complete", 4), "werner", 2)
assert abs(werner - float(p_w_complete(4, 2))) <= ORACLE_TOL, werner
dual = iso_dual_numeric(3, 2)
assert abs(dual - float(p_iso_prime(3, 2))) <= SPEC_TOL, dual
conjecture_probe(make_family("complete", 3), "werner", 2)
sys.exit(cli.main(["dual-scan", "--n", "3", "--d", "2", "--points", "3"]))
"""


def test_numeric_route_and_cli_run_without_scipy():
    src = str(Path(monogamy.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 3, result.stdout
