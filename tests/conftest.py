import csv
import functools
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"

# K_15 on 0..14 with 15, 16 and 17 joined only to 14: one connected component of
# even size, but no perfect matching
PENDANT_N = 18
PENDANT_EDGES = [(u, v) for u in range(15) for v in range(u + 1, 15)]
PENDANT_EDGES += [(14, 15), (14, 16), (14, 17)]


def reference_diagram_sum(terms, n, d):
    """coeff * psi(diag) summed entry by entry from the definition of psi, in a plain dict.

    Giving every pair of diag one value in [d] sets one entry of psi(diag) to 1.
    """
    data = {}
    for coeff, diag in terms:
        for pair_values in itertools.product(range(d), repeat=n):
            ends = [0] * (2 * n)
            for (a, b), v in zip(diag.pairs, pair_values):
                ends[a] = ends[b] = v
            key = tuple(functools.reduce(lambda acc, v: acc * d + v, half, 0)
                        for half in (ends[:n], ends[n:]))
            data[key] = data.get(key, 0) + coeff
    return {k: v for k, v in data.items() if v}


def counting_operator(op, count):
    """The operator function op, adding each of its products to count[0]."""

    def counted(x):
        count[0] += 1
        return op(x)

    return counted


def load_golden(name: str) -> dict[tuple[int, int], Fraction]:
    """Golden table cells keyed by (n, d)."""
    cells = {}
    with open(DATA_DIR / f"golden_{name}.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ns = [int(x) for x in header[1:]]
        for row in reader:
            d = int(row[0])
            for n, val in zip(ns, row[1:]):
                cells[(n, d)] = Fraction(val)
    return cells


@pytest.fixture(scope="session")
def golden_tables():
    return {
        name: load_golden(name)
        for name in ("werner", "brauer", "isotropic_prime", "isotropic")
    }
