"""Young diagram combinatorics.

Partitions are stored as tuples of weakly decreasing positive integers,
trimmed of zero parts; the empty partition is the empty tuple.  This
module provides contents, conjugates, hook lengths, the two classical
dimension formulas, irrep-label enumeration for the symmetric-group and
Brauer-algebra towers, symmetric-group characters via the
Murnaghan-Nakayama rule, and the one shifted-Schur evaluation needed by
the Werner closed form.

The partitions of each n are enumerated once, on first use, and kept in
a cache keyed by n alone; both irrep enumerations filter that tuple into
a fresh list.  Every public function validates its partition arguments
with check_partition.  The private label functions (_content,
_odd_row_count, _twice_brauer_jm_eigenvalue, _is_brauer_label,
_two_column_height) skip that check, for labels the package enumerated
itself, and so does the Murnaghan-Nakayama recursion _mn_character under
mn_character.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial

Partition = tuple[int, ...]

# Conjugacy classes of the symmetric group are labeled by partitions too.
CycleType = Partition


def check_partition(parts) -> Partition:
    """Validate and canonicalize a partition (trim trailing zeros)."""
    lam = tuple(int(p) for p in parts)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    for i, p in enumerate(lam):
        if p < 1:
            raise ValueError(f"partition parts must be positive, got {parts}")
        if i > 0 and lam[i - 1] < p:
            raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
    return lam


def size(lam: Partition) -> int:
    return sum(lam)


def conjugate(lam: Partition) -> Partition:
    """Transpose the Young diagram: column lengths become rows."""
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def content(lam: Partition) -> int:
    """Sum of (column - row) over all boxes, 0-indexed: row i adds p(p - 1)/2 - i p."""
    return _content(check_partition(lam))


def _content(lam: Partition) -> int:
    """content of a partition known to be valid, unchecked."""
    return sum(p * (p - 1) // 2 - i * p for i, p in enumerate(lam))


def brauer_jm_eigenvalue(lam: Partition, n: int, d: int) -> Fraction:
    """Eigenvalue c(lam) - (n - |lam|)(d - 1)/2 of the Brauer sum of (F - W) on label lam."""
    return Fraction(twice_brauer_jm_eigenvalue(lam, n, d), 2)


def twice_brauer_jm_eigenvalue(lam: Partition, n: int, d: int) -> int:
    """2 * brauer_jm_eigenvalue(lam, n, d) as an int: 2 c(lam) - (n - |lam|)(d - 1)."""
    return _twice_brauer_jm_eigenvalue(check_partition(lam), n, d)


def _twice_brauer_jm_eigenvalue(lam: Partition, n: int, d: int) -> int:
    """twice_brauer_jm_eigenvalue of a partition known to be valid, unchecked."""
    return 2 * _content(lam) - (n - size(lam)) * (d - 1)


def odd_row_count(mu: Partition) -> int:
    """Number of rows of odd length, written r(mu)."""
    return _odd_row_count(check_partition(mu))


def _odd_row_count(mu: Partition) -> int:
    """odd_row_count of a partition known to be valid, unchecked."""
    return sum(p % 2 for p in mu)


def hooks(lam: Partition) -> list[int]:
    """Hook lengths of all boxes, row by row."""
    lam = check_partition(lam)
    conj = conjugate(lam)
    return [
        (p - j) + (conj[j] - i) - 1
        for i, p in enumerate(lam)
        for j in range(p)
    ]


def sym_dim(lam: Partition) -> int:
    """Dimension d(lam) of the symmetric-group irrep, by the hook formula."""
    lam = check_partition(lam)
    n = size(lam)
    num = factorial(n)
    den = 1
    for h in hooks(lam):
        den *= h
    assert num % den == 0
    return num // den


def gl_dim(lam: Partition, d: int) -> int:
    """Dimension m_d(lam) of the GL(d) irrep, by the hook-content formula."""
    lam = check_partition(lam)
    if len(lam) > d:
        raise ValueError(f"partition {lam} has more than d={d} rows")
    num = 1
    for i, p in enumerate(lam):
        for j in range(p):
            num *= d + j - i
    den = 1
    for h in hooks(lam):
        den *= h
    assert num % den == 0
    return num // den


def partitions_of(n: int, max_part: int | None = None):
    """Yield partitions of n in lexicographically descending order."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in the order of partitions_of, enumerated once per n."""
    return tuple(partitions_of(n))


def enumerate_sym_irreps(n: int, d: int) -> list[Partition]:
    """All partitions of n with at most d rows, lexicographically descending."""
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    return [lam for lam in _partitions(n) if len(lam) <= d]


def enumerate_brauer_irreps(n: int, d: int) -> list[Partition]:
    """Brauer-algebra irrep labels: lam of size n-2r with lam'_1 + lam'_2 <= d.

    Ordered by increasing size, lexicographically descending within a size,
    so the empty partition comes first when n is even.
    """
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    return [lam for m in range(n % 2, n + 1, 2) for lam in _partitions(m)
            if _is_brauer_label(lam, d)]


def _is_brauer_label(lam: Partition, d: int) -> bool:
    """lam'_1 + lam'_2 <= d, unchecked."""
    return _two_column_height(lam) <= d


def _two_column_height(lam: Partition) -> int:
    """lam'_1 + lam'_2, unchecked: lam's rows plus its rows of length at least 2."""
    return len(lam) + sum(p >= 2 for p in lam)


def shifted_schur_11(lam: Partition, d: int) -> int:
    """Sum of lam_i (lam_j + 1) over d >= i > j >= 1, with lam padded to length d."""
    lam = check_partition(lam)
    if len(lam) > d:
        raise ValueError(f"partition {lam} has more than d={d} rows")
    padded = list(lam) + [0] * (d - len(lam))
    return sum(
        padded[i] * (padded[j] + 1)
        for i in range(d)
        for j in range(i)
    )


def cycle_type(perm: tuple[int, ...]) -> CycleType:
    """Cycle type of a permutation given in one-line notation on 0..n-1."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@lru_cache(maxsize=None)
def mn_character(lam: Partition, ct: CycleType) -> int:
    """Character chi_lam(ct) by the Murnaghan-Nakayama rule.

    Both partitions are checked once, here; the recursion is _mn_character.
    """
    lam = check_partition(lam)
    ct = check_partition(ct)
    if size(lam) != size(ct):
        raise ValueError("partition and cycle type must have equal size")
    return _mn_character(lam, ct)


@lru_cache(maxsize=None)
def _mn_character(lam: Partition, ct: CycleType) -> int:
    """mn_character of valid partitions of equal size, unchecked.

    Works on the beta-set of lam: removing a rim hook of length t is
    replacing a beta number b by b - t, with sign given by the number of
    beta numbers jumped over.
    """
    if not ct:
        return 1
    t, rest = ct[0], ct[1:]
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        jumped = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        # strip the staircase back off to recover a partition, trimmed of zero parts
        m = len(new_beta)
        new_lam = tuple(p for i in range(m) if (p := new_beta[i] - (m - 1 - i)))
        total += (-1) ** jumped * _mn_character(new_lam, rest)
    return total


def class_size(ct: CycleType) -> int:
    """Number of permutations with the given cycle type."""
    ct = check_partition(ct)
    n = size(ct)
    denom = 1
    for length, reps in itertools.groupby(ct):
        k = len(list(reps))
        denom *= length ** k * factorial(k)
    return factorial(n) // denom


def optimal_rectangular_partition(n: int, d: int) -> Partition:
    """Most rectangular partition of n into at most d rows.

    k = n mod d rows of length (n-k)/d + 1 and d-k rows of length (n-k)/d,
    zero-length rows dropped.
    """
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    k = n % d
    q = (n - k) // d
    parts = [q + 1] * k + [q] * (d - k)
    return check_partition(parts)


def p_w_shifted_schur(n: int, d: int) -> Fraction:
    """Werner value as the shifted-Schur maximum over rectangular shapes."""
    lam = optimal_rectangular_partition(n, d)
    return Fraction(shifted_schur_11(lam, d), n * (n - 1))
