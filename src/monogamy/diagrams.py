"""Brauer diagrams and their exact matrix realization on (C^d)^(x)n.

A Brauer diagram on n strands is a perfect pairing of 2n endpoints.  We
label the "out" (row-side) endpoints 0..n-1 and the "in" (column-side)
endpoints n..2n-1.  A permutation pi, in one-line notation on 0..n-1,
embeds as the diagram pairing out_{pi(i)} with in_i, so that the matrix
realization psi satisfies <xbar| psi(pi) |x> = 1 iff xbar_{pi(i)} = x_i.

Matrices are kept exact: sparse dictionaries of Fraction/int entries.
Floating point enters only in the spectral module.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from .partitions import (
    Partition,
    check_partition,
    cycle_type,
    mn_character,
    size,
    sym_dim,
)

Scalar = int | Fraction

# canonical keys that diagram_sum gathers before each sort-and-reduce; with the output's
# nonzeros, this bounds its int64 buffers
_BATCH_KEYS = 1 << 20


class SiteOperator:
    """Exact rational matrix on (C^d)^(x)n, stored sparsely; n = 2 is a pair operator."""

    __slots__ = ("n", "d", "data")

    def __init__(self, n: int, d: int, data: dict | None = None):
        if n < 1 or d < 2:
            raise ValueError("need n >= 1 and d >= 2")
        self.n = n
        self.d = d
        self.data = {k: v for k, v in (data or {}).items() if v != 0}

    @classmethod
    def _of_nonzero(cls, n: int, d: int, data: dict) -> "SiteOperator":
        """An operator on data that holds no zero entry, taken without a filtering copy."""
        op = cls(n, d)
        op.data = data
        return op

    @property
    def dim(self) -> int:
        return self.d ** self.n

    @classmethod
    def zero(cls, n: int, d: int) -> "SiteOperator":
        return cls(n, d, {})

    @classmethod
    def identity(cls, n: int, d: int) -> "SiteOperator":
        return cls(n, d, {(i, i): 1 for i in range(d ** n)})

    def _check_same_shape(self, other: "SiteOperator"):
        if self.n != other.n or self.d != other.d:
            raise ValueError("operator shape mismatch")

    def __add__(self, other: "SiteOperator") -> "SiteOperator":
        self._check_same_shape(other)
        data = dict(self.data)
        for k, v in other.data.items():
            data[k] = data.get(k, 0) + v
        return SiteOperator(self.n, self.d, data)

    def __sub__(self, other: "SiteOperator") -> "SiteOperator":
        self._check_same_shape(other)
        data = dict(self.data)
        for k, v in other.data.items():
            data[k] = data.get(k, 0) - v
        return SiteOperator(self.n, self.d, data)

    def __neg__(self) -> "SiteOperator":
        return SiteOperator(self.n, self.d, {k: -v for k, v in self.data.items()})

    def __mul__(self, scalar: Scalar) -> "SiteOperator":
        # each distinct entry is multiplied once
        values = self.data.values()
        if isinstance(scalar, Fraction):
            # every product is a Fraction, so the value alone keys its product
            keys = values
            products = {v: v * scalar for v in set(values)}
        else:
            # keying on the type too keeps 1 and Fraction(1) apart, so every product has
            # the type of v * scalar
            keys = list(zip(values, map(type, values)))
            products = {key: key[0] * scalar for key in set(keys)}
        data = dict(zip(self.data, map(products.__getitem__, keys)))
        if all(products.values()):
            return SiteOperator._of_nonzero(self.n, self.d, data)
        return SiteOperator(self.n, self.d, data)

    __rmul__ = __mul__

    def __matmul__(self, other: "SiteOperator") -> "SiteOperator":
        self._check_same_shape(other)
        rows_of_b: dict[int, list] = {}
        for (r, c), v in other.data.items():
            rows_of_b.setdefault(r, []).append((c, v))
        data: dict = {}
        for (r, k), va in self.data.items():
            for c, vb in rows_of_b.get(k, ()):
                key = (r, c)
                data[key] = data.get(key, 0) + va * vb
        return SiteOperator(self.n, self.d, data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SiteOperator):
            return NotImplemented
        return (
            self.n == other.n
            and self.d == other.d
            and self.data == other.data
        )

    def trace(self) -> Scalar:
        # dim lookups, however many entries there are
        diagonal = zip(range(self.dim), range(self.dim))
        return sum(map(self.data.get, diagonal, itertools.repeat(0)), start=0)

    def transpose(self) -> "SiteOperator":
        return SiteOperator(self.n, self.d, {(c, r): v for (r, c), v in self.data.items()})

    def is_symmetric(self) -> bool:
        return all(self.data.get((c, r), 0) == v for (r, c), v in self.data.items())

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.float64)
        for (r, c), v in self.data.items():
            out[r, c] = float(v)
        return out

    def __repr__(self):
        return f"SiteOperator(n={self.n}, d={self.d}, nnz={len(self.data)})"


class BrauerDiagram:
    """Perfect pairing of the 2n endpoints {0..n-1 out, n..2n-1 in}."""

    __slots__ = ("n", "pairs")

    def __init__(self, n: int, pairs):
        self.n = n
        canon = tuple(sorted(tuple(sorted(p)) for p in pairs))
        seen = [e for p in canon for e in p]
        if sorted(seen) != list(range(2 * n)):
            raise ValueError(f"not a perfect pairing of 2n={2*n} endpoints: {pairs}")
        self.pairs = canon

    @classmethod
    def identity(cls, n: int) -> "BrauerDiagram":
        return cls(n, [(i, n + i) for i in range(n)])

    @classmethod
    def from_permutation(cls, perm) -> "BrauerDiagram":
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n-1}: {perm}")
        return cls(n, [(perm[i], n + i) for i in range(n)])

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "BrauerDiagram":
        perm = list(range(n))
        perm[i], perm[j] = perm[j], perm[i]
        return cls.from_permutation(perm)

    @classmethod
    def bar(cls, n: int, i: int, j: int) -> "BrauerDiagram":
        """The vertical pairing: {out_i, out_j} and {in_i, in_j}."""
        if i == j:
            raise ValueError("bar pairing needs two distinct strands")
        pairs = [(i, j), (n + i, n + j)]
        pairs += [(k, n + k) for k in range(n) if k not in (i, j)]
        return cls(n, pairs)

    def is_permutation(self) -> bool:
        return all(a < self.n <= b for a, b in self.pairs)

    def to_permutation(self) -> tuple[int, ...]:
        if not self.is_permutation():
            raise ValueError("diagram is not a permutation")
        perm = [0] * self.n
        for a, b in self.pairs:
            perm[b - self.n] = a
        return tuple(perm)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BrauerDiagram):
            return NotImplemented
        return self.n == other.n and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.n, self.pairs))

    def __repr__(self):
        return f"BrauerDiagram(n={self.n}, pairs={self.pairs})"


def all_diagrams(n: int) -> list[BrauerDiagram]:
    """All (2n-1)!! Brauer diagrams on n strands, deterministic order."""
    out = []

    def pairings(points):
        if not points:
            yield []
            return
        first, rest = points[0], points[1:]
        for i, second in enumerate(rest):
            for sub in pairings(rest[:i] + rest[i + 1:]):
                yield [(first, second)] + sub

    for pp in pairings(list(range(2 * n))):
        out.append(BrauerDiagram(n, pp))
    return out


def compose(a: BrauerDiagram, b: BrauerDiagram) -> tuple[BrauerDiagram, int]:
    """Concatenate a then b, gluing a's in-side to b's out-side.

    Returns the resulting diagram and the number of closed loops erased;
    matrix_rep(a) @ matrix_rep(b) = d^loops * matrix_rep(result).
    """
    if a.n != b.n:
        raise ValueError("strand count mismatch")
    n = a.n
    # a's endpoints are 0..2n-1 and b's are 2n..4n-1; a's in endpoint n+k is glued
    # to b's out endpoint 2n+k, so the free ends are 0..n-1 and 3n..4n-1
    partner = {}
    for shift, diag in ((0, a), (2 * n, b)):
        for p, q in diag.pairs:
            partner[shift + p], partner[shift + q] = shift + q, shift + p
    seen = set()
    pairs = []
    loops = 0
    # free ends first: every strand left after them is a closed loop of middle endpoints
    for start in [*range(n), *range(3 * n, 4 * n), *range(n, 3 * n)]:
        if start in seen:
            continue
        e = start
        while True:
            end = partner[e]
            seen.update((e, end))
            if not n <= end < 3 * n:
                # free ends keep their labels: a's out 0..n-1, b's in 3n+k becomes n+k
                pairs.append((start % (2 * n), end % (2 * n)))
                break
            e = end + n if end < 2 * n else end - n  # cross the glue
            if e == start:
                loops += 1
                break
    return BrauerDiagram(n, pairs), loops


def _reduce(keys: np.ndarray, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in increasing order, each with the sum of its entries of sums."""
    order = np.argsort(keys, kind="stable")
    keys, sums = keys[order], sums[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.add.reduceat(sums, starts)


def _value_patterns(n: int, d: int) -> np.ndarray:
    """The restricted-growth strings of length n with at most d values, one per row.

    Each value is at most 1 + the largest value before it. A row is one way
    to split n items into at most d blocks, its values numbering the blocks
    in order of first appearance, so there are sum over k <= d of S(n, k)
    rows. They come in lexicographic order.
    """
    patterns = [()]
    for _ in range(n):
        patterns = [p + (v,) for p in patterns for v in range(min(d, max(p, default=-1) + 2))]
    return np.array(patterns, dtype=np.int64).reshape(len(patterns), n)


def _canonical_entries(terms, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero canonical entries of the sum of coeff * psi(diag), as (values, sums).

    An entry of psi(diag) depends only on which of the 2n endpoints carry
    equal values, so a permutation of [d] that relabels every endpoint leaves
    the sum unchanged. Entry (r, c) is keyed as the int64 r * d^n + c, whose
    2n base-d digits are the values at out_0..out_{n-1} and then
    in_0..in_{n-1}. Only the canonical keys are summed, those whose digits
    first take the value k after they have taken 0..k-1. A term reaches each
    of its canonical keys once, by giving its pairs, in the order of their
    first endpoints, the values of one row of _value_patterns(n, d). About
    _BATCH_KEYS of these keys are sorted and reduced at a time. Row i of the
    (m, 2n) array values holds the digits of the i-th nonzero canonical key,
    in increasing key order, and sums[i] its int64 entry. Raises ValueError
    on a non-integer coefficient, or when the sum of |coeff| reaches 2^63,
    past which an int64 sum could wrap.
    """
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    # the key place of each endpoint: out_e is row digit e and in_e column digit e
    place = d ** np.arange(2 * n - 1, -1, -1, dtype=np.int64)
    patterns = _value_patterns(n, d)
    terms = iter(terms)
    keys = sums = np.zeros(0, dtype=np.int64)
    weight = 0
    while batch := list(itertools.islice(terms, max(1, _BATCH_KEYS // len(patterns)))):
        coeffs = []
        for coeff, diag in batch:
            try:
                coeffs.append(operator.index(coeff))
            except TypeError:
                raise ValueError(f"diagram_sum needs integer coefficients, got {coeff!r}") from None
            weight += abs(coeffs[-1])
            if weight >= 1 << 63:
                raise ValueError("diagram_sum coefficients reach 2^63 in absolute sum")
            if diag.n != n:
                raise ValueError(f"diagram on {diag.n} strands in a sum on n={n}")
        # diag.pairs is sorted by first endpoint; a pair adds its value at both its places
        ends = np.array([diag.pairs for _, diag in batch], dtype=np.int64).reshape(-1, n, 2)
        pair_places = place[ends].sum(axis=2)
        batch_keys = (pair_places @ patterns.T).ravel()
        batch_sums = np.repeat(np.array(coeffs, dtype=np.int64), len(patterns))
        keys, sums = _reduce(np.concatenate([keys, batch_keys]), np.concatenate([sums, batch_sums]))
    keep = sums != 0
    return keys[keep, None] // place % d, sums[keep]


def diagram_sum(terms, n: int, d: int) -> SiteOperator:
    """Sum of coeff * psi(diag) over (coeff, diag) terms with integer coefficients.

    psi(diag) is the 0/1 matrix whose entry (xbar, x) is 1 iff connected
    endpoints carry equal values. The nonzero entries at canonical keys come
    from _canonical_entries and are expanded by _expand_entries. The result
    is a dict of Python ints. Raises ValueError as _canonical_entries does.
    """
    return _expand_entries(*_canonical_entries(terms, n, d), n, d)


def _expand_entries(values: np.ndarray, sums: np.ndarray, n: int, d: int) -> SiteOperator:
    """The operator whose canonical entries are (values, sums) of _canonical_entries.

    Each entry with k values is copied to its d!/(d-k)! relabellings, which
    are all distinct.
    """
    op = SiteOperator(n, d)
    dim = d ** n
    place = d ** np.arange(2 * n - 1, -1, -1, dtype=np.int64)
    used = values.max(axis=1, initial=0) + 1
    for k in np.unique(used).tolist():
        # the key of a relabelling sigma is the sum over v of sigma(v) * value_places[:, v]
        of_k = used == k
        value_places = np.stack([(values[of_k] == v) @ place for v in range(k)], axis=1)
        labels = np.array(list(itertools.permutations(range(d), k)), dtype=np.int64)
        rows, cols = np.divmod((value_places @ labels.T).ravel(), dim)
        entries = np.repeat(sums[of_k], len(labels))
        op.data.update(zip(zip(rows.tolist(), cols.tolist()), entries.tolist()))
    return op


def matrix_rep(diag: BrauerDiagram, d: int) -> SiteOperator:
    """The 0/1 matrix psi(diag) of one diagram."""
    return diagram_sum([(1, diag)], diag.n, d)


def pair_operators(d: int) -> tuple[SiteOperator, SiteOperator, SiteOperator]:
    """The unnormalized maximally entangled W, identity I and flip F on two qudits."""
    if d < 2:
        raise ValueError("need d >= 2")
    return (
        matrix_rep(BrauerDiagram.bar(2, 0, 1), d),
        matrix_rep(BrauerDiagram.identity(2), d),
        matrix_rep(BrauerDiagram.transposition(2, 0, 1), d),
    )


def projectors(d: int) -> tuple[SiteOperator, SiteOperator, SiteOperator]:
    """Orthogonal projectors (P_empty, P_11, P_2) decomposing two qudits.

    P_empty = W/d, P_11 = (I - F)/2, P_2 = (I + F)/2 - W/d.
    """
    w, ident, f = pair_operators(d)
    p_empty = w * Fraction(1, d)
    p_11 = (ident - f) * Fraction(1, 2)
    p_2 = (ident + f) * Fraction(1, 2) - p_empty
    return p_empty, p_11, p_2


def pair_sum(edges, n: int, d: int, coeffs: tuple[int, int, int]) -> SiteOperator:
    """Sum over edges (u, v) of a I + b F_uv + c W_uv, for integer coeffs = (a, b, c).

    It is the one integer diagram_sum of a * |edges| identity diagrams and,
    per edge, b transposition and c bar diagrams; a zero coefficient adds no
    term. Raises ValueError on an invalid site pair, and as diagram_sum does.
    """
    a, b, c = coeffs
    edges = list(edges)
    for u, v in edges:
        if u == v or not (0 <= u < n) or not (0 <= v < n):
            raise ValueError(f"invalid site pair {(u, v)} for n={n}")
    terms = [(a * len(edges), BrauerDiagram.identity(n))] if a and edges else []
    for coeff, diagram in ((b, BrauerDiagram.transposition), (c, BrauerDiagram.bar)):
        if coeff:
            terms += [(coeff, diagram(n, u, v)) for u, v in edges]
    return diagram_sum(terms, n, d)


def jm_sum_sym(n: int, d: int) -> SiteOperator:
    """Sum of flips F_{i,j} over all pairs i < j (total Jucys-Murphy element of S_n)."""
    return pair_sum(itertools.combinations(range(n), 2), n, d, (0, 1, 0))


def jm_sum_brauer(n: int, d: int) -> SiteOperator:
    """Sum of F_{i,j} - W_{i,j} over all pairs (total Jucys-Murphy element of Br_n^d)."""
    return pair_sum(itertools.combinations(range(n), 2), n, d, (0, 1, -1))


def character_terms(lam: Partition, n: int, d: int):
    """The terms (chi_lam(pi), psi(pi)) of the pi in S_n with a nonzero character, lazily.

    lam is checked at the call: a partition of n with at most d rows.
    """
    lam = check_partition(lam)
    if size(lam) != n:
        raise ValueError(f"partition {lam} is not a partition of n={n}")
    if len(lam) > d:
        raise ValueError(f"partition {lam} has more than d={d} rows")
    return ((chi, BrauerDiagram.from_permutation(perm))
            for perm in itertools.permutations(range(n))
            if (chi := mn_character(lam, cycle_type(perm))))


def character_sum(lam: Partition, n: int, d: int) -> SiteOperator:
    """The integer sum of chi_lam(pi) psi(pi) over the pi in S_n with a nonzero character."""
    return diagram_sum(character_terms(lam, n, d), n, d)


def young_symmetrizer(lam: Partition, n: int, d: int) -> SiteOperator:
    """Central idempotent eps_lam = (d(lam)/n!) sum_pi chi_lam(pi) psi(pi), scaled once."""
    return character_sum(lam, n, d) * Fraction(sym_dim(lam), math.factorial(n))
