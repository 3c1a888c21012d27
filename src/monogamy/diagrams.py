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
from fractions import Fraction
from math import factorial

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


class SiteOperator:
    """Exact rational matrix on (C^d)^(x)n, stored sparsely; n = 2 is a pair operator."""

    __slots__ = ("n", "d", "data")

    def __init__(self, n: int, d: int, data: dict | None = None):
        if n < 1 or d < 2:
            raise ValueError("need n >= 1 and d >= 2")
        self.n = n
        self.d = d
        self.data = {k: v for k, v in (data or {}).items() if v != 0}

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
        return SiteOperator(self.n, self.d, {k: v * scalar for k, v in self.data.items()})

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
        return sum((v for (r, c), v in self.data.items() if r == c), start=0)

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
    # nodes ('a', e) and ('b', e); glue a's in endpoint n+k to b's out endpoint k
    partner_a = {}
    for p, q in a.pairs:
        partner_a[p] = q
        partner_a[q] = p
    partner_b = {}
    for p, q in b.pairs:
        partner_b[p] = q
        partner_b[q] = p

    def neighbors(node):
        side, e = node
        out = [(side, (partner_a if side == "a" else partner_b)[e])]
        if side == "a" and e >= n:
            out.append(("b", e - n))
        elif side == "b" and e < n:
            out.append(("a", e + n))
        return out

    free = [("a", k) for k in range(n)] + [("b", n + k) for k in range(n)]
    visited = set()
    new_pairs = []
    for start in free:
        if start in visited:
            continue
        visited.add(start)
        prev, cur = None, start
        while True:
            nxt = [m for m in neighbors(cur) if m != prev]
            # at a free endpoint mid-walk the only neighbor is where we came from
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            visited.add(cur)
            if cur in free and cur != start:
                break
        # a-out endpoints keep their labels 0..n-1 and b-in endpoints keep n..2n-1
        new_pairs.append((start[1], cur[1]))

    loops = 0
    middle = [("a", n + k) for k in range(n)] + [("b", k) for k in range(n)]
    for start in middle:
        if start in visited:
            continue
        # walk the cycle
        loops += 1
        visited.add(start)
        prev, cur = None, start
        while True:
            nxt = [m for m in neighbors(cur) if m != prev]
            if not nxt or nxt[0] == start:
                break
            prev, cur = cur, nxt[0]
            visited.add(cur)

    # dedupe: each path found once from each end
    dedup = {tuple(sorted(p)) for p in new_pairs}
    return BrauerDiagram(n, dedup), loops


def matrix_rep(diag: BrauerDiagram, d: int) -> SiteOperator:
    """The 0/1 matrix psi(diag): entry (xbar, x) is 1 iff connected endpoints carry equal values."""
    n = diag.n
    pair_of = {}
    for idx, (p, q) in enumerate(diag.pairs):
        pair_of[p] = idx
        pair_of[q] = idx
    place = [d ** (n - 1 - i) for i in range(n)]
    data = {}
    for vals in itertools.product(range(d), repeat=n):
        row = sum(vals[pair_of[i]] * place[i] for i in range(n))
        col = sum(vals[pair_of[n + i]] * place[i] for i in range(n))
        data[(row, col)] = 1
    return SiteOperator(n, d, data)


def pair_operators(d: int) -> tuple[SiteOperator, SiteOperator, SiteOperator]:
    """The unnormalized maximally entangled W, identity I and flip F on two qudits."""
    if d < 2:
        raise ValueError("need d >= 2")
    w = SiteOperator(2, d, {(a * d + a, b * d + b): 1 for a in range(d) for b in range(d)})
    ident = SiteOperator.identity(2, d)
    f = SiteOperator(2, d, {(a * d + b, b * d + a): 1 for a in range(d) for b in range(d)})
    return w, ident, f


def projectors(d: int) -> tuple[SiteOperator, SiteOperator, SiteOperator]:
    """Orthogonal projectors (P_empty, P_11, P_2) decomposing two qudits.

    P_empty = W/d, P_11 = (I - F)/2, P_2 = (I + F)/2 - W/d.
    """
    w, ident, f = pair_operators(d)
    p_empty = w * Fraction(1, d)
    p_11 = (ident - f) * Fraction(1, 2)
    p_2 = (ident + f) * Fraction(1, 2) - p_empty
    return p_empty, p_11, p_2


def embed_sum(op: SiteOperator, edges, n: int) -> SiteOperator:
    """Sum over edges (u, v) of the two-qudit op on sites u, v, identity elsewhere.

    Every edge is added in place into one dict, so the sum is never copied.
    """
    if op.n != 2:
        raise ValueError(f"need a two-qudit operator (n=2), got n={op.n}")
    d = op.d
    place = [d ** (n - 1 - i) for i in range(n)]
    data: dict = {}
    for u, v in edges:
        if u == v or not (0 <= u < n) or not (0 <= v < n):
            raise ValueError(f"invalid site pair {(u, v)} for n={n}")
        rest = [place[k] for k in range(n) if k not in (u, v)]
        offsets = [sum(w * p for w, p in zip(ws, rest))
                   for ws in itertools.product(range(d), repeat=n - 2)]
        for (r2, c2), val in op.data.items():
            ru, rv = divmod(r2, d)
            cu, cv = divmod(c2, d)
            base_r = ru * place[u] + rv * place[v]
            base_c = cu * place[u] + cv * place[v]
            for off in offsets:
                key = (base_r + off, base_c + off)
                data[key] = data.get(key, 0) + val
    return SiteOperator(n, d, data)


def jm_sum_sym(n: int, d: int) -> SiteOperator:
    """Sum of flips F_{i,j} over all pairs i < j (total Jucys-Murphy element of S_n)."""
    _, _, f = pair_operators(d)
    return embed_sum(f, itertools.combinations(range(n), 2), n)


def jm_sum_brauer(n: int, d: int) -> SiteOperator:
    """Sum of F_{i,j} - W_{i,j} over all pairs (total Jucys-Murphy element of Br_n^d)."""
    w, _, f = pair_operators(d)
    return embed_sum(f - w, itertools.combinations(range(n), 2), n)


def young_symmetrizer(lam: Partition, n: int, d: int) -> SiteOperator:
    """Central idempotent eps_lam = (d(lam)/n!) sum_pi chi_lam(pi) psi(pi).

    Characters are constant on conjugacy classes and memoized, so the sum
    effectively groups permutations by cycle type. The integer characters
    are added into one dict keyed by (row, col), so memory follows the
    entries the permutations touch, and the rational scale is applied once
    to the entries that do not cancel.
    """
    lam = check_partition(lam)
    if size(lam) != n:
        raise ValueError(f"partition {lam} is not a partition of n={n}")
    if len(lam) > d:
        raise ValueError(f"partition {lam} has more than d={d} rows")
    digits = np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64)
    place = np.array([d ** (n - 1 - i) for i in range(n)], dtype=np.int64)
    cols = range(d ** n)
    acc: dict = {}
    for perm in itertools.permutations(range(n)):
        chi = mn_character(lam, cycle_type(perm))
        if chi == 0:
            continue
        # row index of column x under psi(perm): digit j of the row is x_{perm^-1(j)}
        rows = (digits @ place[list(perm)]).tolist()
        for key in zip(rows, cols):
            acc[key] = acc.get(key, 0) + chi
    scale = Fraction(sym_dim(lam), factorial(n))
    return SiteOperator(n, d, {key: v * scale for key, v in acc.items() if v})
