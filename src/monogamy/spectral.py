"""Floating-point spectral layer.

This is the numeric oracle: eigenvalue multisets and joint spectra of
commuting pairs of exact SiteOperators, and largest eigenvalues of
matrix-free edge sums. Exactness stops here by design; outputs are
floats clustered at a fixed absolute tolerance.

A matrix-free operator is a plain function: it maps a (dim,) or (dim, k)
array to the array of the same shape that the operator makes of it.
edge_sum returns one, and top_eigenpair and lambda_max take one together
with its dim.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .diagrams import SiteOperator

CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple[float, ...]
    multiplicities: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return sum(self.multiplicities)

    def as_pairs(self) -> list[tuple[float, int]]:
        return list(zip(self.eigenvalues, self.multiplicities))


@dataclass(frozen=True)
class JointSpectrum:
    pairs: tuple[tuple[float, float], ...]
    multiplicities: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return sum(self.multiplicities)


def cluster(values, tol: float = CLUSTER_TOL) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Group sorted values into clusters of width tol; return representatives and counts."""
    vals = sorted(float(v) for v in values)
    reps: list[float] = []
    counts: list[int] = []
    for v in vals:
        if reps and abs(v - reps[-1]) <= tol:
            counts[-1] += 1
        else:
            reps.append(v)
            counts.append(1)
    return tuple(reps), tuple(counts)


def _require_symmetric(m: SiteOperator):
    if not m.is_symmetric():
        raise ValueError("operator is not symmetric")


def sym_eigen(m: SiteOperator) -> Spectrum:
    """Eigenvalues of an exact symmetric operator, clustered at CLUSTER_TOL."""
    _require_symmetric(m)
    return Spectrum(*cluster(np.linalg.eigvalsh(m.to_dense())))


def float_pair_operators(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float W (unnormalized maximally entangled), I and flip F on two qudits."""
    ident = np.eye(d * d)
    phi = np.eye(d).reshape(-1)
    flip = ident.reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    return np.outer(phi, phi), ident, flip


# largest dense block a product multiplies by: 64 = 2^6 = 4^3, so a group
# holds 6 qubits, 3 qutrits or ququarts, and 2 sites from d = 5 on
GROUP_DIM = 64


def _plan(op: np.ndarray, sites, n: int, d: int):
    """How to apply the float operator `op` on `sites` (in its own row order) of n qudits.

    The plan is (op, view, perm, inverse): a state of d^n rows views as
    `view`, the sizes of the k sites interleaved with the digit runs
    before, between and after them, whose last axis also takes the
    columns; `perm` moves the k site axes to the front in the order of
    `sites`, and `inverse` moves them back.
    """
    order = sorted(sites)
    view, last = [], -1
    for s in order:
        view += (d ** (s - last - 1), d)
        last = s
    view.append(d ** (n - 1 - last))
    perm = [2 * order.index(s) + 1 for s in sites] + list(range(0, len(view), 2))
    inverse = [0] * len(perm)
    for i, a in enumerate(perm):
        inverse[a] = i
    return op, tuple(view), perm, inverse


def _apply_plan(plan, psi: np.ndarray, out: np.ndarray) -> None:
    """Add op on its sites times the columns of psi (d^n rows) into out, of psi's shape."""
    op, view, perm, inverse = plan
    # the columns (1 for a vector) ride along with the last digits
    shape = view[:-1] + (view[-1] * psi.shape[1],)
    moved = psi.reshape(shape).transpose(perm)
    block = moved.reshape(op.shape[0], -1)  # one copy
    prod = (op @ block).reshape(moved.shape)
    # out is contiguous, so this reshape is a view; adding into it is
    # faster than adding prod into a transposed view of out
    target = out.reshape(shape)
    target += prod.transpose(inverse)


def _site_groups(n: int, d: int, edges) -> list[tuple[tuple[int, ...], list]]:
    """Split edges into groups of at most k sites, k the largest with d^k <= GROUP_DIM.

    Greedy and deterministic: a group starts from the first unassigned
    edge and adds, one at a time, the lowest outside site among those that
    close the most unassigned edges with it, until it has k sites or no
    unassigned edge touches it; it then takes every unassigned edge with
    both ends inside it. Each edge lands in exactly one group, a repeated
    edge once per copy. Returns (sorted sites, edges) pairs.
    """
    k = 2
    while d ** (k + 1) <= GROUP_DIM:
        k += 1
    # unassigned edges between each pair of sites
    open_edges = [[0] * n for _ in range(n)]
    for u, v in edges:
        open_edges[u][v] += 1
        open_edges[v][u] += 1
    taken = [False] * len(edges)
    groups = []
    for first, (u, v) in enumerate(edges):
        if taken[first]:
            continue
        sites = [u, v]
        closes = [a + b for a, b in zip(open_edges[u], open_edges[v])]
        while len(sites) < k:
            for s in sites:
                closes[s] = 0
            best = max(range(n), key=closes.__getitem__)  # the lowest on a tie
            if closes[best] == 0:
                break
            sites.append(best)
            closes = [a + b for a, b in zip(closes, open_edges[best])]
        inside = set(sites)
        members = []
        for i in range(first, len(edges)):
            a, b = edges[i]
            if not taken[i] and a in inside and b in inside:
                taken[i] = True
                members.append(edges[i])
                open_edges[a][b] -= 1
                open_edges[b][a] -= 1
        groups.append((tuple(sorted(sites)), members))
    return groups


def edge_sum(n: int, d: int, edges, pair) -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-free sum over edges (u, v) of the float d^2 x d^2 `pair` on sites u, v.

    Site 0 is the most significant digit of a basis index, as in the exact
    operators. When the operator is built, _site_groups splits the edges
    into groups of at most k sites, d^k <= GROUP_DIM, and each group gets
    one dense d^k x d^k matrix: the sum of `pair` over its edges, built by
    applying each edge's two-site plan to the identity on the group's
    sites. A product views psi with the group's site axes moved to the
    front as one (d^k, -1) block per group, multiplies it once by the
    group matrix and adds the inverse transpose of the result into the
    output. At d >= 5 a group is one edge. Each product holds O(d^n)
    floats; nothing of size d^n x d^n is ever built. The pair must be
    exactly symmetric and flip-invariant, so the sum is symmetric and does
    not depend on edge orientation. The operator is returned as a function
    of a (d^n,) or (d^n, k) array, which raises ValueError on any other
    number of rows.
    """
    pair = np.asarray(pair, dtype=np.float64)
    if pair.shape != (d * d, d * d):
        raise ValueError(f"pair operator must be {d * d} x {d * d}")
    if not np.array_equal(pair, pair.T):
        raise ValueError("pair operator is not symmetric")
    # rows and columns indexed (out_u, out_v, in_u, in_v)
    p4 = pair.reshape(d, d, d, d)
    if not np.array_equal(p4, p4.transpose(1, 0, 3, 2)):
        raise ValueError("pair operator is not flip-invariant; edge orientation would matter")
    edges = [tuple(e) for e in edges]
    if not edges:
        raise ValueError("need at least one edge")
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"invalid edge {(u, v)} for n={n}")

    # pair on sites (i, j) of k, as a d^k x d^k matrix; flip invariance makes
    # (i, j) and (j, i) the same
    embedded: dict[tuple[int, int, int], np.ndarray] = {}
    plans = []
    for sites, members in _site_groups(n, d, edges):
        k = len(sites)
        local = {s: i for i, s in enumerate(sites)}
        group = np.zeros((d ** k, d ** k))
        for u, v in members:
            key = (k, *sorted((local[u], local[v])))
            if key not in embedded:
                embedded[key] = np.zeros_like(group)
                _apply_plan(_plan(pair, key[1:], k, d), np.eye(d ** k), embedded[key])
            group += embedded[key]
        plans.append(_plan(group, sites, n, d))
    dim = d ** n

    def apply(x: np.ndarray) -> np.ndarray:
        if x.shape[0] != dim:
            raise ValueError(f"operator of dimension {dim} applied to {x.shape[0]} rows")
        psi = x.reshape(dim, -1)
        out = np.zeros(psi.shape)
        for plan in plans:
            _apply_plan(plan, psi, out)
        return out.reshape(x.shape)

    return apply


class NoConvergenceError(RuntimeError):
    """The top Ritz pair did not converge within MAX_RESTARTS restarts."""


# Thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 602, 2000).
# BASIS_VECTORS is ARPACK's default ncv, so a solve holds as many vectors of
# length d^n as ARPACK did; a restart rotates the kept Ritz vectors into the
# basis ROTATION_COLUMNS columns at a time, so it adds no vector of length d^n.
BASIS_VECTORS = 20
KEPT_RITZ_VECTORS = 10
MAX_RESTARTS = 1000
RESIDUAL_TOL = 1e-13
ROTATION_COLUMNS = 1024


def top_eigenpair(op: Callable[[np.ndarray], np.ndarray], dim: int) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of a symmetric operator and a unit eigenvector, by Lanczos.

    op maps a vector of length dim to its product with the operator, as
    edge_sum's functions do; the solve calls it once per Lanczos step.
    The value is the Ritz value, so it is the Rayleigh quotient of the
    returned vector. The basis starts from a fixed random vector, not
    all-ones: the all-ones vector lies in the symmetric sector, which an
    antisymmetric Hamiltonian sends to zero. Each product is orthogonalized
    twice against the whole basis (classical Gram-Schmidt), and its
    projections fill a row and a column of T = Q^T H Q. After each product
    the solve stops when the residual norm beta |s_last| of the top Ritz
    pair (theta, s) is at most RESIDUAL_TOL times the largest |theta| (at
    least 1), on an exact invariant subspace (beta = 0), or when the basis
    spans the whole space. An edge sum on K_n has only a few distinct
    eigenvalues, so its Krylov space turns invariant after a few products.
    When the basis is full, the top KEPT_RITZ_VECTORS Ritz vectors, rotated
    into the basis in blocks of ROTATION_COLUMNS columns, and the residual
    direction become the new basis; the new vector's projections
    give T the coupling row beta s_last of the kept pairs. Raises
    NoConvergenceError after MAX_RESTARTS restarts.
    """
    size = min(BASIS_VECTORS, dim)
    basis = np.empty((size, dim))
    t = np.zeros((size, size))
    q = np.random.default_rng(0).standard_normal(dim)
    q /= np.linalg.norm(q)
    k = 0  # basis vectors held before q
    restarts = 0
    while True:
        basis[k] = q
        w = op(q)
        held = basis[:k + 1]
        h = held @ w
        w -= h @ held
        again = held @ w
        w -= again @ held
        h += again
        t[k, :k + 1] = h
        t[:k + 1, k] = h
        k += 1
        beta = np.linalg.norm(w)
        theta, s = np.linalg.eigh(t[:k, :k])
        residual = beta * abs(s[-1, -1])
        scale = max(abs(theta[0]), abs(theta[-1]), 1.0)
        if residual <= RESIDUAL_TOL * scale or beta == 0 or k == dim:
            break
        if k == size:
            if restarts == MAX_RESTARTS:
                raise NoConvergenceError(
                    f"top Ritz residual {residual:.3g} after {restarts} restarts of "
                    f"{size} basis vectors"
                )
            restarts += 1
            k = KEPT_RITZ_VECTORS
            rotation = s[:, -k:].T
            for start in range(0, dim, ROTATION_COLUMNS):
                # a view of the basis; the product is k x ROTATION_COLUMNS floats
                columns = basis[:, start:start + ROTATION_COLUMNS]
                columns[:k] = rotation @ columns
            t[:] = 0.0
            t[:k, :k] = np.diag(theta[-k:])
        q = w / beta
    vec = s[:, -1] @ basis[:k]
    return float(theta[-1]), vec / np.linalg.norm(vec)


def lambda_max(op: Callable[[np.ndarray], np.ndarray], dim: int) -> float:
    """Largest eigenvalue of a symmetric operator: top_eigenpair's value."""
    return top_eigenpair(op, dim)[0]


def joint_spectrum(a: SiteOperator, b: SiteOperator) -> JointSpectrum:
    """Joint eigenvalue pairs of two exactly commuting symmetric operators.

    Diagonalizes a, then diagonalizes b restricted to each eigenspace of a.
    Commutation is checked exactly on the rational matrices first; both
    spectra are clustered at CLUSTER_TOL.
    """
    _require_symmetric(a)
    _require_symmetric(b)
    if a.n != b.n or a.d != b.d:
        raise ValueError("operator shape mismatch")
    if a @ b != b @ a:
        raise ValueError("operators do not commute exactly")
    wa, va = np.linalg.eigh(a.to_dense())
    dense_b = b.to_dense()
    reps, counts = cluster(wa)
    pairs: list[tuple[float, float]] = []
    mults: list[int] = []
    start = 0
    for rep, count in zip(reps, counts):
        block = va[:, start:start + count]
        start += count
        restricted = block.T @ dense_b @ block
        wb = np.linalg.eigvalsh(restricted)
        b_reps, b_counts = cluster(wb)
        for bv, bc in zip(b_reps, b_counts):
            pairs.append((rep, bv))
            mults.append(bc)
    return JointSpectrum(tuple(pairs), tuple(mults))
