"""Floating-point spectral layer.

This is the numeric oracle: eigenvalue multisets and joint spectra of
commuting pairs of exact SiteOperators, and largest eigenvalues of
matrix-free edge sums. Exactness stops here by design; outputs are
floats clustered at a fixed absolute tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

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


def edge_sum(n: int, d: int, edges, pair) -> scipy.sparse.linalg.LinearOperator:
    """Matrix-free sum over edges (u, v) of the float d^2 x d^2 `pair` on sites u, v.

    Site 0 is the most significant digit of a basis index, as in the exact
    operators. Each edge gets one plan when the operator is built: the sizes
    (d^lo, d^(hi-lo-1), d^(n-1-hi)) of the digits before, between and after
    its sites lo < hi. A product views psi as (before, d, between, d,
    after * columns), copies the two edge axes to the front as a (d^2, -1)
    block, multiplies it once by `pair` and adds the inverse transpose of the
    result into the same view of the output. Each product holds O(d^n)
    floats; nothing of size d^n x d^n is ever built. The pair must be
    exactly symmetric and flip-invariant, so the sum is symmetric and does
    not depend on edge orientation.
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

    # flip invariance makes (u, v) and (v, u) the same term, so a plan needs only
    # the sizes around the lower and the higher site
    plans = [
        (d ** min(u, v), d ** (abs(v - u) - 1), d ** (n - 1 - max(u, v))) for u, v in edges
    ]
    dim = d ** n

    def apply(x: np.ndarray) -> np.ndarray:
        # the columns of a block (1 for a vector) ride along with the after digits
        psi = x.reshape(dim, -1)
        out = np.zeros(psi.shape)
        for before, between, after in plans:
            shape = (before, d, between, d, after * psi.shape[1])
            block = psi.reshape(shape).transpose(1, 3, 0, 2, 4).reshape(d * d, -1)  # one copy
            prod = (pair @ block).reshape(d, d, before, between, shape[4])
            # out is contiguous, so this reshape is a view; adding into it is
            # faster than adding prod into a transposed view of out
            view = out.reshape(shape)
            view += prod.transpose(2, 0, 3, 1, 4)
        return out.reshape(x.shape)

    return scipy.sparse.linalg.LinearOperator(
        (dim, dim), matvec=apply, matmat=apply, dtype=np.float64
    )


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


def top_eigenpair(op: scipy.sparse.linalg.LinearOperator) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of a symmetric operator and a unit eigenvector, by Lanczos.

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
    dim = op.shape[0]
    size = min(BASIS_VECTORS, dim)
    basis = np.empty((size, dim))
    t = np.zeros((size, size))
    q = np.random.default_rng(0).standard_normal(dim)
    q /= np.linalg.norm(q)
    k = 0  # basis vectors held before q
    restarts = 0
    while True:
        basis[k] = q
        w = op.matvec(q)
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


def lambda_max(op: scipy.sparse.linalg.LinearOperator) -> float:
    """Largest eigenvalue of a symmetric operator: top_eigenpair's value."""
    return top_eigenpair(op)[0]


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
