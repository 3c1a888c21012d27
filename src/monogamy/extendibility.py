"""Closed-form extendibility values, dual minimax solvers, certificates.

Werner, isotropic and Brauer two-qudit states admit exact optimal
complete-graph extendibility values. This module exposes those closed
forms, exact one-dimensional minimax solvers over affine eigenvalue
functions that reproduce them independently, primal certificates and
lower-bound state constructions, the Brauer separability/PPT region,
and numeric oracles based on edge-averaged Hamiltonians.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .budget import check_budget, current_budget
from .diagrams import (
    BrauerDiagram,
    SiteOperator,
    character_sum,
    diagram_sum,
    pair_operators,
)
from .graphs import Graph, make_family, perfect_matchings
from .partitions import (
    Partition,
    _content,
    _odd_row_count,
    _partitions,
    _twice_brauer_jm_eigenvalue,
    _two_column_height,
    brauer_jm_eigenvalue,
    check_partition,
    class_size,
    content,
    mn_character,
    optimal_rectangular_partition,
)
from .spectral import edge_sum, float_pair_operators, lambda_max, top_eigenpair

LN2 = math.log(2.0)


@dataclass(frozen=True)
class ExtendibilityValue:
    """A value on K_n, or on K_{n,m} when m is set."""
    value: Fraction
    family: str
    n: int
    d: int
    m: int | None = None
    method: str = "closed_form"

    def __post_init__(self):
        if not 0 <= self.value <= 1:
            raise ValueError(f"extendibility value {self.value} outside [0,1]")

    @property
    def graph(self) -> str:
        return f"K_{self.n}" if self.m is None else f"K_{{{self.n},{self.m}}}"


# ---------------------------------------------------------------------------
# closed forms

def p_w_complete(n: int, d: int) -> Fraction:
    """Optimal Werner K_n value: antisymmetric weight of the best edge marginal."""
    _check_nd(n, d)
    k = n % d
    return (
        Fraction(d - 1, 2 * d) * Fraction((n + k + d) * (n - k), n * (n - 1))
        + Fraction(k * (k - 1), n * (n - 1))
    )


def p_b_complete(n: int, d: int) -> Fraction:
    """Optimal Brauer K_n value: maximally entangled weight of the best marginal."""
    _check_nd(n, d)
    big_n = n + n % 2 - 1
    return Fraction(1, d) + Fraction(1, big_n) - Fraction(1, d * big_n)


def p_iso_prime(n: int, d: int) -> Fraction:
    """Optimal isotropic K_n value in the W-weight parameterization p'."""
    _check_nd(n, d)
    if d > n or d % 2 == 0 or n % 2 == 0:
        return Fraction(1, n + n % 2 - 1)
    return min(Fraction(2 * d + 1, 2 * d * n + 1), Fraction(1, n - 1))


def p_iso(n: int, d: int) -> Fraction:
    """Optimal isotropic K_n value as the maximally entangled weight p."""
    pp = p_iso_prime(n, d)
    return Fraction(1, d * d) + (1 - Fraction(1, d * d)) * pp


def p_iso_bipartite(n: int, m: int, d: int) -> Fraction:
    """Optimal isotropic (and Brauer) value on the complete bipartite graph K_{n,m}."""
    if n < 1 or m < 1 or d < 2:
        raise ValueError("need n, m >= 1 and d >= 2")
    return Fraction(1, d) + Fraction(d - 1, d * max(n, m))


def _check_nd(n: int, d: int):
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")


# family -> closed form p(n, d) on K_n; every family dispatch reads this
CLOSED_FORMS = {
    "werner": p_w_complete,
    "brauer": p_b_complete,
    "isotropic": p_iso,
    "isotropic_prime": p_iso_prime,
}


# ---------------------------------------------------------------------------
# affine minimax machinery

@dataclass(frozen=True)
class AffineFn:
    """One eigenvalue branch of a dual Hamiltonian, affine in the dual variable x."""
    slope: Fraction
    offset: Fraction
    lam: Partition = ()
    mu: Partition = ()

    def __call__(self, x: Fraction) -> Fraction:
        return self.offset + self.slope * x


def _top_lines(lines) -> list[tuple[int, int, object]]:
    """Of the integer lines (s, o, payload) of each slope s, the first with the largest offset o.

    The others lie below it, so they never reach the upper envelope. The
    lines come in the order their slopes first appear.
    """
    best: dict[int, tuple[int, int, object]] = {}
    for line in lines:
        if line[0] not in best or line[1] > best[line[0]][1]:
            best[line[0]] = line
    return list(best.values())


def _envelope_minimum(lines) -> tuple[tuple[int, int, object], ...]:
    """The lines of the upper envelope that are active at its minimum.

    lines are (s, o, payload) with integer s and o: every slope over one
    positive denominator and every offset over another, so integer
    comparisons keep every order. Of the lines with one slope only
    _top_lines' is kept. On the slope-sorted lines a hull top
    (s1, o1), (s2, o2) is popped for the next line (s, o) when its two
    intersections are out of order, (o2 - o1)(s2 - s) >= (o - o2)(s1 - s2).
    The minimum of the convex envelope sits where its slope changes sign:
    the result is its one line, which is then flat, or the two lines that
    meet there, left first. Raises ValueError when empty or unbounded below.
    """
    # the slopes are distinct, so sorting never compares two payloads
    ordered = sorted(_top_lines(lines))
    if not ordered:
        raise ValueError("empty affine family")
    if ordered[0][0] > 0 or ordered[-1][0] < 0:
        raise ValueError("max of affine family is unbounded below")

    hull: list[tuple[int, int, object]] = []
    for line in ordered:
        s, o, _ = line
        while len(hull) >= 2:
            (s1, o1, _), (s2, o2, _) = hull[-2:]
            if (o2 - o1) * (s2 - s) < (o - o2) * (s1 - s2):
                break
            hull.pop()
        hull.append(line)
    if len(hull) == 1:
        return (hull[0],)
    # the first line of slope >= 0; at index 0 it is flat and pairs with the next
    i = max(1, next(idx for idx, (s, _, _) in enumerate(hull) if s >= 0))
    return hull[i - 1], hull[i]


def _minimum(active: tuple[AffineFn, ...]) -> tuple[Fraction, Fraction, tuple[AffineFn, ...]]:
    """(argmin, value, active) from the branches _envelope_minimum found active."""
    if len(active) == 1:
        # one slope, which the bound check forces to be 0
        return Fraction(0), active[0].offset, active
    f, g = active
    x = Fraction(g.offset - f.offset, f.slope - g.slope)
    # a flat left branch attains the minimum along its whole length
    return x, f.offset if f.slope == 0 else f(x), active


def minimize_max_affine(fns: list[AffineFn]) -> tuple[Fraction, Fraction, tuple[AffineFn, ...]]:
    """Exact minimum over x of max_i fns_i(x).

    Returns (argmin, value, active functions). The envelope is built on
    integers by _envelope_minimum: slopes are scaled by the lcm of their
    denominators and offsets by the lcm of theirs. Only the returned x,
    value and functions are read from the original Fractions. Raises
    ValueError when empty or unbounded below.
    """
    slope_scale = math.lcm(*{f.slope.denominator for f in fns})
    offset_scale = math.lcm(*{f.offset.denominator for f in fns})
    active = _envelope_minimum(
        (f.slope.numerator * (slope_scale // f.slope.denominator),
         f.offset.numerator * (offset_scale // f.offset.denominator), f)
        for f in fns
    )
    return _minimum(tuple(f for _, _, f in active))


@lru_cache(maxsize=None)
def _easy_pair_table(n: int) -> tuple[tuple[int, tuple[Partition, Partition], int, int, int], ...]:
    """Every easy pair of n, in okada_easy_pairs' order, with its d-independent integers.

    An entry is (least d, (lam, mu), 2 c(lam), n - |lam|, c(mu)); the pair
    is an easy pair at d exactly when d >= least d, because each rule's
    condition only loosens as d grows. The least d is 2 for the single-row
    pairs, len(mu) for ((1^m), mu) and lam'_1 + lam'_2 for (mu, mu), each
    at least 2. The labels are the tuples of the partitions cache, and the
    table is built once per n, like that cache.
    """
    least: dict[tuple[Partition, Partition], int] = {}

    def admit(pair: tuple[Partition, Partition], d: int):
        least[pair] = min(least.get(pair, d), d)

    top = _partitions(n)[0]
    for r in range(n // 2 + 1):
        admit((_partitions(n - 2 * r)[0], top), 2)
    for mu in _partitions(n):
        admit((_partitions(_odd_row_count(mu))[-1], mu), len(mu))
        admit((mu, mu), _two_column_height(mu))
    return tuple((max(d, 2), pair, 2 * _content(pair[0]), n - sum(pair[0]), _content(pair[1]))
                 for pair, d in sorted(least.items()))


def okada_easy_pairs(n: int, d: int) -> list[tuple[Partition, Partition]]:
    """(lambda, mu) label pairs produced by the three easy branching rules, sorted.

    Each partition mu of n with at most d rows gives the pairs of rules 1
    and 2; rule 3 adds the single-row pairs.
    1. lambda the single column (1^m), m the number of odd rows of mu; m is
       at most len(mu) <= d, so (1^m) is always a Brauer label.
    2. lambda = mu, when mu is a Brauer label: len(mu) + #{parts >= 2} <= d.
    3. mu the single row (n): lambda the single row (n - 2r), or () at 2r = n.
    The pairs of every d are listed once per n, by _easy_pair_table, with
    the least d that admits each; this filters that table.
    """
    _check_nd(n, d)
    return [pair for least, pair, _, _, _ in _easy_pair_table(n) if least <= d]


def special_partitions(n: int, d: int) -> dict[str, Partition]:
    """The named partitions driving the odd-odd isotropic optimum (n >= d)."""
    if n < d:
        raise ValueError("defined for n >= d")
    k = ((n - d) // 2) // d
    m = ((n - d) // 2) % d
    mu3 = (2 * k + 3,) * m + (2 * k + 1,) * (d - m)
    return {
        "lambda1": (1,) * d,
        "lambda2": (1,),
        "mu1": (n,),
        "mu2": check_partition((n - d + 1,) + (1,) * (d - 1)),
        "mu3": check_partition(mu3),
    }


def _iso_lines(n: int, d: int) -> list[tuple[int, int, tuple[Partition, Partition]]]:
    """The isotropic dual's branches as integer lines (2 slope, |E|(d - 1) offset, (lam, mu)).

    The easy-rule pair (lambda, mu) gives the branch with slope
    jm(lambda) + d c(mu) - |E| and offset (d c(mu) - |E|) / (|E| (d - 1)),
    jm being brauer_jm_eigenvalue, so the line holds the integers
    2 c(lambda) - (n - |lambda|)(d - 1) + 2 (d c(mu) - |E|) and d c(mu) - |E|.
    Labels and contents come from _easy_pair_table, built once per n; the
    lines are in okada_easy_pairs' order, so ties report the same labels.
    """
    _check_nd(n, d)
    edges = n * (n - 1) // 2
    return [(twice_c - rest * (d - 1) + 2 * (d * c_mu - edges), d * c_mu - edges, pair)
            for least, pair, twice_c, rest, c_mu in _easy_pair_table(n) if least <= d]


def _iso_fn(n: int, d: int, line: tuple[int, int, tuple[Partition, Partition]]) -> AffineFn:
    """The AffineFn of one _iso_lines line."""
    slope2, offset, (lam, mu) = line
    return AffineFn(Fraction(slope2, 2), Fraction(offset, n * (n - 1) // 2 * (d - 1)), lam, mu)


def iso_affine_family(n: int, d: int) -> list[AffineFn]:
    """Eigenvalue branches f_{mu,lambda}(x) of the isotropic dual that can reach its envelope.

    The branches are the lines of _iso_lines; only those _top_lines keeps
    can reach the envelope, and they are returned as AffineFns.
    """
    return [_iso_fn(n, d, line) for line in _top_lines(_iso_lines(n, d))]


def isotropic_dual_minimax(n: int, d: int) -> Fraction:
    """Exact dual value: min over x of the max of the affine branches."""
    _, value, _ = isotropic_dual_argmin(n, d)
    return value


def isotropic_dual_argmin(n: int, d: int) -> tuple[Fraction, Fraction, tuple[AffineFn, ...]]:
    """The dual optimum (x*, value, active branches).

    It equals minimize_max_affine(iso_affine_family(n, d)), but the
    envelope runs on the integer lines of _iso_lines, and only the active
    branches become AffineFns.
    """
    active = _envelope_minimum(_iso_lines(n, d))
    return _minimum(tuple(_iso_fn(n, d, line) for line in active))


def q0_affine_family(n: int, d: int) -> list[AffineFn]:
    """Branches of the q=0 Brauer dual; only mu = (n) gives zero slope."""
    _check_nd(n, d)
    edges = Fraction(n * (n - 1), 2)
    mu = (n,)
    c = content(mu)
    slope = (1 - c / edges) / d
    rows = [(n - 2 * r,) if n - 2 * r > 0 else () for r in range(n // 2 + 1)]
    return [AffineFn(slope, (c - brauer_jm_eigenvalue(lam, n, d)) / (d * edges), lam, mu)
            for lam in rows]


def q0_dual_value(n: int, d: int) -> Fraction:
    """Dual value of the maximally-entangled-marginal problem on K_n.

    Every branch of q0_affine_family has mu = (n), whose content is |E|,
    so every slope is 0 and the dual is a flat maximum: over the single
    rows lam = (n - 2r), of (|E| - jm(lam)) / (d |E|), summed in integers.
    """
    _check_nd(n, d)
    edges = n * (n - 1) // 2
    return Fraction(max(2 * edges - _twice_brauer_jm_eigenvalue(_partitions(n - 2 * r)[0], n, d)
                        for r in range(n // 2 + 1)), 2 * d * edges)


# ---------------------------------------------------------------------------
# numeric oracles

def _float_pair(which: str, d: int) -> np.ndarray:
    """The float projector P_11 = (I - F)/2 ("werner") or P_empty = W/d ("brauer")."""
    w, ident, f = float_pair_operators(d)
    if which == "werner":
        return (ident - f) / 2
    if which == "brauer":
        return w / d
    raise ValueError("which must be 'werner' or 'brauer'")


def p_avg_numeric(g: Graph, which: str, d: int, budget: int | None = None) -> float:
    """Largest eigenvalue of the edge-averaged projector Hamiltonian.

    which = "werner" uses the antisymmetric projector; which = "brauer"
    uses the normalized maximally entangled projector W/d, so the value is
    directly comparable with the Brauer closed form.
    """
    n = g.vertex_count
    check_budget(n, d, budget)
    pair = _float_pair(which, d)
    return lambda_max(edge_sum(n, d, g.edges, pair), d ** n) / g.edge_count


def cycle_werner_value(n: int, budget: int | None = None) -> float:
    """Werner value of the even cycle C_n at d = 2 (Heisenberg ring top eigenvalue)."""
    if n % 2 == 1:
        raise ValueError("cycle bound uses even n only")
    if n < 4:
        raise ValueError("need n >= 4")
    return p_avg_numeric(make_family("cycle", n), "werner", 2, budget)


def _iso_dual_pencil(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The float pair operators (pair0, pair1) of the isotropic dual on K_n.

    pair0 + x pair1 = (c - x)(I - d F) + x (F - W) with c = 1/(|E|(1 - d)),
    so H(x) = H0 + x H1 with H0, H1 the edge sums of pair0 and pair1.
    """
    _check_nd(n, d)
    w, ident, f = float_pair_operators(d)
    c = 1.0 / (n * (n - 1) // 2 * (1 - d))
    return c * (ident - d * f), (f - w) - (ident - d * f)


def iso_dual_hamiltonian(n: int, d: int, x: float):
    """H(x) = sum over edges of K_n of (c - x)(I - d F) + x (F - W), c = 1/(|E|(1-d))."""
    pair0, pair1 = _iso_dual_pencil(n, d)
    with np.errstate(over="ignore", invalid="ignore"):
        pair = pair0 + x * pair1
    if not np.isfinite(pair).all():
        raise ValueError(f"dual Hamiltonian pair operator at x={x} is not finite")
    return edge_sum(n, d, make_family("complete", n).edges, pair)


def _minimize_convex(f) -> float:
    """Minimum on [-1, 1] of a convex function, by bracketed cutting planes.

    f maps x to (f(x), a slope of f at x). The tangent lines at the two
    bracket ends lie below f, so where they meet they bound the minimum
    from below; each step evaluates f there and moves the end whose slope
    has the same sign. It stops when the smallest value seen is within
    1e-12 of that bound, or at a bracket width of 1e-10. A point outside
    the open bracket, or a bracket that has not halved in two steps, is
    replaced by the midpoint, so the width falls at least geometrically.
    """
    lo, hi = -1.0, 1.0
    f_lo, s_lo = f(lo)
    if s_lo >= 0:
        return f_lo
    f_hi, s_hi = f(hi)
    if s_hi <= 0:
        return f_hi
    best = min(f_lo, f_hi)
    widths = [hi - lo]
    while hi - lo > 1e-10:
        x = (f_hi - f_lo + s_lo * lo - s_hi * hi) / (s_lo - s_hi)
        if best - (f_lo + s_lo * (x - lo)) <= 1e-12:
            break
        if not lo < x < hi or (len(widths) > 2 and widths[-1] > widths[-3] / 2):
            x = (lo + hi) / 2
        f_x, s_x = f(x)
        best = min(best, f_x)
        if s_x < 0:
            lo, f_lo, s_lo = x, f_x, s_x
        else:
            hi, f_hi, s_hi = x, f_x, s_x
        widths.append(hi - lo)
    return best


def iso_dual_numeric(n: int, d: int, budget: int | None = None) -> float:
    """Minimum over x in [-1, 1] of lambda_max(H(x)) for the isotropic dual.

    H(x) = H0 + x H1 is iso_dual_hamiltonian. If v is the unit top
    eigenvector of H(x) with eigenvalue r, the line r + (v^T H1 v)(y - x)
    equals v^T H(y) v, so it lies below the convex lambda_max(H(y)) at
    every y; _minimize_convex cuts with these lines, one eigensolve each.
    Each solve starts from top_eigenpair's fixed random vector, not from
    the previous eigenvector: H(x) commutes with S_n x O(d), so a Krylov
    space started from an eigenvector stays in its symmetry sector, and
    near the optimum the top eigenvalue changes sector.
    """
    _check_nd(n, d)
    check_budget(n, d, budget)
    slope_op = edge_sum(n, d, make_family("complete", n).edges, _iso_dual_pencil(n, d)[1])

    def value_and_slope(x: float) -> tuple[float, float]:
        value, vec = top_eigenpair(iso_dual_hamiltonian(n, d, x), d ** n)
        return value, float(vec @ slope_op(vec))

    return _minimize_convex(value_and_slope)


# ---------------------------------------------------------------------------
# primal certificates and lower-bound states

def reduced_state(rho: SiteOperator, edge: tuple[int, int], n: int, d: int) -> SiteOperator:
    """Partial trace onto the two edge sites (in edge order)."""
    u, v = edge
    if not (0 <= u < n and 0 <= v < n and u != v):
        raise ValueError(f"invalid edge {edge} for n={n}")
    if rho.n != n or rho.d != d:
        raise ValueError("state shape mismatch")
    pu, pv = d ** (n - 1 - u), d ** (n - 1 - v)
    data: dict = {}
    for (r, c), val in rho.data.items():
        ru, rv = (r // pu) % d, (r // pv) % d
        cu, cv = (c // pu) % d, (c // pv) % d
        if r - ru * pu - rv * pv != c - cu * pu - cv * pv:
            continue
        key = (ru * d + rv, cu * d + cv)
        data[key] = data.get(key, 0) + val
    return SiteOperator(2, d, data)


def trace_product(a: SiteOperator, b: SiteOperator) -> Fraction:
    """Tr[a b] = sum of a[r, c] b[c, r], summed in the entries' own type."""
    a._check_same_shape(b)
    b_transposed = map(b.data.get, map(operator.itemgetter(1, 0), a.data), itertools.repeat(0))
    return Fraction(sum(map(operator.mul, a.data.values(), b_transposed)))


def _certificate_traces(n: int, d: int) -> tuple[int, int]:
    """T = Tr A and Tr[F_01 A] of the rectangular character sum A, as class sums.

    A = sum over pi of chi_lam(pi) psi(pi), lam the rectangular partition,
    and Tr psi(pi) = d^l(pi), l(pi) the number of cycles of pi. F_01 pi has
    one cycle more than pi when 0 and 1 share a cycle of pi, and one fewer
    otherwise; of the |rho| permutations of cycle type rho,
    |rho| s_rho / (n(n - 1)) put 0 and 1 in one cycle, s_rho the sum of
    rho_i (rho_i - 1). So both traces are sums of p(n) Python ints, and
    no d^n data is built.
    """
    lam = optimal_rectangular_partition(n, d)
    pairs = n * (n - 1)
    t = flips = 0
    for rho in _partitions(n):
        chi = mn_character(lam, rho)
        if chi:
            size = class_size(rho)
            shared = size * sum(r * (r - 1) for r in rho) // pairs
            cycles = len(rho)
            t += chi * size * d ** cycles
            flips += chi * (shared * d ** (cycles + 1) + (size - shared) * d ** (cycles - 1))
    return t, flips


def werner_primal_value(n: int, d: int, budget: int | None = None) -> Fraction:
    """The exact antisymmetric weight of every edge marginal of the Werner primal certificate.

    The certificate is A/T, A the integer rectangular character sum and T
    its trace, so Tr[P_11 rho_01] = (1 - Tr[F_01 rho]) / 2 = (T - Tr[F_01 A]) / 2T.
    Both traces are class sums of _certificate_traces, so neither A nor the
    state is built, and no d^n is compared against the cap; budget is still
    resolved by current_budget, so a cap below 1 is a ValueError.
    """
    _check_nd(n, d)
    current_budget(budget)
    t, flips = _certificate_traces(n, d)
    return Fraction(t - flips, 2 * t)


def werner_primal_certificate(
    n: int, d: int, budget: int | None = None
) -> tuple[SiteOperator, Fraction]:
    """Optimal Werner state on K_n: the normalized rectangular isotypic projector.

    Returns (state, achieved) where achieved is the exact antisymmetric
    weight of the (0,1) edge marginal, werner_primal_value(n, d); full
    permutation symmetry makes all edge marginals equal. The state is A/T,
    A expanded by diagram_sum and T from the class sums.
    """
    _check_nd(n, d)
    check_budget(n, d, budget)
    t, flips = _certificate_traces(n, d)
    a = character_sum(optimal_rectangular_partition(n, d), n, d)
    return a * Fraction(1, t), Fraction(t - flips, 2 * t)


def matching_lower_bound_state(n: int, d: int, budget: int | None = None) -> SiteOperator:
    """Dimension-independent extendible state built from perfect matchings of K_n.

    Even n: uniform mixture over all perfect matchings of products of
    normalized maximally entangled pairs. Odd n: additionally uniform over
    the deleted vertex, which is left maximally mixed. Every edge marginal
    is isotropic with W-weight 1/(n-1) (even) or 1/n (odd). Each product
    state is d^-ceil(n/2) times the matrix of the diagram with a bar on
    each matched pair and an identity strand on the deleted vertex.
    """
    _check_nd(n, d)
    check_budget(n, d, budget)
    # each state is (matched pairs, identity strands of the diagram)
    if n % 2 == 0:
        states = [(m, []) for m in perfect_matchings(make_family("complete", n))]
    else:
        # perfect matchings of K_{n-1}, relabelled onto the vertices other than v
        rest_matchings = perfect_matchings(make_family("complete", n - 1))
        states = []
        for v in range(n):
            others = [u for u in range(n) if u != v]
            states += [([(others[a], others[b]) for a, b in m], [(v, n + v)])
                       for m in rest_matchings]
    terms = [(1, BrauerDiagram(n, [bar for u, v in pairs for bar in ((u, v), (n + u, n + v))]
                               + strands)) for pairs, strands in states]
    return diagram_sum(terms, n, d) * Fraction(1, d ** ((n + 1) // 2) * len(states))


def isotropic_pair_state(p_prime: Fraction, d: int) -> SiteOperator:
    """Two-qudit isotropic state with W-weight p': p' W/d + (1-p') I/d^2."""
    w, ident, _ = pair_operators(d)
    return w * Fraction(p_prime, d) + ident * Fraction(1 - p_prime, d * d)


# ---------------------------------------------------------------------------
# Brauer separability and PPT region

def brauer_proj_to_wfi(p, q, d: int) -> tuple[Fraction, Fraction]:
    """Convert projector weights (p, q) to W/F/I weights (p', q')."""
    p, q = Fraction(p), Fraction(q)
    denom = d * (d + 1) - 2
    pp = p - Fraction(2 * (1 - p - q), denom)
    qq = Fraction(-q, d - 1) + Fraction(d * (1 - p - q), denom)
    return pp, qq


def brauer_wfi_to_proj(pp, qq, d: int) -> tuple[Fraction, Fraction]:
    """Convert W/F/I weights (p', q') back to projector weights (p, q)."""
    pp, qq = Fraction(pp), Fraction(qq)
    p = Fraction(pp * (d * d - 1) + qq * (d - 1) + 1, d * d)
    q = -Fraction(pp * (d - 1) + qq * (d * d - 1) - d + 1, 2 * d)
    return p, q


def _positivity_forms(d: int) -> tuple[tuple[int, int, int], ...]:
    """Integer (a, b, c): p' W/d + q' F/d + (1 - p' - q') I/d^2 >= 0 iff all a p' + b q' + c >= 0.

    The forms are d^2 times the state's eigenvalues on the maximally
    entangled vector and on the antisymmetric subspace, and (d - 1)(d + 2)
    d^2 times its eigenvalue on the rest of the symmetric subspace.
    """
    return (
        (d * d - 1, d - 1, 1),
        (-1, -(d + 1), 1),
        (-(d * d + d - 2), d ** 3 - 3 * d + 2, d * d + d - 2),
    )


def is_positive_brauer_prime(pp, qq, d: int) -> bool:
    """Positive semidefiniteness of p' W/d + q' F/d + (1 - p' - q') I/d^2."""
    pp, qq = Fraction(pp), Fraction(qq)
    return all(a * pp + b * qq + c >= 0 for a, b, c in _positivity_forms(d))


def _as_fraction(x) -> Fraction:
    """x itself when it is a Fraction already, else Fraction(x)."""
    return x if isinstance(x, Fraction) else Fraction(x)


def brauer_is_separable(p, q, d: int) -> bool:
    """Separability of the projector-weight Brauer state (p, q): q <= 1/2 and p <= 1/d.

    Tested in integers: with p = a/D1 and q = b/D2 in lowest terms, the
    state is valid iff a, b >= 0 and a D2 + b D1 <= D1 D2, and separable
    iff 2b <= D2 and d a <= D1.
    """
    p, q = _as_fraction(p), _as_fraction(q)
    a, d1, b, d2 = p.numerator, p.denominator, q.numerator, q.denominator
    if a < 0 or b < 0 or a * d2 + b * d1 > d1 * d2:
        raise ValueError(f"(p, q) = ({p}, {q}) is not a valid Brauer state")
    return 2 * b <= d2 and d * a <= d1


@lru_cache(maxsize=None)
def _ppt_forms(d: int) -> tuple[tuple[int, int, int], ...]:
    """Integer (alpha, beta, gamma): (p, q) is PPT iff every alpha p + beta q + gamma >= 0.

    The partial transpose swaps the weights (p', q') = brauer_proj_to_wfi(p, q, d),
    which are affine in (p, q), so each positivity form of (q', p') is an
    affine form in (p, q). It is read off at (0, 0), (1, 0) and (0, 1) and
    scaled by the lcm of its denominators.
    """
    origin, unit_p, unit_q = (brauer_proj_to_wfi(p, q, d) for p, q in ((0, 0), (1, 0), (0, 1)))
    forms = []
    for a, b, c in _positivity_forms(d):
        gamma = a * origin[1] + b * origin[0] + c
        alpha = a * unit_p[1] + b * unit_p[0] + c - gamma
        beta = a * unit_q[1] + b * unit_q[0] + c - gamma
        scale = math.lcm(alpha.denominator, beta.denominator, gamma.denominator)
        forms.append(tuple(int(v * scale) for v in (alpha, beta, gamma)))
    return tuple(forms)


def brauer_is_ppt(p, q, d: int) -> bool:
    """PPT of the projector-weight Brauer state: swap (p', q') and test positivity.

    Tested in integers: with p = a/D1 and q = b/D2 in lowest terms, every
    form of _ppt_forms(d) must give alpha a D2 + beta b D1 + gamma D1 D2 >= 0.
    """
    p, q = _as_fraction(p), _as_fraction(q)
    a, d1, b, d2 = p.numerator, p.denominator, q.numerator, q.denominator
    return all(alpha * a * d2 + beta * b * d1 + gamma * d1 * d2 >= 0
               for alpha, beta, gamma in _ppt_forms(d))


# ---------------------------------------------------------------------------
# conjecture probe and asymptotics

# simplex grid points per axis of conjecture_probe, so its step is 1/20
PROBE_GRID = 21


def conjecture_probe(g: Graph, which: str, d: int, budget: int | None = None) -> dict:
    """Grid comparison of signed-weight vs nonnegative-weight minimax.

    Scans weight vectors x with sum 1 (free coordinates signed on [-1, 1]
    and on the probability simplex) and compares the two minima of
    lambda_max(sum_e x_e Pi_e). Observational only: the reported gap is an
    empirical quantity at the PROBE_GRID resolution, never a proof.
    """
    if g.edge_count > 5:
        raise ValueError("grid probe limited to graphs with at most 5 edges")
    n = g.vertex_count
    if d ** n > 1024:
        raise ValueError("grid probe limited to d^n <= 1024")
    check_budget(n, d, budget)
    pair = _float_pair(which, d)
    eye = np.eye(d ** n)
    embedded = [edge_sum(n, d, [e], pair)(eye) for e in g.edges]
    k = g.edge_count
    steps = PROBE_GRID - 1

    def value(weights) -> float:
        h = sum(float(w) * m for w, m in zip(weights, embedded))
        return float(np.linalg.eigvalsh(h)[-1])

    # simplex grid: nonnegative multiples of 1/steps summing to 1
    simplex_min = math.inf
    for combo in itertools.product(range(steps + 1), repeat=k - 1):
        rest = steps - sum(combo)
        if rest < 0:
            continue
        weights = [c / steps for c in combo] + [rest / steps]
        simplex_min = min(simplex_min, value(weights))

    # signed grid on the hyperplane sum = 1; step 1/steps so it contains
    # every simplex grid point
    signed_min = math.inf
    axis = [t / steps for t in range(-steps, steps + 1)]
    for combo in itertools.product(axis, repeat=k - 1):
        weights = list(combo) + [1.0 - sum(combo)]
        signed_min = min(signed_min, value(weights))

    tolerance = g.edge_count / steps
    return {
        "signed_min": signed_min,
        "simplex_min": simplex_min,
        "gap": simplex_min - signed_min,
        "grid_points_per_axis": 2 * steps + 1,
        "tolerance": tolerance,
    }


def asymptotic_limit(family: str, var: str, n: int | None = None,
                     d: int | None = None) -> Fraction:
    """Exact limits of the closed forms as n or d grows."""
    if family not in CLOSED_FORMS:
        raise ValueError(f"unknown family {family!r}")
    if var == "d":
        if family == "werner":
            return Fraction(1)
        if n is None:
            raise ValueError("limit in d needs n")
        return Fraction(1, n + n % 2 - 1)  # brauer and both isotropic forms agree
    if var == "n":
        if d is None:
            raise ValueError("limit in n needs d")
        if family == "werner":
            return Fraction(d - 1, 2 * d)
        if family == "brauer":
            return Fraction(1, d)
        if family == "isotropic_prime":
            return Fraction(0)
        return Fraction(1, d * d)  # isotropic p inherits the 1/d^2 floor
    raise ValueError("var must be 'n' or 'd'")


def compute_value(family: str, n: int, d: int, m: int | None = None) -> ExtendibilityValue:
    """Closed-form value wrapped with its metadata; m is the second part of K_{n,m}."""
    if family == "isotropic_bipartite":
        if m is None:
            raise ValueError("bipartite value needs m")
        return ExtendibilityValue(p_iso_bipartite(n, m, d), family, n, d, m)
    if family not in CLOSED_FORMS:
        raise ValueError(f"unknown family {family!r}")
    if m is not None:
        raise ValueError(f"m applies to the bipartite family only, not {family!r}")
    return ExtendibilityValue(CLOSED_FORMS[family](n, d), family, n, d)
