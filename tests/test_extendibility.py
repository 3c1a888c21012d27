"""Closed forms, dual solvers, certificates, states, Brauer region."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from monogamy import extendibility
from monogamy.budget import BudgetExceededError
from monogamy.checks import SPEC_TOL
from monogamy.diagrams import (
    BrauerDiagram,
    SiteOperator,
    character_sum,
    jm_sum_brauer,
    jm_sum_sym,
    matrix_rep,
    pair_operators,
    projectors,
    young_symmetrizer,
)
from monogamy.extendibility import (
    AffineFn,
    CLOSED_FORMS,
    ExtendibilityValue,
    _easy_pair_table,
    _minimize_convex,
    asymptotic_limit,
    brauer_is_ppt,
    brauer_is_separable,
    brauer_proj_to_wfi,
    brauer_wfi_to_proj,
    compute_value,
    conjecture_probe,
    is_positive_brauer_prime,
    iso_dual_hamiltonian,
    iso_dual_numeric,
    isotropic_dual_argmin,
    isotropic_dual_minimax,
    isotropic_pair_state,
    iso_affine_family,
    matching_lower_bound_state,
    minimize_max_affine,
    okada_easy_pairs,
    p_avg_numeric,
    p_b_complete,
    p_iso,
    p_iso_bipartite,
    p_iso_prime,
    p_w_complete,
    q0_affine_family,
    q0_dual_value,
    reduced_state,
    special_partitions,
    trace_product,
    werner_primal_certificate,
    werner_primal_value,
)
from monogamy.graphs import make_family
from monogamy.partitions import (
    _partitions,
    brauer_jm_eigenvalue,
    content,
    enumerate_brauer_irreps,
    enumerate_sym_irreps,
    odd_row_count,
    optimal_rectangular_partition,
)
from monogamy.spectral import edge_sum, float_pair_operators, joint_spectrum, top_eigenpair

from conftest import reference_diagram_sum


class TestClosedFormsAgainstGoldenTables:
    def test_werner(self, golden_tables):
        for (n, d), want in golden_tables["werner"].items():
            assert p_w_complete(n, d) == want, (n, d)

    def test_brauer(self, golden_tables):
        for (n, d), want in golden_tables["brauer"].items():
            assert p_b_complete(n, d) == want, (n, d)

    def test_isotropic_prime(self, golden_tables):
        for (n, d), want in golden_tables["isotropic_prime"].items():
            assert p_iso_prime(n, d) == want, (n, d)

    def test_isotropic(self, golden_tables):
        for (n, d), want in golden_tables["isotropic"].items():
            assert p_iso(n, d) == want, (n, d)

    def test_spot_values(self):
        assert p_w_complete(7, 3) == Fraction(11, 21)
        assert p_b_complete(5, 3) == Fraction(7, 15)
        assert p_iso_prime(5, 3) == Fraction(7, 31)
        assert p_iso_bipartite(2, 3, 2) == Fraction(2, 3)

    def test_rejects_small_arguments(self):
        for fn in (p_w_complete, p_b_complete, p_iso_prime, p_iso):
            with pytest.raises(ValueError):
                fn(1, 2)
            with pytest.raises(ValueError):
                fn(3, 1)


class TestMonotonicityAndBounds:
    @pytest.mark.parametrize("d", range(2, 10))
    def test_iso_prime_nonincreasing_in_n(self, d):
        vals = [p_iso_prime(n, d) for n in range(2, 13)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("d", range(2, 10))
    def test_brauer_strictly_above_floor(self, d):
        for n in range(2, 13):
            assert p_b_complete(n, d) > Fraction(1, d)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_werner_above_limit(self, d):
        for n in range(2, 13):
            assert p_w_complete(n, d) >= Fraction(d - 1, 2 * d)


# few distinct values, so that equal slopes and equal offsets are common
SMALL_FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))


class TestMinimaxMachinery:
    def test_two_lines(self):
        fns = [AffineFn(Fraction(-1), Fraction(0)), AffineFn(Fraction(1), Fraction(-1))]
        x, v, active = minimize_max_affine(fns)
        assert (x, v) == (Fraction(1, 2), Fraction(-1, 2))
        assert len(active) == 2

    def test_flat_line_dominates(self):
        fns = [
            AffineFn(Fraction(0), Fraction(3)),
            AffineFn(Fraction(-1), Fraction(0)),
            AffineFn(Fraction(1), Fraction(0)),
        ]
        _, v, _ = minimize_max_affine(fns)
        assert v == 3

    def test_unbounded_raises(self):
        with pytest.raises(ValueError):
            minimize_max_affine([AffineFn(Fraction(1), Fraction(0))])
        with pytest.raises(ValueError):
            minimize_max_affine([AffineFn(Fraction(1), Fraction(0)),
                                 AffineFn(Fraction(1, 3), Fraction(2)),
                                 AffineFn(Fraction(5), Fraction(-7))])

    def test_all_flat_lines(self):
        # one slope, 0: the first line with the largest offset is the minimum everywhere
        fns = [AffineFn(Fraction(0), Fraction(1, 3), (1,)),
               AffineFn(Fraction(0), Fraction(5, 2), (2,)),
               AffineFn(Fraction(0), Fraction(5, 2), (3,)),
               AffineFn(Fraction(0), Fraction(-4), (4,))]
        assert minimize_max_affine(fns) == (Fraction(0), Fraction(5, 2), (fns[1],))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            minimize_max_affine([])

    @given(st.lists(st.tuples(SMALL_FRACTIONS, SMALL_FRACTIONS), max_size=8))
    @example([])  # empty
    @example([(Fraction(1), Fraction(0)), (Fraction(2), Fraction(-1))])  # unbounded
    @example([(Fraction(0), Fraction(0)), (Fraction(-1), Fraction(-1)),
              (Fraction(1), Fraction(-1))])  # flat minimum on [-1, 1]
    @example([(Fraction(1), Fraction(0)), (Fraction(1), Fraction(0)),
              (Fraction(-1), Fraction(0)), (Fraction(-1), Fraction(0))])  # repeated lines
    @example([(Fraction(-1), Fraction(0)), (Fraction(0), Fraction(0)),
              (Fraction(1), Fraction(0))])  # three lines through the minimum
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, lines):
        fns = [AffineFn(s, o, (i + 1,)) for i, (s, o) in enumerate(lines)]
        want = _min_of_max_by_intersections(lines)
        if want is None:
            with pytest.raises(ValueError):
                minimize_max_affine(fns)
            return
        x, value, active = minimize_max_affine(fns)
        assert value == want
        assert max(f(x) for f in fns) == value
        # the envelope pieces meeting at x: the least and the greatest slope
        # through (x, value), each the first such line in the input
        through = [f for f in fns if f(x) == value]
        ends = (min(through, key=lambda f: f.slope), max(through, key=lambda f: f.slope))
        assert active == (ends[:1] if ends[0] is ends[1] else ends)


def _min_of_max_by_intersections(lines):
    """min over x of the max of the (slope, offset) lines, or None when there is none.

    A bounded max of lines with two or more slopes has its minimum at a
    breakpoint, which is an intersection of two lines; with one slope,
    which must then be 0, it is constant.
    """
    if not lines or min(s for s, _ in lines) > 0 or max(s for s, _ in lines) < 0:
        return None
    xs = [Fraction(o2 - o1, s1 - s2)
          for (s1, o1), (s2, o2) in itertools.combinations(lines, 2) if s1 != s2]
    return min(max(s * x + o for s, o in lines) for x in xs or [Fraction(0)])


class TestDualSolvers:
    @pytest.mark.parametrize("d", range(2, 17))
    @pytest.mark.parametrize("n", range(2, 21))
    def test_isotropic_minimax_matches_closed_form(self, n, d):
        assert isotropic_dual_minimax(n, d) == p_iso_prime(n, d)

    @pytest.mark.parametrize("d", range(2, 17))
    @pytest.mark.parametrize("n", range(2, 21))
    def test_q0_matches_closed_form(self, n, d):
        assert q0_dual_value(n, d) == p_b_complete(n, d)

    @pytest.mark.parametrize("n,d,labels", [
        (6, 4, [((), (2, 2, 2)), ((), (6,))]),
        (9, 6, [((1,), (2, 2, 2, 2, 1)), ((1,), (9,))]),
    ])
    def test_active_labels_at_ties(self, n, d, labels):
        # other easy pairs give the same active lines; the first in easy-pair order is reported
        _, _, active = isotropic_dual_argmin(n, d)
        assert [(f.lam, f.mu) for f in active] == labels

    @pytest.mark.parametrize("n", range(2, 17))
    def test_easy_pairs_match_set_definition(self, n):
        # from d = n on every label of n is admitted
        for d in range(2, max(10, n + 3)):
            assert okada_easy_pairs(n, d) == _easy_pairs_by_definition(n, d), d

    @pytest.mark.parametrize("n", range(2, 21))
    def test_q0_flat_maximum_matches_its_affine_family(self, n):
        for d in range(2, 17):
            assert q0_dual_value(n, d) == minimize_max_affine(q0_affine_family(n, d))[1], d

    @pytest.mark.parametrize("n", range(2, 17))
    def test_easy_pair_table_integers(self, n):
        for _, (lam, mu), twice_c, rest, c_mu in _easy_pair_table(n):
            assert (twice_c, rest, c_mu) == (2 * content(lam), n - sum(lam), content(mu))

    def test_easy_pair_table_is_built_once_per_n(self):
        n = 12
        _easy_pair_table.cache_clear()
        for d in range(2, 17):
            isotropic_dual_argmin(n, d)
            okada_easy_pairs(n, d)
        assert _easy_pair_table.cache_info().misses == 1
        # the labels are the partitions cache's own tuples, not copies
        cached = {id(lam) for m in range(n + 1) for lam in _partitions(m)}
        assert all(id(lam) in cached and id(mu) in cached
                   for _, (lam, mu), _, _, _ in _easy_pair_table(n))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_integer_lines_match_the_affine_family(self, n):
        # the dual's envelope runs on integer lines; its AffineFn family gives the same optimum
        for d in range(2, 17):
            assert isotropic_dual_argmin(n, d) == minimize_max_affine(iso_affine_family(n, d)), d

    def test_odd_odd_breakpoint(self):
        x, v, _ = isotropic_dual_argmin(5, 3)
        assert x == Fraction(-3, 62)
        assert v == Fraction(7, 31)

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_even_n_optimum_at_natural_point(self, n, d):
        # for even n the minimizer is x-tilde = 1/(|E|(1-d))
        x, _, _ = isotropic_dual_argmin(n, d)
        edges = n * (n - 1) // 2
        assert x == Fraction(1, edges * (1 - d))

    def test_easy_pairs_examples(self):
        pairs = okada_easy_pairs(3, 2)
        assert ((1,), (2, 1)) in pairs
        assert ((3,), (3,)) in pairs
        assert ((1,), (3,)) in pairs

    def test_special_partitions(self):
        sp = special_partitions(5, 3)
        assert sp["lambda1"] == (1, 1, 1)
        assert sp["mu1"] == (5,)
        assert sp["mu2"] == (3, 1, 1)
        assert sum(sp["mu3"]) == 5

    @pytest.mark.parametrize("d", range(3, 26, 2))
    def test_special_pairs_are_easy_pairs(self, d):
        # mu2 and mu3 have exactly d odd rows (rule 1 with lambda1); (lambda2, mu1) is rule 3
        for n in range(d, 26, 2):
            pairs = set(okada_easy_pairs(n, d))
            sp = special_partitions(n, d)
            assert (sp["lambda1"], sp["mu2"]) in pairs
            assert (sp["lambda1"], sp["mu3"]) in pairs
            assert (sp["lambda2"], sp["mu1"]) in pairs

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3), (3, 4)])
    def test_easy_pairs_span_joint_spectrum_hull(self, n, d):
        # the easy-rule points (c(mu), Brauer JM eigenvalue of lam) have the same
        # support function as the float joint spectrum of the two JM sums
        spectrum = joint_spectrum(jm_sum_sym(n, d), jm_sum_brauer(n, d)).pairs
        easy = [(content(mu), float(brauer_jm_eigenvalue(lam, n, d)))
                for lam, mu in okada_easy_pairs(n, d)]
        for k in range(16):
            a, b = math.cos(2 * math.pi * k / 16), math.sin(2 * math.pi * k / 16)
            got = max(a * x + b * y for x, y in spectrum)
            want = max(a * x + b * y for x, y in easy)
            assert got == pytest.approx(want, abs=SPEC_TOL)

    @pytest.mark.parametrize("d", range(2, 10))
    @pytest.mark.parametrize("n", range(2, 10))
    def test_q0_over_all_easy_pairs_matches_row_labels(self, n, d):
        # q0_affine_family keeps only mu = (n); the other labels never reach the envelope
        edges = Fraction(n * (n - 1), 2)
        fns = []
        for lam, mu in okada_easy_pairs(n, d):
            c = content(mu)
            fns.append(AffineFn((1 - c / edges) / d,
                                (c - brauer_jm_eigenvalue(lam, n, d)) / (d * edges), lam, mu))
        assert minimize_max_affine(fns)[1] == q0_dual_value(n, d)

    def test_numeric_dual(self):
        assert iso_dual_numeric(4, 2) == pytest.approx(float(p_iso_prime(4, 2)), abs=1e-8)
        assert iso_dual_numeric(5, 3) == pytest.approx(float(Fraction(7, 31)), abs=1e-8)

    def test_overflowing_dual_hamiltonian_is_rejected(self):
        # x = -1e308 is finite, but the pair operator at it overflows
        with pytest.raises(ValueError, match=r"x=-1e\+308 is not finite"):
            iso_dual_hamiltonian(3, 2, -1e308)

    @pytest.mark.parametrize("x", [-1.0, -0.3, 0.0, 0.25, 1.0])
    def test_dual_hamiltonian_pencil_matches_definition(self, x):
        # H(x) = H0 + x H1 is the edge sum of (c - x)(I - d F) + x (F - W)
        n, d = 3, 3
        g = make_family("complete", n)
        w, ident, f = float_pair_operators(d)
        c = 1.0 / (g.edge_count * (1 - d))
        want = edge_sum(n, d, g.edges, (c - x) * (ident - d * f) + x * (f - w))(np.eye(d ** n))
        got = iso_dual_hamiltonian(n, d, x)(np.eye(d ** n))
        assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3), (4, 2), (5, 3), (7, 3), (5, 5)])
    def test_numeric_dual_few_solves(self, monkeypatch, n, d):
        # the five verify points plus the two perfbench oracle_scale points
        solves = []

        def counted(op, dim):
            solves.append(op)
            return top_eigenpair(op, dim)

        monkeypatch.setattr(extendibility, "top_eigenpair", counted)
        assert abs(iso_dual_numeric(n, d) - float(p_iso_prime(n, d))) <= 1e-11
        assert len(solves) <= 8


def _easy_pairs_by_definition(n, d):
    """The easy-rule pairs as sets of symmetric-group and Brauer labels."""
    sym = set(enumerate_sym_irreps(n, d))
    brauer = set(enumerate_brauer_irreps(n, d))
    column = {(col, mu) for mu in sym if (col := (1,) * odd_row_count(mu)) in brauer}
    full = {(lam, lam) for lam in sym & brauer}
    row = {(lam, (n,)) for lam in brauer if len(lam) <= 1}
    return sorted(column | full | row)


def _counted(f):
    """f and the list of points it has been evaluated at."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return g, xs


def _max_of_lines(lines):
    """x -> (max of the lines, slope of one line attaining it)."""
    def f(x):
        return max((a * x + b, a) for a, b in lines)
    return f


class TestMinimizeConvex:
    @given(st.lists(st.tuples(st.fractions(-3, 3, max_denominator=64),
                              st.fractions(-1, 1, max_denominator=64)),
                    min_size=3, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_piecewise_linear_interior_minimum_is_exact(self, exact_lines):
        lines = [(float(a), float(b)) for a, b in exact_lines]
        value = _max_of_lines(lines)
        assume(value(-1.0)[1] < 0 < value(1.0)[1])
        # the minimum of a max of lines sits at -1, 1 or a crossing of two lines
        crossings = [Fraction(b2 - b1, a1 - a2)
                     for (a1, b1), (a2, b2) in itertools.combinations(exact_lines, 2) if a1 != a2]
        want = min(max(a * x + b for a, b in exact_lines)
                   for x in [Fraction(-1), Fraction(1)] + crossings if -1 <= x <= 1)
        f, xs = _counted(value)
        assert abs(_minimize_convex(f) - float(want)) <= 1e-12
        assert len(xs) <= 8

    def test_minimum_at_left_end(self):
        f, xs = _counted(_max_of_lines([(0.5, 0.25), (2.0, 1.0)]))
        assert _minimize_convex(f) == -0.25
        assert xs == [-1.0]

    def test_flat_at_left_end_stops_there(self):
        f, xs = _counted(_max_of_lines([(0.0, 0.25), (-1.0, -1.0)]))
        assert _minimize_convex(f) == 0.25
        assert xs == [-1.0]

    def test_minimum_at_right_end(self):
        f, xs = _counted(_max_of_lines([(-0.5, 0.25), (-2.0, 1.0)]))
        assert _minimize_convex(f) == -0.25
        assert xs == [-1.0, 1.0]

    def test_smooth_quadratic(self):
        f, xs = _counted(lambda x: ((x - 0.3) ** 2, 2 * (x - 0.3)))
        assert _minimize_convex(f) <= 1e-9
        assert len(xs) <= 30

    def test_midpoint_safeguard_bounds_steep_side(self):
        # the tangent at the steep right end keeps the cut next to it; without the
        # halving safeguard this takes about 40 evaluations
        f, xs = _counted(lambda x: (math.exp(20 * x) - x, 20 * math.exp(20 * x) - 1))
        assert _minimize_convex(f) == pytest.approx((1 + math.log(20)) / 20, abs=1e-9)
        assert all(-1 <= x <= 1 for x in xs)
        assert len(xs) <= 30


class TestNumericOracle:
    @pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (3, 3), (5, 2)])
    def test_werner_oracle(self, n, d):
        got = p_avg_numeric(make_family("complete", n), "werner", d)
        assert got == pytest.approx(float(p_w_complete(n, d)), abs=1e-9)

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (3, 3)])
    def test_brauer_oracle(self, n, d):
        got = p_avg_numeric(make_family("complete", n), "brauer", d)
        assert got == pytest.approx(float(p_b_complete(n, d)), abs=1e-9)

    def test_bipartite_oracle(self):
        got = p_avg_numeric(make_family("complete_bipartite", 2, 3), "brauer", 2)
        assert got == pytest.approx(float(p_iso_bipartite(2, 3, 2)), abs=1e-9)

    def test_unknown_projector(self):
        with pytest.raises(ValueError):
            p_avg_numeric(make_family("complete", 3), "ghz", 2)


# the points the certificate tests build a state at, with the cap each needs
CERTIFICATE_POINTS = [
    (2, 2, None), (3, 2, None), (4, 2, None), (4, 3, None), (5, 2, None), (6, 2, None),
    (7, 2, 128), (7, 3, 2187),
]
# the n <= 5 points of the primal check's grid within the default cap
CLASS_SUM_POINTS = [(n, d) for n in range(2, 6) for d in range(2, 65) if d ** n <= 4096]


class TestPrimalCertificates:
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (4, 3), (5, 2), (6, 2)])
    def test_achieves_closed_form(self, n, d):
        state, achieved = werner_primal_certificate(n, d)
        assert achieved == p_w_complete(n, d)
        assert type(achieved) is Fraction
        assert state.trace() == 1

    def test_all_edge_marginals_equal(self):
        n, d = 4, 2
        state, _ = werner_primal_certificate(n, d)
        _, p_11, _ = projectors(d)
        weights = {
            trace_product(p_11, reduced_state(state, e, n, d))
            for e in make_family("complete", n).edges
        }
        assert weights == {p_w_complete(n, d)}

    def test_trace_product_of_int_operators_is_a_fraction(self):
        w, _, f = pair_operators(3)
        got = trace_product(f, w)  # F W = W, whose trace is d
        assert type(got) is Fraction and got == 3

    @pytest.mark.parametrize("n,d", [(4, 2), (4, 3), (5, 2)])
    def test_state_and_flip_reading_match_symmetrizer_and_marginal(self, n, d):
        # the certificate reads achieved off Tr[F_01 A]; the partial trace must agree
        state, achieved = werner_primal_certificate(n, d)
        eps = young_symmetrizer(optimal_rectangular_partition(n, d), n, d)
        assert state == eps * Fraction(1, eps.trace())
        _, p_11, _ = projectors(d)
        assert achieved == trace_product(p_11, reduced_state(state, (0, 1), n, d))

    @pytest.mark.parametrize("n,d,budget", CERTIFICATE_POINTS)
    def test_value_equals_the_certificate_and_closed_form(self, n, d, budget):
        value = werner_primal_value(n, d, budget)
        assert type(value) is Fraction
        assert value == werner_primal_certificate(n, d, budget)[1] == p_w_complete(n, d)

    @pytest.mark.parametrize("n,d,budget", CERTIFICATE_POINTS)
    def test_achieved_equals_the_traces_of_the_expanded_sum(self, n, d, budget):
        a = character_sum(optimal_rectangular_partition(n, d), n, d)
        t = trace_product(matrix_rep(BrauerDiagram.identity(n), d), a)
        flips = trace_product(matrix_rep(BrauerDiagram.transposition(n, 0, 1), d), a)
        assert werner_primal_certificate(n, d, budget)[1] == (t - flips) / (2 * t)

    @pytest.mark.parametrize("n,d", CLASS_SUM_POINTS)
    def test_class_sums_match_the_trace_product(self, n, d):
        a = character_sum(optimal_rectangular_partition(n, d), n, d)
        diags = [BrauerDiagram.identity(n), BrauerDiagram.transposition(n, 0, 1)]
        got = extendibility._certificate_traces(n, d)
        assert list(got) == [trace_product(matrix_rep(diag, d), a) for diag in diags]
        assert all(type(t) is int for t in got)

    def test_value_equals_the_closed_form_on_the_full_table(self):
        for n in range(2, 13):
            for d in range(2, 10):
                value = werner_primal_value(n, d)
                assert type(value) is Fraction
                assert value == p_w_complete(n, d), (n, d)

    def test_value_builds_no_operator_and_ignores_the_cap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("werner_primal_value built a SiteOperator")

        monkeypatch.setattr(SiteOperator, "__init__", refuse)
        # d^n = 4^6 and 3^8 are far above a cap of 1
        assert werner_primal_value(6, 4, budget=1) == p_w_complete(6, 4)
        assert werner_primal_value(8, 3, budget=1) == p_w_complete(8, 3)

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            werner_primal_certificate(8, 2, budget=100)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_rejected(self, budget):
        for primal in (werner_primal_certificate, werner_primal_value):
            with pytest.raises(ValueError, match=f"budget must be at least 1, got {budget}"):
                primal(3, 2, budget=budget)


class TestMatchingStates:
    @pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (5, 2), (4, 3)])
    def test_marginals_isotropic(self, n, d):
        rho = matching_lower_bound_state(n, d)
        assert rho.trace() == 1
        target = isotropic_pair_state(Fraction(1, n + n % 2 - 1), d)
        for e in make_family("complete", n).edges:
            assert reduced_state(rho, e, n, d) == target

    @pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (3, 3)])
    def test_equals_average_of_matching_products(self, n, d):
        # every matching of n // 2 disjoint edges of K_n, one per state
        edges = make_family("complete", n).edges
        states = [m for m in itertools.combinations(edges, n // 2)
                  if len({v for e in m for v in e}) == 2 * (n // 2)]
        total = SiteOperator.zero(n, d)
        for m in states:
            prod = SiteOperator.identity(n, d) * Fraction(1, d ** (n % 2))
            for u, v in m:
                w_uv = reference_diagram_sum([(1, BrauerDiagram.bar(n, u, v))], n, d)
                prod = prod @ (SiteOperator(n, d, w_uv) * Fraction(1, d))
            total = total + prod
        assert matching_lower_bound_state(n, d) == total * Fraction(1, len(states))

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            matching_lower_bound_state(6, 4, budget=1000)


class TestReducedState:
    def test_edge_order_matters(self):
        rho = matching_lower_bound_state(3, 2)
        a = reduced_state(rho, (0, 1), 3, 2)
        assert a.trace() == 1
        assert a.is_symmetric()

    def test_rejects_bad_edge(self):
        rho = matching_lower_bound_state(3, 2)
        with pytest.raises(ValueError):
            reduced_state(rho, (0, 3), 3, 2)
        with pytest.raises(ValueError):
            reduced_state(rho, (1, 1), 3, 2)


def _separable_by_fractions(p, q, d):
    """Brauer separability compared in Fractions: ValueError off the state triangle."""
    p, q = Fraction(p), Fraction(q)
    if p < 0 or q < 0 or p + q > 1:
        raise ValueError(f"(p, q) = ({p}, {q}) is not a valid Brauer state")
    return q <= Fraction(1, 2) and p <= Fraction(1, d)


def _outcome(f, *args):
    """f(*args), or the text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


def _region_inputs(count=600, seed=11):
    """Seeded (p, q) in [-1/4, 5/4]^2, each as a Fraction, its string or, when integral, an int."""
    rng = random.Random(seed)
    points = [(p, q) for p in (-1, 0, 1, 2) for q in (-1, 0, 1, 2)]
    for _ in range(count):
        den = rng.randint(1, 36)
        pair = (Fraction(rng.randint(-den // 4, 5 * den // 4), den) for _ in range(2))
        points.append(tuple(rng.choice([x, str(x)] + [int(x)] * (x.denominator == 1))
                            for x in pair))
    return points


REGION_INPUTS = _region_inputs()


class TestBrauerRegion:
    def test_conversion_examples(self):
        # the maximally entangled projector state is pure W/d
        assert brauer_proj_to_wfi(1, 0, 2) == (Fraction(1), Fraction(0))
        # the maximally mixed state has p = 1/d^2, q = (d-1)/(2d)
        d = 3
        assert brauer_wfi_to_proj(0, 0, d) == (Fraction(1, d * d), Fraction(d - 1, 2 * d))

    @given(
        st.fractions(min_value=-2, max_value=2),
        st.fractions(min_value=-2, max_value=2),
        st.integers(2, 6),
    )
    @settings(max_examples=100)
    def test_roundtrip(self, p, q, d):
        pp, qq = brauer_proj_to_wfi(p, q, d)
        assert brauer_wfi_to_proj(pp, qq, d) == (p, q)

    def test_params_convert_roundtrip(self):
        pp, qq = brauer_proj_to_wfi(Fraction(1, 3), Fraction(1, 4), 3)
        assert (pp, qq) == (Fraction(1, 4), Fraction(0))
        assert brauer_wfi_to_proj(pp, qq, 3) == (Fraction(1, 3), Fraction(1, 4))

    def test_positivity_triangle_vertices_d2(self):
        for pp, qq in [(Fraction(-1, 2), Fraction(1, 2)), (0, -1), (1, 0)]:
            assert is_positive_brauer_prime(pp, qq, 2)
        assert not is_positive_brauer_prime(Fraction(101, 100), 0, 2)
        assert not is_positive_brauer_prime(0, Fraction(-101, 100), 2)

    @given(st.fractions(-3, 3, max_denominator=50), st.fractions(-3, 3, max_denominator=50),
           st.integers(2, 6))
    @settings(max_examples=150)
    def test_positivity_matches_eigenvalue_inequalities(self, pp, qq, d):
        assert is_positive_brauer_prime(pp, qq, d) == (
            pp * (d * d - 1) + qq * (d - 1) + 1 >= 0
            and -pp - qq * (d + 1) + 1 >= 0
            and 2 - d + d * d + pp * (d * d + d - 2) - qq * (d ** 3 - 3 * d + 2) <= 2 * d * d
        )

    @given(st.fractions(-2, 2, max_denominator=120), st.fractions(-2, 2, max_denominator=120),
           st.integers(2, 16))
    @settings(max_examples=300)
    def test_ppt_matches_swapped_positivity(self, p, q, d):
        # p, q range past the valid states 0 <= p, q and p + q <= 1
        assert brauer_is_ppt(p, q, d) == is_positive_brauer_prime(
            *reversed(brauer_proj_to_wfi(p, q, d)), d)

    def test_separability_examples(self):
        assert brauer_is_separable(Fraction(1, 2), Fraction(1, 2), 2)
        assert not brauer_is_separable(1, 0, 2)
        assert not brauer_is_separable(0, 1, 3)

    def test_separable_rejects_nonstate(self):
        with pytest.raises(ValueError):
            brauer_is_separable(Fraction(3, 4), Fraction(1, 2), 2)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_predicates_match_fraction_reference(self, d):
        # int, Fraction and string inputs, on and off the state triangle
        for p, q in REGION_INPUTS:
            got = _outcome(brauer_is_separable, p, q, d)
            assert got == _outcome(_separable_by_fractions, p, q, d), (p, q)
            assert brauer_is_ppt(p, q, d) == is_positive_brauer_prime(
                *reversed(brauer_proj_to_wfi(p, q, d)), d), (p, q)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_ppt_equals_separable_on_grid(self, d):
        for i in range(0, 41):
            for j in range(0, 41 - i):
                p, q = Fraction(i, 40), Fraction(j, 40)
                assert brauer_is_separable(p, q, d) == brauer_is_ppt(p, q, d), (p, q)


class TestConjectureProbe:
    def test_triangle_gap_within_tolerance(self):
        rep = conjecture_probe(make_family("complete", 3), "werner", 2)
        assert -1e-9 <= rep["gap"] <= rep["tolerance"]

    def test_rejects_large_graph(self):
        with pytest.raises(ValueError):
            conjecture_probe(make_family("complete", 4), "werner", 2)


class TestAsymptotics:
    def test_limits_in_n(self):
        assert asymptotic_limit("werner", "n", d=2) == Fraction(1, 4)
        assert asymptotic_limit("brauer", "n", d=3) == Fraction(1, 3)
        assert asymptotic_limit("isotropic_prime", "n", d=5) == 0
        assert asymptotic_limit("isotropic", "n", d=2) == Fraction(1, 4)

    def test_limits_in_d(self):
        assert asymptotic_limit("werner", "d") == 1
        assert asymptotic_limit("brauer", "d", n=5) == Fraction(1, 5)
        assert asymptotic_limit("isotropic_prime", "d", n=4) == Fraction(1, 3)

    @pytest.mark.parametrize("d", [50, 100])
    def test_brauer_and_isotropic_converge(self, d):
        for n in (3, 4, 5):
            assert abs(float(p_b_complete(n, d) - p_iso(n, d))) < 2.0 / d

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            asymptotic_limit("ghz", "n", d=2)
        with pytest.raises(ValueError):
            asymptotic_limit("werner", "k", d=2)


class TestComputeValue:
    def test_metadata(self):
        r = compute_value("werner", 7, 3)
        assert (r.value, r.graph, r.method) == (Fraction(11, 21), "K_7", "closed_form")

    def test_bipartite_needs_m(self):
        with pytest.raises(ValueError):
            compute_value("isotropic_bipartite", 2, 2)
        r = compute_value("isotropic_bipartite", 2, 2, m=3)
        assert (r.value, r.graph, r.m) == (Fraction(2, 3), "K_{2,3}", 3)

    @pytest.mark.parametrize("family,m", [*((f, None) for f in sorted(CLOSED_FORMS)),
                                          ("isotropic_bipartite", 3)])
    def test_record_recomputes_from_its_fields(self, family, m):
        r = compute_value(family, 4, 3, m)
        assert compute_value(r.family, r.n, r.d, r.m) == r

    def test_m_only_for_bipartite(self):
        with pytest.raises(ValueError, match="bipartite"):
            compute_value("werner", 3, 2, m=7)

    @pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
    def test_closed_form_table(self, family):
        r = compute_value(family, 5, 3)
        assert (r.value, r.family, r.m) == (CLOSED_FORMS[family](5, 3), family, None)

    def test_value_range_enforced(self):
        with pytest.raises(ValueError):
            ExtendibilityValue(Fraction(3, 2), "werner", 2, 2)
