"""Numeric spectral layer: clustering, eigen multisets, joint spectra, Lanczos."""

import tracemalloc

import numpy as np
import pytest

from monogamy import spectral
from monogamy.diagrams import (
    SiteOperator,
    jm_sum_brauer,
    jm_sum_sym,
    pair_operators,
    projectors,
)
from monogamy.extendibility import p_w_complete
from monogamy.graphs import edge_average_hamiltonian, make_family
from monogamy.spectral import (
    cluster,
    edge_sum,
    float_pair_operators,
    joint_spectrum,
    lambda_max,
    sym_eigen,
    top_eigenpair,
)

from conftest import counting_operator


class TestCluster:
    def test_groups_within_tolerance(self):
        reps, counts = cluster([1.0, 1.0 + 1e-10, 2.0, 2.0, 3.0], tol=1e-8)
        assert reps == (1.0, 2.0, 3.0)
        assert counts == (2, 2, 1)

    def test_sorts_input(self):
        reps, counts = cluster([3.0, 1.0, 2.0])
        assert reps == (1.0, 2.0, 3.0)
        assert counts == (1, 1, 1)


class TestSymEigen:
    def test_flip_spectrum(self):
        _, _, f = pair_operators(2)
        spec = sym_eigen(f)
        assert spec.as_pairs() == [
            pytest.approx((-1.0, 1)),
            pytest.approx((1.0, 3)),
        ]

    def test_w_spectrum(self):
        w, _, _ = pair_operators(2)
        spec = sym_eigen(w)
        assert spec.eigenvalues == pytest.approx((0.0, 2.0), abs=1e-12)
        assert spec.multiplicities == (3, 1)

    def test_jm_sym_42_multiset(self):
        # two-row labels of size 4: contents 6, 2, 0 with total dims 5, 9, 2
        spec = sym_eigen(jm_sum_sym(4, 2))
        got = {round(v): m for v, m in spec.as_pairs()}
        assert got == {6: 5, 2: 9, 0: 2}
        assert spec.dimension == 16

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            sym_eigen(SiteOperator(1, 2, {(0, 1): 1}))


class TestEdgeSum:
    @pytest.mark.parametrize(
        "tag,n,m,d",
        [("complete", 4, None, 2), ("cycle", 5, None, 3), ("path", 3, None, 3),
         ("complete_bipartite", 2, 3, 2)],
    )
    @pytest.mark.parametrize("which", ["p_empty", "p_11", "p_2", "flip"])
    def test_matches_exact_edge_sum(self, tag, n, m, d, which):
        g = make_family(tag, n, m)
        op = dict(zip(("p_empty", "p_11", "p_2"), projectors(d)), flip=pair_operators(d)[2])[which]
        dim = d ** g.vertex_count
        got = edge_sum(g.vertex_count, d, g.edges, op.to_dense())(np.eye(dim))
        want = edge_average_hamiltonian(g, op).to_dense() * g.edge_count
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize(
        "n,d,edges",
        [
            (2, 2, [(1, 0)]),
            (3, 3, [(0, 2), (2, 1)]),
            (4, 2, [(0, 1), (2, 1), (2, 3), (3, 0)]),
            (4, 4, [(3, 0), (1, 2), (0, 1)]),
            (5, 2, [(0, 4), (4, 3), (1, 3), (2, 0)]),
            (5, 3, [(4, 0), (2, 3), (1, 4)]),
        ],
    )
    def test_random_pair_matches_index_loops(self, n, d, edges):
        # edges in both orientations, adjacent and not, touching sites 0 and n - 1
        rng = np.random.default_rng(100 * n + d)
        a = rng.standard_normal((d * d, d * d))
        sym = a + a.T
        flip = float_pair_operators(d)[2]
        pair = sym + flip @ sym @ flip  # exactly symmetric and flip-invariant
        dim = d ** n
        want = _edge_sum_by_index_loops(n, d, edges, pair)
        op = edge_sum(n, d, edges, pair)
        block = rng.standard_normal((dim, 3))
        by_column = np.column_stack([
            op(block[:, 0]), op(block[:, 1:2])[:, 0], op(block)[:, 2],
        ])
        assert op(block[:, 1:2]).shape == (dim, 1)
        assert np.max(np.abs(by_column - want @ block)) < 1e-12
        assert np.max(np.abs(op(block) - want @ block)) < 1e-12

    def test_float_pair_operators_match_exact(self):
        for got, want in zip(float_pair_operators(3), pair_operators(3)):
            assert np.array_equal(got, want.to_dense())

    def test_rejects_non_symmetric(self):
        pair = np.zeros((4, 4))
        pair[0, 1] = 1.0
        with pytest.raises(ValueError):
            edge_sum(3, 2, [(0, 1)], pair)

    def test_rejects_non_flip_invariant(self):
        # symmetric, but weights |01> and |10> differently
        pair = np.diag([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            edge_sum(3, 2, [(0, 1)], pair)

    def test_rejects_bad_edges(self):
        _, ident, _ = float_pair_operators(2)
        with pytest.raises(ValueError):
            edge_sum(3, 2, [], ident)
        with pytest.raises(ValueError):
            edge_sum(3, 2, [(0, 3)], ident)

    def test_rejects_wrong_row_count(self):
        op = edge_sum(3, 2, make_family("complete", 3).edges, float_pair_operators(2)[2])
        dim = 8
        with pytest.raises(ValueError):
            op(np.ones(dim + 1))
        with pytest.raises(ValueError):
            op(np.ones((dim - 1, 2)))
        # reshape alone would read this as one column of dim rows
        with pytest.raises(ValueError):
            op(np.ones((dim // 2, 2)))


def _edge_sum_by_index_loops(n, d, edges, pair):
    """Dense sum over edges (u, v) of `pair` on sites u, v, one matrix entry at a time.

    Row r couples to every column that agrees with r off sites u and v;
    site 0 is the most significant digit.
    """
    dim = d ** n
    out = np.zeros((dim, dim))
    for u, v in edges:
        for r in range(dim):
            digits = [(r // d ** (n - 1 - s)) % d for s in range(n)]
            for k in range(d):
                for l in range(d):
                    col = list(digits)
                    col[u], col[v] = k, l
                    c = sum(x * d ** (n - 1 - s) for s, x in enumerate(col))
                    out[r, c] += pair[digits[u] * d + digits[v], k * d + l]
    return out


def _flip_invariant_pair(rng, d):
    a = rng.standard_normal((d * d, d * d))
    sym = a + a.T
    flip = float_pair_operators(d)[2]
    return sym + flip @ sym @ flip  # exactly symmetric and flip-invariant


def _random_graph_edges(n, count, seed):
    """`count` distinct edges of K_n, each in a random orientation."""
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pick = sorted(rng.permutation(len(pairs))[:count])
    return [pairs[i] if rng.random() < 0.5 else pairs[i][::-1] for i in pick]


def _oriented_complete_edges(n, seed):
    rng = np.random.default_rng(seed)
    return [(u, v) if rng.random() < 0.5 else (v, u) for u, v in make_family("complete", n).edges]


# (n, d, edges, group sizes that must occur); each edge list ends with a
# reversed copy of its first edge
GROUPED_CASES = [
    (8, 2, _oriented_complete_edges(8, 1), {6, 4}),
    (8, 2, _random_graph_edges(8, 12, 7), {6, 2}),
    (5, 3, _oriented_complete_edges(5, 2), {3}),
    (4, 5, _oriented_complete_edges(4, 3), {2}),
]
GROUPED_CASES = [(n, d, edges + [edges[0][::-1]], sizes) for n, d, edges, sizes in GROUPED_CASES]
GROUPED_IDS = ["K8@2", "random8@2", "K5@3", "K4@5"]


class TestSiteGroups:
    @pytest.mark.parametrize("n,d,edges,sizes", GROUPED_CASES, ids=GROUPED_IDS)
    def test_grouped_kernel_matches_index_loops(self, n, d, edges, sizes):
        groups = spectral._site_groups(n, d, edges)
        assert sizes <= {len(sites) for sites, _ in groups}
        assert all(len(sites) < n for sites, _ in groups)
        rng = np.random.default_rng(10 * n + d)
        pair = _flip_invariant_pair(rng, d)
        dim = d ** n
        want = _edge_sum_by_index_loops(n, d, edges, pair)
        op = edge_sum(n, d, edges, pair)
        block = rng.standard_normal((dim, 3))
        assert op(block[:, 0]).shape == (dim,)
        assert op(block[:, :1]).shape == (dim, 1)
        assert np.max(np.abs(op(block[:, 0]) - want @ block[:, 0])) < 1e-12
        assert np.max(np.abs(op(block[:, :1]) - want @ block[:, :1])) < 1e-12
        assert np.max(np.abs(op(block) - want @ block)) < 1e-12

    @pytest.mark.parametrize(
        "n,d,edges",
        [(n, d, edges) for n, d, edges, _ in GROUPED_CASES]
        + [
            (12, 2, make_family("complete", 12).edges),
            (14, 2, make_family("cycle", 14).edges),
            (7, 3, make_family("complete", 7).edges),
            (6, 4, make_family("complete", 6).edges),
            (5, 6, make_family("complete", 5).edges),
            (9, 2, [(0, 1), (1, 0), (0, 1), (2, 3)]),
        ],
    )
    def test_every_edge_in_one_group_within_group_dim(self, n, d, edges):
        groups = spectral._site_groups(n, d, edges)
        members = [e for _, group_edges in groups for e in group_edges]
        assert sorted(members) == sorted(tuple(e) for e in edges)
        for sites, group_edges in groups:
            assert 2 <= len(sites) and d ** len(sites) <= spectral.GROUP_DIM
            assert group_edges and all(u in sites and v in sites for u, v in group_edges)
        assert spectral._site_groups(n, d, edges) == groups

    def test_complete_graph_on_qubits_takes_few_groups(self):
        # one group per edge would be 66
        assert len(spectral._site_groups(12, 2, make_family("complete", 12).edges)) <= 8


class TestLambdaMax:
    def test_complete_graph_werner(self):
        g = make_family("complete", 3)
        h = edge_sum(3, 2, g.edges, projectors(2)[1].to_dense())
        assert lambda_max(h, 8) / g.edge_count == pytest.approx(float(p_w_complete(3, 2)), abs=1e-12)

    def test_projector(self):
        _, p_11, _ = projectors(2)
        assert lambda_max(edge_sum(2, 2, [(0, 1)], p_11.to_dense()), 4) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_sparse_path_large_dimension(self):
        # dim 4096: the top eigenvalue of the transposition sum over K_12 is
        # the full-row content 66
        _, _, f = float_pair_operators(2)
        h = edge_sum(12, 2, make_family("complete", 12).edges, f)
        assert lambda_max(h, 4096) == pytest.approx(66.0, abs=1e-7)


class TestJointSpectrum:
    def test_two_site_qubit_pairs(self):
        js = joint_spectrum(jm_sum_sym(2, 2), jm_sum_brauer(2, 2))
        got = {
            (round(a), round(b)): m for (a, b), m in zip(js.pairs, js.multiplicities)
        }
        assert got == {(-1, -1): 1, (1, -1): 1, (1, 1): 2}
        assert js.dimension == 4

    def test_rejects_non_commuting(self):
        _, _, f = pair_operators(2)
        diag = SiteOperator(2, 2, {(i, i): i for i in range(4)})
        with pytest.raises(ValueError):
            joint_spectrum(f, diag)

    def test_rejects_shape_mismatch(self):
        a = SiteOperator.identity(2, 2)
        b = SiteOperator.identity(3, 2)
        with pytest.raises(ValueError):
            joint_spectrum(a, b)


class TestTopEigenpair:
    # the operators of the TestLambdaMax cases
    @pytest.mark.parametrize("op,dim", [
        (edge_sum(3, 2, make_family("complete", 3).edges, projectors(2)[1].to_dense()), 8),
        (edge_sum(2, 2, [(0, 1)], projectors(2)[1].to_dense()), 4),
        (edge_sum(12, 2, make_family("complete", 12).edges, float_pair_operators(2)[2]), 4096),
    ], ids=["complete-werner", "projector", "sparse-4096"])
    def test_unit_ritz_vector(self, op, dim):
        value, vec = top_eigenpair(op, dim)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert vec @ op(vec) == pytest.approx(value, abs=1e-12)
        assert lambda_max(op, dim) == value


def _random_symmetric(dim, seed):
    a = np.random.default_rng(seed).standard_normal((dim, dim))
    return (a + a.T) / 2


def _with_spectrum(values, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(values), len(values))))
    return (q * values) @ q.T


class TestLanczos:
    def _check_against_dense(self, dense):
        count = [0]
        op = counting_operator(lambda x: dense @ x, count)
        dim = len(dense)
        exact = np.linalg.eigvalsh(dense)
        scale = max(abs(exact[0]), abs(exact[-1]), 1.0)
        value, vec = top_eigenpair(op, dim)
        matvecs = count[0]
        assert abs(value - exact[-1]) <= 1e-12 * scale
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert abs(vec @ dense @ vec - value) <= 1e-12 * scale
        assert lambda_max(op, dim) == value
        return matvecs

    @pytest.mark.parametrize("dim", [1, 2, 19, 20, 21, 200])
    def test_random_dense(self, dim):
        matvecs = self._check_against_dense(_random_symmetric(dim, seed=dim))
        if dim <= spectral.BASIS_VECTORS:
            assert matvecs <= dim  # the basis spans the whole space by then
        if dim == 200:
            # the top pair needs more products than one basis holds
            assert matvecs > spectral.BASIS_VECTORS

    def test_degenerate_top_eigenvalue(self):
        self._check_against_dense(_with_spectrum([5.0] * 4 + list(range(46)), seed=1))

    def test_all_negative_spectrum_gives_largest_algebraic_value(self):
        values = -1.0 - np.arange(60.0)
        dense = _with_spectrum(values, seed=2)
        self._check_against_dense(dense)
        assert lambda_max(lambda x: dense @ x, 60) == pytest.approx(-1.0)

    def test_zero_operator(self):
        assert self._check_against_dense(np.zeros((30, 30))) == 1

    def test_complete_graph_breaks_down_early(self):
        # the transposition sum over K_12 on qubits has seven distinct
        # eigenvalues, so its Krylov space turns invariant after a few products
        _, _, f = float_pair_operators(2)
        count = [0]
        op = counting_operator(edge_sum(12, 2, make_family("complete", 12).edges, f), count)
        value, vec = top_eigenpair(op, 4096)
        assert count[0] <= 12
        assert value == pytest.approx(66.0, abs=1e-12 * 66)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert vec @ op(vec) == pytest.approx(value, abs=1e-12 * 66)
        assert lambda_max(op, 4096) == value

    def test_restart_rotates_in_ragged_column_blocks(self, monkeypatch):
        # 200 columns in blocks of 7: 28 full blocks and one of 4
        monkeypatch.setattr(spectral, "ROTATION_COLUMNS", 7)
        assert self._check_against_dense(_random_symmetric(200, seed=200)) > spectral.BASIS_VECTORS

    def test_restart_adds_no_vector_to_the_basis(self):
        # C_14 on qubits takes more products than one basis holds; a restart that
        # built its KEPT_RITZ_VECTORS rotated vectors beside the basis would hold
        # BASIS_VECTORS + KEPT_RITZ_VECTORS vectors of d^n floats at once
        dim = 2 ** 14
        count = [0]
        pair = projectors(2)[1].to_dense()
        op = counting_operator(edge_sum(14, 2, make_family("cycle", 14).edges, pair), count)
        tracemalloc.start()
        try:
            value, vec = top_eigenpair(op, dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count[0] > spectral.BASIS_VECTORS
        assert peak < (spectral.BASIS_VECTORS + spectral.KEPT_RITZ_VECTORS) * dim * 8
        assert vec @ op(vec) == pytest.approx(value, abs=1e-12 * value)

    def test_restart_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_RESTARTS", 2)
        dense = _random_symmetric(200, seed=200)
        with pytest.raises(spectral.NoConvergenceError, match="after 2 restarts of 20"):
            lambda_max(lambda x: dense @ x, 200)
