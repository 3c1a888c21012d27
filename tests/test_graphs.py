"""Graph families, edge-averaged Hamiltonians, matchings."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from monogamy.diagrams import (
    BrauerDiagram,
    SiteOperator,
    matrix_rep,
    pair_operators,
    pair_sum,
    projectors,
)
from monogamy.graphs import (
    Graph,
    edge_average_hamiltonian,
    graph_from_json,
    graph_to_json,
    iter_perfect_matchings,
    make_family,
    perfect_matchings,
)

from conftest import PENDANT_EDGES, PENDANT_N, reference_diagram_sum


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


class TestFamilies:
    def test_complete(self):
        g = make_family("complete", 5)
        assert g.edge_count == 10
        assert g.vertex_count == 5

    def test_star(self):
        g = make_family("star", 4)
        assert g.vertex_count == 5
        assert g.edge_count == 4
        assert all(u == 0 for u, _ in g.edges)

    def test_cycle(self):
        g = make_family("cycle", 5)
        assert g.edge_count == 5
        assert (0, 4) in g.edges

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            make_family("cycle", 2)

    def test_path(self):
        assert make_family("path", 4).edges == ((0, 1), (1, 2), (2, 3))

    def test_complete_bipartite(self):
        g = make_family("complete_bipartite", 2, 3)
        assert g.vertex_count == 5
        assert g.edge_count == 6

    def test_invalid_graph(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 0),))
        with pytest.raises(ValueError):
            Graph(3, ((1, 0),))
        with pytest.raises(ValueError):
            Graph(2, ((0, 1), (0, 1)))

    def test_negative_vertex_count_rejected(self):
        for n in (-1, -2, -3):
            with pytest.raises(ValueError, match=f"n={n}"):
                Graph(n, ())
            with pytest.raises(ValueError, match=f"n={n}"):
                graph_from_json('{"n": %d, "edges": []}' % n)
        assert perfect_matchings(Graph(0, ())) == [()]


class TestJson:
    def test_roundtrip(self):
        g = make_family("cycle", 4)
        assert graph_from_json(graph_to_json(g)) == g

    def test_custom(self):
        g = graph_from_json('{"n": 3, "edges": [[2, 0], [0, 1]]}')
        assert g.edges == ((0, 2), (0, 1))
        assert g.family_tag == "custom"

    @pytest.mark.parametrize(
        "text",
        [
            '{"edges": [[0, 1]]}',
            '{"n": 3}',
            '{"n": "3", "edges": [[0, 1]]}',
            '{"n": true, "edges": [[0, 1]]}',
            '{"n": 3, "edges": [[0, 1, 2]]}',
            '{"n": 3, "edges": [[0, "1"]]}',
            '{"n": 3, "edges": {"0": 1}}',
            '[3, [[0, 1]]]',
        ],
    )
    def test_schema_errors_raise_value_error(self, text):
        with pytest.raises(ValueError):
            graph_from_json(text)


class TestEmbedding:
    def test_single_edge_identity(self):
        _, _, f = pair_operators(2)
        assert edge_average_hamiltonian(Graph(2, ((0, 1),)), f) == f

    def test_trace_multiplicative(self):
        p_empty, _, _ = projectors(2)
        assert edge_average_hamiltonian(Graph(4, ((1, 3),)), p_empty).trace() == 4

    def test_matches_transposition_diagram(self):
        _, _, f = pair_operators(2)
        assert edge_average_hamiltonian(Graph(3, ((0, 2),)), f) == matrix_rep(
            BrauerDiagram.transposition(3, 0, 2), 2
        )

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError):
            pair_sum([(0, 5)], 3, 2, (0, 1, 0))

    @pytest.mark.parametrize("which", ["flip", "flip_minus_w", "p_11"])
    @pytest.mark.parametrize(
        "g,d",
        [
            (make_family("complete", 4), 2),
            (make_family("cycle", 5), 3),
            (make_family("complete_bipartite", 2, 3), 2),
        ],
    )
    def test_sum_equals_sum_of_single_edges(self, g, d, which):
        w, _, f = pair_operators(d)
        op, (a, b, c) = {
            "flip": (f, (0, 1, 0)),
            "flip_minus_w": (f - w, (0, 1, -1)),
            "p_11": (projectors(d)[1], (Fraction(1, 2), Fraction(-1, 2), 0)),
        }[which]
        n = g.vertex_count
        terms = []
        for u, v in g.edges:
            terms += [(a, BrauerDiagram.identity(n)), (b, BrauerDiagram.transposition(n, u, v)),
                      (c, BrauerDiagram.bar(n, u, v))]
        want = {k: Fraction(v, g.edge_count) for k, v in reference_diagram_sum(terms, n, d).items()}
        got = edge_average_hamiltonian(g, op)
        assert got.data == want
        assert all(type(v) is Fraction for v in got.data.values())


class TestEdgeAverage:
    def test_single_edge_graph(self):
        g = make_family("complete", 2)
        for d in (2, 3, 4):
            for op in projectors(d):
                got = edge_average_hamiltonian(g, op)
                assert got == op
                assert all(type(v) is Fraction for v in got.data.values())

    def test_rejects_non_flip_invariant(self):
        lopsided = SiteOperator(2, 2, {(0, 1): 1, (1, 0): 1, (1, 1): 1})
        with pytest.raises(ValueError):
            edge_average_hamiltonian(make_family("complete", 3), lopsided)

    def test_rejects_flip_invariant_operator_outside_the_span(self):
        # |00><00| commutes with F, but is not a I + b F + c W
        corner = SiteOperator(2, 2, {(0, 0): 1})
        _, _, f = pair_operators(2)
        assert f @ corner @ f == corner
        with pytest.raises(ValueError, match="not a I \\+ b F \\+ c W"):
            edge_average_hamiltonian(make_family("complete", 3), corner)

    def test_rejects_non_pair_operator(self):
        # a three-site operator used to fail with "operator shape mismatch"
        with pytest.raises(ValueError, match="two-qudit"):
            edge_average_hamiltonian(make_family("complete", 3), SiteOperator.identity(3, 2))

    def test_heisenberg_ring_shape(self):
        _, p_11, _ = projectors(2)
        h = edge_average_hamiltonian(make_family("cycle", 4), p_11)
        assert h.dim == 16
        assert h.is_symmetric()
        assert h.trace() == Fraction(4)  # 4 edges averaged, each trace d(d-1)/2 * d^2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_commutes_with_complete_graph_symmetry(self, n):
        _, p_11, _ = projectors(2)
        h = edge_average_hamiltonian(make_family("complete", n), p_11)
        for perm in itertools.permutations(range(n)):
            rep = matrix_rep(BrauerDiagram.from_permutation(perm), 2)
            assert h @ rep == rep @ h

    def test_commutes_with_cycle_rotation(self):
        n = 5
        _, p_11, _ = projectors(2)
        h = edge_average_hamiltonian(make_family("cycle", n), p_11)
        rotation = tuple((i + 1) % n for i in range(n))
        rep = matrix_rep(BrauerDiagram.from_permutation(rotation), 2)
        assert h @ rep == rep @ h


class TestMatchings:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_complete_graph_counts(self, m):
        got = perfect_matchings(make_family("complete", 2 * m))
        assert len(got) == double_factorial(2 * m - 1)

    def test_through_fixed_edge(self):
        matchings = perfect_matchings(make_family("complete", 6))
        assert len(matchings) == 15
        assert sum(1 for m in matchings if (0, 1) in m) == 3

    def test_odd_graph_empty(self):
        assert perfect_matchings(make_family("complete", 5)) == []

    def test_each_vertex_once(self):
        for matching in perfect_matchings(make_family("complete", 6)):
            seen = [v for e in matching for v in e]
            assert sorted(seen) == list(range(6))

    def test_cycle_matchings(self):
        assert len(perfect_matchings(make_family("cycle", 6))) == 2

    def test_complete_graph_order(self):
        # lowest uncovered vertex first, its partners in increasing order
        got = [tuple(v for e in m for v in e) for m in perfect_matchings(make_family("complete", 6))]
        assert got == [
            (0, 1, 2, 3, 4, 5), (0, 1, 2, 4, 3, 5), (0, 1, 2, 5, 3, 4),
            (0, 2, 1, 3, 4, 5), (0, 2, 1, 4, 3, 5), (0, 2, 1, 5, 3, 4),
            (0, 3, 1, 2, 4, 5), (0, 3, 1, 4, 2, 5), (0, 3, 1, 5, 2, 4),
            (0, 4, 1, 2, 3, 5), (0, 4, 1, 3, 2, 5), (0, 4, 1, 5, 2, 3),
            (0, 5, 1, 2, 3, 4), (0, 5, 1, 3, 2, 4), (0, 5, 1, 4, 2, 3),
        ]

    @pytest.mark.parametrize("k", [3, 15, 21])
    def test_odd_component_yields_nothing_at_once(self, k):
        # K_k plus an isolated vertex: an even vertex count, no perfect matching
        edges = tuple((u, v) for u in range(k) for v in range(u + 1, k))
        start = time.perf_counter()
        assert list(iter_perfect_matchings(Graph(k + 1, edges))) == []
        assert time.perf_counter() - start < 1.0

    def test_pendant_dead_end_ends_at_once(self):
        # K_15 with 15, 16 and 17 joined only to 14: one even component, no perfect
        # matching; eliminating the lowest vertex first met the dead end 14!! times
        start = time.perf_counter()
        assert list(iter_perfect_matchings(Graph(PENDANT_N, tuple(PENDANT_EDGES)))) == []
        assert time.perf_counter() - start < 1.0

    def test_matching_sets_as_by_brute_force(self):
        rng = random.Random(0)
        for _ in range(40):
            n = rng.choice([4, 6, 8])
            p = rng.random()
            edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
            got = perfect_matchings(Graph(n, edges))
            want = {m for m in itertools.combinations(edges, n // 2)
                    if sorted(v for e in m for v in e) == list(range(n))}
            assert len(got) == len(set(got)) == len(want)
            assert set(got) == want

    def test_even_components_still_match(self):
        # two disjoint 4-cycles: two matchings each
        g = Graph(8, ((0, 1), (0, 3), (1, 2), (2, 3), (4, 5), (4, 7), (5, 6), (6, 7)))
        assert len(perfect_matchings(g)) == 4

    def test_iterator_is_lazy_and_in_list_order(self):
        # K_40 has 39!! matchings; the first three come without the rest
        first = list(itertools.islice(iter_perfect_matchings(make_family("complete", 40)), 3))
        assert first[0] == tuple((2 * i, 2 * i + 1) for i in range(20))
        assert len(set(first)) == 3
        g = make_family("complete", 6)
        assert list(iter_perfect_matchings(g)) == perfect_matchings(g)
