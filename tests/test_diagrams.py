"""Brauer diagrams, composition, matrix realization, projectors, JM sums."""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from monogamy import diagrams
from monogamy.diagrams import (
    BrauerDiagram,
    SiteOperator,
    all_diagrams,
    character_sum,
    compose,
    diagram_sum,
    jm_sum_brauer,
    jm_sum_sym,
    matrix_rep,
    pair_operators,
    pair_sum,
    projectors,
    young_symmetrizer,
)
from monogamy.partitions import (
    cycle_type,
    enumerate_sym_irreps,
    gl_dim,
    mn_character,
    partitions_of,
    sym_dim,
)

from conftest import reference_diagram_sum


class TestSiteOperator:
    def test_identity_trace(self):
        assert SiteOperator.identity(3, 2).trace() == 8

    def test_arithmetic(self):
        w, ident, f = pair_operators(2)
        assert (f + f) * Fraction(1, 2) == f
        assert f - f == SiteOperator.zero(2, 2)
        assert (w @ w) == 2 * w
        assert f @ f == ident
        assert f @ w == w and w @ f == w

    def test_symmetry(self):
        for op in pair_operators(3):
            assert op.is_symmetric()
            assert op.transpose() == op

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SiteOperator.identity(2, 2) + SiteOperator.identity(3, 2)

    @pytest.mark.parametrize("scalar", [3, Fraction(2, 3), -1])
    def test_scaling_keeps_the_type_of_each_product(self, scalar):
        # 1 and Fraction(1) are equal and hash alike, yet 1 * 3 is an int
        data = {(0, 0): 1, (0, 1): Fraction(1), (1, 0): Fraction(1, 2), (1, 1): 1, (2, 2): 5}
        got = SiteOperator(2, 2, data) * scalar
        assert got.data == {k: v * scalar for k, v in data.items()}
        assert {k: type(v) for k, v in got.data.items()} == {
            k: type(v * scalar) for k, v in data.items()
        }
        assert (scalar * SiteOperator(2, 2, data)) == got

    def test_scaling_mixed_entries_by_a_fraction(self):
        data = {(0, 0): 1, (0, 1): Fraction(1), (1, 0): Fraction(1, 2), (1, 1): 2, (2, 2): Fraction(2)}
        scalar = Fraction(3, 4)
        got = SiteOperator(2, 2, data) * scalar
        assert got.data == {k: v * scalar for k, v in data.items()}
        assert all(type(v) is Fraction for v in got.data.values())

    @pytest.mark.parametrize("scalar", [1, Fraction(1, 3)])
    @pytest.mark.parametrize("name", ["W at d=64", "I+F at d=3", "character sum at (6,4)"])
    def test_trace_equals_the_entry_scan(self, name, scalar):
        # W has as many entries as its dimension; the others have more
        if name == "W at d=64":
            op = pair_operators(64)[0]
        elif name == "I+F at d=3":
            _, ident, f = pair_operators(3)
            op = ident + f
        else:
            op = character_sum((2, 2, 1, 1), 6, 4)
        op = op * scalar
        assert (len(op.data) > op.dim) == (name != "W at d=64")
        scan = sum((v for (r, c), v in op.data.items() if r == c), start=0)
        got = op.trace()
        assert got == scan != 0
        assert type(got) is type(scan) is type(scalar)

    def test_scaling_by_zero_is_zero(self):
        assert SiteOperator.identity(2, 3) * 0 == SiteOperator.zero(2, 3)


class TestDiagrams:
    def test_identity(self):
        ident = BrauerDiagram.identity(3)
        assert ident.is_permutation()
        assert ident.to_permutation() == (0, 1, 2)

    def test_rejects_bad_pairing(self):
        with pytest.raises(ValueError):
            BrauerDiagram(2, [(0, 1), (1, 2)])

    def test_all_diagrams_counts(self):
        # (2n-1)!! diagrams on n strands
        assert len(all_diagrams(1)) == 1
        assert len(all_diagrams(2)) == 3
        assert len(all_diagrams(3)) == 15
        assert len(all_diagrams(4)) == 105

    def test_permutation_roundtrip(self):
        for perm in itertools.permutations(range(4)):
            diag = BrauerDiagram.from_permutation(perm)
            assert diag.is_permutation()
            assert diag.to_permutation() == perm


class TestCompose:
    def test_identity_composition(self):
        ident = BrauerDiagram.identity(4)
        result, loops = compose(ident, ident)
        assert result == ident and loops == 0

    def test_five_strand_example(self):
        # two diagrams whose concatenation closes exactly two loops
        n = 5
        pi = BrauerDiagram(n, [(n + 2, n + 4), (n + 0, n + 3), (0, 1), (3, 4), (2, n + 1)])
        sigma = BrauerDiagram(n, [(n + 0, n + 1), (n + 2, n + 4), (2, 4), (0, 3), (1, n + 3)])
        result, loops = compose(pi, sigma)
        assert loops == 2
        assert result == BrauerDiagram(
            n, [(n + 0, n + 1), (n + 2, n + 4), (0, 1), (3, 4), (2, n + 3)]
        )

    def test_permutations_multiply_without_loops(self):
        for pa in itertools.permutations(range(3)):
            for pb in itertools.permutations(range(3)):
                a = BrauerDiagram.from_permutation(pa)
                b = BrauerDiagram.from_permutation(pb)
                result, loops = compose(a, b)
                assert loops == 0
                # out_{pa(pb(i))} connects to in_i
                assert result.to_permutation() == tuple(pa[pb[i]] for i in range(3))

    @pytest.mark.parametrize("d", [2, 3])
    def test_matrix_oracle_br3_exhaustive(self, d):
        diagrams = all_diagrams(3)
        reps = {dg: matrix_rep(dg, d) for dg in diagrams}
        for a, b in itertools.product(diagrams, repeat=2):
            result, loops = compose(a, b)
            assert reps[a] @ reps[b] == reps[result] * (d ** loops)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matrix_oracle_br4_random(self, d):
        rng = random.Random(7)
        diagrams = all_diagrams(4)
        for _ in range(50):
            a, b = rng.choice(diagrams), rng.choice(diagrams)
            result, loops = compose(a, b)
            assert matrix_rep(a, d) @ matrix_rep(b, d) == matrix_rep(result, d) * (d ** loops)


class TestMatrixRep:
    def test_flip(self):
        _, _, f = pair_operators(2)
        assert matrix_rep(BrauerDiagram.transposition(2, 0, 1), 2) == f

    def test_bar_is_w(self):
        w, _, _ = pair_operators(3)
        assert matrix_rep(BrauerDiagram.bar(2, 0, 1), 3) == w

    def test_identity_diagram(self):
        assert matrix_rep(BrauerDiagram.identity(3), 2) == SiteOperator.identity(3, 2)

    def test_diagram_sum_is_linear(self):
        diagrams = all_diagrams(3)
        for a, b in itertools.product(diagrams, repeat=2):
            got = diagram_sum([(2, a), (-3, b)], 3, 2)
            assert got == matrix_rep(a, 2) * 2 - matrix_rep(b, 2) * 3, (a, b)

    def test_diagram_sum_of_no_terms_is_zero(self):
        assert diagram_sum([], 3, 2) == SiteOperator.zero(3, 2)

    def test_diagram_sum_rejects_strand_mismatch(self):
        with pytest.raises(ValueError, match="2 strands in a sum on n=3"):
            diagram_sum([(1, BrauerDiagram.identity(2))], 3, 2)


def first_appearance(values):
    """values relabelled 0, 1, 2, ... in the order in which they first appear."""
    first = {}
    return tuple(first.setdefault(v, len(first)) for v in values)


def stirling2(n, k):
    """The number of ways to split n items into k nonempty blocks."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


class TestDiagramSumKernel:
    def test_entries_are_python_ints(self):
        terms = [(c, diag) for c, diag in zip(itertools.cycle([3, -2, 1]), all_diagrams(3))]
        for op in (diagram_sum(terms, 3, 2), character_sum((2, 1), 3, 2)):
            assert op.data and all(type(k) is int for key in op.data for k in key)
            assert all(type(v) is int for v in op.data.values())

    def test_many_small_batches_match_a_plain_dict_sum(self, monkeypatch):
        monkeypatch.setattr(diagrams, "_BATCH_KEYS", 64)
        # the coefficients sum to 0, so entry (0, 0), which every diagram has, cancels
        terms = [(c, diag) for c, diag in zip(itertools.cycle([1, -1, 2, -3, 1]), all_diagrams(3))]
        assert len(terms) == 15
        got = diagram_sum(terms, 3, 3)
        assert got.data == reference_diagram_sum(terms, 3, 3)
        assert got.data and (0, 0) not in got.data

    @pytest.mark.parametrize("batch_keys", [1, 64])
    @pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 5) for d in range(2, 6)])
    def test_random_terms_match_the_definition(self, monkeypatch, n, d, batch_keys):
        monkeypatch.setattr(diagrams, "_BATCH_KEYS", batch_keys)
        rng = random.Random(100 * n + d)
        pool = all_diagrams(n)
        terms = [(rng.randint(-3, 3), rng.choice(pool)) for _ in range(10)]
        if n >= 2:
            terms.append((2, BrauerDiagram.bar(n, 0, n - 1)))
        # a term and its negation, so that some entries cancel
        terms += [(-c, diag) for c, diag in terms[:2]]
        got = diagram_sum(terms, n, d)
        assert got.data == reference_diagram_sum(terms, n, d)
        assert all(type(v) is int for v in got.data.values())

    def test_only_canonical_keys_are_sorted(self, monkeypatch):
        # each term reaches each of its canonical keys once: 14 = S(4,1) + S(4,2) + S(4,3)
        sorted_keys = []
        reduce = diagrams._reduce

        def recording_reduce(keys, sums):
            sorted_keys.append(keys)
            return reduce(keys, sums)

        monkeypatch.setattr(diagrams, "_reduce", recording_reduce)
        n, d = 4, 3
        terms = [(c, diag) for c, diag in zip(itertools.cycle([2, -1, 3]), all_diagrams(n))]
        assert diagram_sum(terms, n, d).data == reference_diagram_sum(terms, n, d)
        [keys] = sorted_keys
        assert len(keys) == 14 * len(terms)
        for key in keys.tolist():
            digits = tuple(key // d ** (2 * n - 1 - i) % d for i in range(2 * n))
            assert first_appearance(digits) == digits

    @pytest.mark.parametrize("n,d,rows", [(6, 4, 187), (5, 5, 52), (2, 64, 2), (4, 2, 8), (1, 3, 1)])
    def test_value_patterns_count(self, n, d, rows):
        patterns = diagrams._value_patterns(n, d)
        assert patterns.shape == (rows, n)
        assert rows == sum(stirling2(n, k) for k in range(1, d + 1))

    @pytest.mark.parametrize("n,d", [(1, 2), (3, 2), (3, 4), (4, 3)])
    def test_value_patterns_are_the_first_appearance_relabellings(self, n, d):
        canonical = {first_appearance(values) for values in itertools.product(range(d), repeat=n)}
        assert diagrams._value_patterns(n, d).tolist() == sorted(map(list, canonical))

    def test_rejects_fraction_coefficient(self):
        with pytest.raises(ValueError, match="integer coefficients"):
            diagram_sum([(Fraction(1, 2), BrauerDiagram.identity(2))], 2, 2)

    def test_rejects_coefficients_that_could_wrap_int64(self):
        ident = BrauerDiagram.identity(2)
        assert diagram_sum([(2 ** 62, ident)], 2, 2).trace() == 4 * 2 ** 62
        with pytest.raises(ValueError, match="2\\^63"):
            diagram_sum([(2 ** 62, ident), (2 ** 62, ident)], 2, 2)


class TestPairOperators:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_entries_match_explicit_sums(self, d):
        # W = sum_ab |aa><bb|, I = sum_ab |ab><ab|, F = sum_ab |ab><ba|
        w, ident, f = pair_operators(d)
        pairs = list(itertools.product(range(d), repeat=2))
        assert w.data == {(a * d + a, b * d + b): 1 for a, b in pairs}
        assert ident.data == {(a * d + b, a * d + b): 1 for a, b in pairs}
        assert f.data == {(a * d + b, b * d + a): 1 for a, b in pairs}
        for op in (w, ident, f):
            assert all(type(k) is int for key in op.data for k in key)
            assert all(type(v) is int for v in op.data.values())

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_traces(self, d):
        w, ident, f = pair_operators(d)
        assert w.trace() == d
        assert ident.trace() == d * d
        assert f.trace() == d

    def test_w_over_d_rank_one_projector(self):
        for d in (2, 3):
            w, _, _ = pair_operators(d)
            p = w * Fraction(1, d)
            assert p @ p == p
            assert p.trace() == 1


class TestProjectors:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthogonal_idempotents_summing_to_identity(self, d):
        p_empty, p_11, p_2 = projectors(d)
        ident = SiteOperator.identity(2, d)
        for p in (p_empty, p_11, p_2):
            assert p @ p == p
        assert p_empty @ p_11 == SiteOperator.zero(2, d)
        assert p_empty @ p_2 == SiteOperator.zero(2, d)
        assert p_11 @ p_2 == SiteOperator.zero(2, d)
        assert p_empty + p_11 + p_2 == ident

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_traces(self, d):
        p_empty, p_11, p_2 = projectors(d)
        assert p_empty.trace() == 1
        assert p_11.trace() == Fraction(d * (d - 1), 2)
        assert p_2.trace() == Fraction(d * (d + 1), 2) - 1

    @pytest.mark.parametrize("d", [2, 3])
    def test_antisymmetrizer_equalities(self, d):
        # P_11 is the two-site antisymmetrizer; P_2 + P_empty the symmetrizer
        _, p_11, p_2 = projectors(d)
        p_empty, _, _ = projectors(d)
        assert young_symmetrizer((1, 1), 2, d) == p_11
        assert young_symmetrizer((2,), 2, d) == p_2 + p_empty


class TestEmbed:
    """pair_sum: a I + b F + c W on every edge, as one integer diagram sum."""

    def test_embed_two_sites_is_itself(self):
        w, ident, f = pair_operators(2)
        assert pair_sum([(0, 1)], 2, 2, (0, 1, 0)) == f
        assert pair_sum([(0, 1)], 2, 2, (0, 1, -1)) == f - w
        assert pair_sum([(0, 1)], 2, 2, (3, -2, 5)) == 3 * ident - 2 * f + 5 * w

    def test_embed_trace(self):
        # Tr W = d on the edge, times d for the one other site
        assert pair_sum([(0, 2)], 3, 3, (0, 0, 1)).trace() == 9

    def test_embed_flip_far_sites(self):
        swap02 = BrauerDiagram.transposition(3, 0, 2)
        assert pair_sum([(0, 2)], 3, 2, (0, 1, 0)) == matrix_rep(swap02, 2)

    def test_embed_rejects_bad_sites(self):
        for edge in [(0, 3), (1, 1), (-1, 2)]:
            with pytest.raises(ValueError, match="invalid site pair"):
                pair_sum([(0, 1), edge], 3, 2, (0, 1, 0))

    @pytest.mark.parametrize("coeffs", [(0, 1, 0), (0, 1, -1), (2, -1, 3), (1, 0, 0)])
    @pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (4, 3)])
    def test_embed_matches_the_definition(self, n, d, coeffs):
        a, b, c = coeffs
        edges = [(0, n - 1), (1, 0)] + [(u, u + 1) for u in range(n - 1)]
        terms = [(a, BrauerDiagram.identity(n))] * len(edges)
        terms += [(b, BrauerDiagram.transposition(n, u, v)) for u, v in edges]
        terms += [(c, BrauerDiagram.bar(n, u, v)) for u, v in edges]
        got = pair_sum(edges, n, d, coeffs)
        assert got.data == reference_diagram_sum(terms, n, d)
        assert all(type(v) is int for v in got.data.values())

    def test_zero_coefficients_add_no_terms(self, monkeypatch):
        seen = []
        diagram_sum = diagrams.diagram_sum

        def recording_sum(terms, n, d):
            seen.append(list(terms))
            return diagram_sum(seen[-1], n, d)

        monkeypatch.setattr(diagrams, "diagram_sum", recording_sum)
        pair_sum([(0, 1), (1, 2)], 3, 2, (0, 1, 0))
        pair_sum([], 3, 2, (1, 1, 1))
        assert seen == [[(1, BrauerDiagram.transposition(3, 0, 1)),
                         (1, BrauerDiagram.transposition(3, 1, 2))], []]


class TestJucysMurphy:
    def test_n1_zero(self):
        assert jm_sum_sym(1, 2) == SiteOperator.zero(1, 2)
        assert jm_sum_brauer(1, 2) == SiteOperator.zero(1, 2)

    @pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_commutation(self, n, d):
        js, jb = jm_sum_sym(n, d), jm_sum_brauer(n, d)
        assert js @ jb == jb @ js

    def test_n2_values(self):
        js, jb = jm_sum_sym(2, 2), jm_sum_brauer(2, 2)
        w, ident, f = pair_operators(2)
        assert js == f
        assert jb == f - w


class TestYoungSymmetrizers:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_idempotent_partition_of_identity(self, n, d):
        total = SiteOperator.zero(n, d)
        for lam in enumerate_sym_irreps(n, d):
            eps = young_symmetrizer(lam, n, d)
            assert eps @ eps == eps
            assert eps.trace() == sym_dim(lam) * gl_dim(lam, d)
            total = total + eps
        assert total == SiteOperator.identity(n, d)

    @pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2)])
    def test_matches_character_sum_of_permutation_matrices(self, n, d):
        for lam in enumerate_sym_irreps(n, d):
            total = SiteOperator.zero(n, d)
            for perm in itertools.permutations(range(n)):
                chi = mn_character(lam, cycle_type(perm))
                total = total + matrix_rep(BrauerDiagram.from_permutation(perm), d) * chi
            want = total * Fraction(sym_dim(lam), factorial(n))
            assert young_symmetrizer(lam, n, d) == want

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 2)])
    def test_character_sum_is_integer_and_scales_once(self, n, d):
        for lam in enumerate_sym_irreps(n, d):
            a = character_sum(lam, n, d)
            assert a.data and all(type(v) is int for v in a.data.values())
            assert a * Fraction(sym_dim(lam), factorial(n)) == young_symmetrizer(lam, n, d)

    def test_trace_example(self):
        assert young_symmetrizer((2, 1), 3, 2).trace() == 4

    def test_rejects_tall_partition(self):
        with pytest.raises(ValueError):
            young_symmetrizer((1, 1, 1), 3, 2)
