"""Young diagram combinatorics: dimensions, characters, enumeration."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from monogamy import partitions
from monogamy.partitions import (
    brauer_jm_eigenvalue,
    check_partition,
    class_size,
    conjugate,
    content,
    cycle_type,
    enumerate_brauer_irreps,
    enumerate_sym_irreps,
    gl_dim,
    hooks,
    mn_character,
    odd_row_count,
    optimal_rectangular_partition,
    p_w_shifted_schur,
    partitions_of,
    shifted_schur_11,
    sym_dim,
    twice_brauer_jm_eigenvalue,
)
from monogamy.extendibility import p_w_complete


def small_partitions(max_size=12):
    out = []
    for n in range(max_size + 1):
        out.extend(partitions_of(n))
    return out


partition_strategy = st.sampled_from(small_partitions())


class TestBasics:
    def test_check_rejects_increasing(self):
        with pytest.raises(ValueError):
            check_partition((1, 2))

    def test_check_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_partition((2, -1))

    @pytest.mark.parametrize("bad", [(1, 2), (2, -1), (0, 1), (3, 0, 1)])
    def test_public_label_functions_reject_non_partitions(self, bad):
        for f in (content, odd_row_count, check_partition):
            with pytest.raises(ValueError, match="partition parts must be"):
                f(bad)
        with pytest.raises(ValueError, match="partition parts must be"):
            twice_brauer_jm_eigenvalue(bad, 4, 3)

    def test_conjugate_examples(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate(()) == ()
        assert conjugate((4, 4, 2)) == (3, 3, 2, 2)

    @given(partition_strategy)
    def test_conjugate_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam
        assert sum(conjugate(lam)) == sum(lam)

    def test_content_examples(self):
        assert content((3, 3, 1)) == 1
        assert content((1,)) == 0
        for k in range(1, 8):
            assert content((1,) * k) == -k * (k - 1) // 2
            assert content((k,)) == k * (k - 1) // 2

    @given(partition_strategy)
    def test_content_antisymmetric_under_transpose(self, lam):
        assert content(lam) + content(conjugate(lam)) == 0

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_brauer_jm_eigenvalue_two_sites(self, d):
        # F - W on two qudits: 1 on P_2, -1 on P_11, 1 - d on P_empty
        assert brauer_jm_eigenvalue((2,), 2, d) == 1
        assert brauer_jm_eigenvalue((1, 1), 2, d) == -1
        assert brauer_jm_eigenvalue((), 2, d) == 1 - d

    def test_brauer_jm_eigenvalue_shift_per_removed_pair(self):
        # each of the r = (n - |lam|)/2 removed pairs shifts c(lam) by -(d - 1)
        assert brauer_jm_eigenvalue((1,), 3, 2) == -1
        assert brauer_jm_eigenvalue((1,), 3, 4) == -3
        assert brauer_jm_eigenvalue((), 4, 2) == -2
        assert brauer_jm_eigenvalue((2,), 4, 3) == -1
        assert brauer_jm_eigenvalue((2, 1), 7, 3) == -4

    def test_odd_row_count(self):
        assert odd_row_count((3, 2, 1)) == 2
        assert odd_row_count((6,)) == 0
        assert odd_row_count((1, 1, 1)) == 3


class TestDimensions:
    def test_hooks(self):
        assert sorted(hooks((2, 1))) == [1, 1, 3]

    def test_sym_dim_examples(self):
        assert sym_dim((5,)) == 1
        assert sym_dim((2, 1)) == 2

    @pytest.mark.parametrize("n", range(1, 8))
    def test_burnside(self, n):
        assert sum(sym_dim(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)

    def test_gl_dim_examples(self):
        assert gl_dim((1, 1), 2) == 1
        assert gl_dim((2,), 2) == 3

    def test_gl_dim_rejects_tall(self):
        with pytest.raises(ValueError):
            gl_dim((1, 1, 1), 2)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_schur_weyl_dimension_count(self, n, d):
        total = sum(sym_dim(lam) * gl_dim(lam, d) for lam in enumerate_sym_irreps(n, d))
        assert total == d ** n


class TestEnumeration:
    def test_sym_irreps(self):
        assert enumerate_sym_irreps(2, 2) == [(2,), (1, 1)]
        assert enumerate_sym_irreps(3, 2) == [(3,), (2, 1)]
        assert len(enumerate_sym_irreps(5, 3)) == 5

    @pytest.mark.parametrize("enumerate_irreps", [enumerate_sym_irreps, enumerate_brauer_irreps])
    @pytest.mark.parametrize("n,d", [(6, 3), (4, 6)])
    def test_each_call_returns_a_fresh_list(self, enumerate_irreps, n, d):
        first = enumerate_irreps(n, d)
        want = list(first)
        first[0] = (99,)
        first.append((1,))
        assert enumerate_irreps(n, d) == want

    def test_brauer_irreps(self):
        assert enumerate_brauer_irreps(2, 2) == [(), (2,), (1, 1)]
        assert enumerate_brauer_irreps(2, 3) == [(), (2,), (1, 1)]
        got = enumerate_brauer_irreps(4, 2)
        assert got == [(), (2,), (1, 1), (4,)]
        for lam in got:
            conj = conjugate(lam)
            c1 = conj[0] if conj else 0
            c2 = conj[1] if len(conj) > 1 else 0
            assert c1 + c2 <= 2


class TestShiftedSchur:
    def test_examples(self):
        assert shifted_schur_11((2, 1), 2) == 3
        assert shifted_schur_11((6,), 4) == 0
        assert shifted_schur_11((3, 2), 2) == 8
        assert Fraction(shifted_schur_11((3, 2), 2), 5 * 4) == Fraction(2, 5)

    @pytest.mark.parametrize("d", range(2, 10))
    @pytest.mark.parametrize("n", range(2, 10))
    def test_rectangular_maximizer_matches_closed_form(self, n, d):
        assert p_w_shifted_schur(n, d) == p_w_complete(n, d)


class TestCharacters:
    def test_trivial_and_sign(self):
        for n in range(1, 7):
            for ct in partitions_of(n):
                assert mn_character((n,), ct) == 1
                sign = (-1) ** (n - len(ct))
                assert mn_character((1,) * n, ct) == sign

    @pytest.mark.parametrize("n", range(1, 7))
    def test_row_orthogonality(self, n):
        classes = list(partitions_of(n))
        lams = list(partitions_of(n))
        for lam in lams:
            for mu in lams:
                total = sum(
                    class_size(ct) * mn_character(lam, ct) * mn_character(mu, ct)
                    for ct in classes
                )
                assert total == (math.factorial(n) if lam == mu else 0)

    def test_dimension_at_identity(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                assert mn_character(lam, (1,) * n) == sym_dim(lam)

    def test_checks_its_arguments_once(self, monkeypatch):
        calls = []
        check = partitions.check_partition

        def counting_check(parts):
            calls.append(parts)
            return check(parts)

        monkeypatch.setattr(partitions, "check_partition", counting_check)
        partitions.mn_character.cache_clear()
        partitions._mn_character.cache_clear()
        chi = mn_character((6, 5, 4, 3, 2, 1), (3,) * 7)
        assert len(calls) <= 2
        # trailing zeros are trimmed, as check_partition trims them
        assert mn_character((6, 5, 4, 3, 2, 1, 0), (3,) * 7 + (0,)) == chi

    @pytest.mark.parametrize("lam,ct", [((1, 2), (3,)), ((2, 1), (2, 0, 1)), ((2, 1), (2,))])
    def test_rejects_bad_arguments(self, lam, ct):
        with pytest.raises(ValueError):
            mn_character(lam, ct)

    def test_cycle_type(self):
        assert cycle_type((1, 0, 2)) == (2, 1)
        assert cycle_type((1, 2, 0)) == (3,)
        assert cycle_type(tuple(range(5))) == (1,) * 5


class TestRectangular:
    def test_examples(self):
        assert optimal_rectangular_partition(6, 2) == (3, 3)
        assert optimal_rectangular_partition(7, 3) == (3, 2, 2)
        assert optimal_rectangular_partition(3, 5) == (1, 1, 1)

    @given(st.integers(1, 30), st.integers(2, 9))
    def test_shape(self, n, d):
        lam = optimal_rectangular_partition(n, d)
        assert sum(lam) == n
        assert len(lam) <= d
        assert lam[0] - lam[-1] <= 1
