from fractions import Fraction

import pytest

from hydrenyi import hyperfun
from hydrenyi.hyperfun import (
    HypergeometricSpecError,
    LauricellaSpec,
    SrivastavaDaoustSpec,
    TermBudgetExceeded,
    lauricella_fa,
    srivastava_daoust,
)

from reference import multi_index_sum

F = Fraction


def gauss_style_single_sum(a, b, c, x):
    """Direct term recursion for the one-axis sum, the degenerate oracle."""
    a, b, c, x = F(a), F(b), F(c), F(x)
    total = F(0)
    term = F(1)
    j = 0
    while True:
        total += term
        if b + j == 0:
            break
        term = term * (a + j) * (b + j) * x / ((c + j) * (j + 1))
        j += 1
    return total


class TestLauricella:
    def test_zero_orders_give_unity(self):
        spec = LauricellaSpec(F(7, 2), 0, F(5, 2), F(1, 2), 3)
        assert lauricella_fa(spec) == 1

    def test_circular_state_reduction_is_unity(self):
        # l = n-1 makes every axis order zero
        q = 3
        spec = LauricellaSpec(2 * 2 * q + 3, 0, 2 * 2 + 2, F(1, q), 2 * q)
        assert lauricella_fa(spec) == 1

    def test_radial_position_value_for_2s(self):
        # frozen from term-by-term enumeration; also pinned by the oracle sweep
        spec = LauricellaSpec(3, -1, 2, F(1, 2), 4)
        assert lauricella_fa(spec) == F(5, 32)

    def test_single_axis_matches_direct_recursion(self):
        for a, b, c, x in [
            (F(3, 2), -4, F(7, 2), F(2, 3)),
            (2, -1, 5, F(-1, 2)),
            (F(5, 2), -6, F(1, 2), 1),
        ]:
            spec = LauricellaSpec(a, b, c, x, 1)
            assert lauricella_fa(spec) == gauss_style_single_sum(a, b, c, x)

    def test_matches_generic_engine(self):
        # guards the incremental-ratio path against the from-scratch products
        from hydrenyi.exactnum import pochhammer

        a, b, c, x = F(7, 2), F(-3), F(3, 2), F(-2, 5)

        import math

        def term(idx):
            value = pochhammer(a, sum(idx))
            for j in idx:
                value *= pochhammer(b, j) * x**j / (pochhammer(c, j) * math.factorial(j))
            return value

        direct = multi_index_sum([3, 3], term)
        assert lauricella_fa(LauricellaSpec(a, b, c, x, 2)) == direct

    def test_nonterminating_axis_rejected(self):
        with pytest.raises(HypergeometricSpecError):
            lauricella_fa(LauricellaSpec(1, F(1, 2), 1, 1, 1))
        with pytest.raises(HypergeometricSpecError):
            lauricella_fa(LauricellaSpec(1, 2, 1, 1, 1))

    def test_pole_in_c_rejected(self):
        with pytest.raises(HypergeometricSpecError):
            lauricella_fa(LauricellaSpec(1, -3, -1, 1, 1))

    def test_c_pole_outside_range_allowed(self):
        # c = -5 is never reached by j <= 2
        value = lauricella_fa(LauricellaSpec(1, -2, -5, 1, 1))
        assert value == 1 + F(1 * -2, -5) + F(2 * (-2) * (-1) // 2, (-5) * (-4))

    def test_empty_axes_rejected(self):
        # a sum over no axes is one of multiplicity 0
        with pytest.raises(HypergeometricSpecError, match="multiplicity 0"):
            lauricella_fa(LauricellaSpec(1, -1, 2, 1, 0))


class TestSrivastavaDaoust:
    def test_zero_orders_give_unity(self):
        spec = SrivastavaDaoustSpec(F(5, 2), F(9, 2), 0, 7, F(3, 2), 1, 2)
        assert srivastava_daoust(spec) == 1

    def test_angular_value_for_l1_m0(self):
        # frozen from term-by-term enumeration (D=3, chain 1 -> 0, q=2)
        spec = SrivastavaDaoustSpec(1, 2, -1, 2, 1, 1, 4)
        assert srivastava_daoust(spec) == F(1, 5)

    def test_momentum_value_for_2s(self):
        # frozen from term-by-term enumeration (D=3, n=2, l=0, q=2)
        spec = SrivastavaDaoustSpec(F(3, 2), 8, -1, 3, F(3, 2), 1, 4)
        assert srivastava_daoust(spec) == F(151, 528)

    def test_matches_generic_engine(self):
        import math

        from hydrenyi.exactnum import pochhammer

        a0, d0 = F(3, 2), F(7, 2)
        b, c, e, x = F(-2), F(-3, 2), F(1, 2), F(3, 4)

        def term(idx):
            value = pochhammer(a0, sum(idx)) / pochhammer(d0, sum(idx))
            for j in idx:
                value *= (
                    pochhammer(b, j)
                    * pochhammer(c, j)
                    * x**j
                    / (pochhammer(e, j) * math.factorial(j))
                )
            return value

        direct = multi_index_sum([2, 2, 2], term)
        assert srivastava_daoust(SrivastavaDaoustSpec(a0, d0, b, c, e, x, 3)) == direct

    def test_pole_in_e_rejected(self):
        with pytest.raises(HypergeometricSpecError):
            srivastava_daoust(SrivastavaDaoustSpec(1, 1, -3, 1, -2, 1, 1))

    def test_pole_in_d0_rejected(self):
        with pytest.raises(HypergeometricSpecError):
            srivastava_daoust(SrivastavaDaoustSpec(1, -3, -2, 1, 1, 1, 2))


class TestGroups:
    def test_bounds_are_per_axis(self):
        spec = LauricellaSpec(1, -2, 3, 1, 3)
        assert spec.bound() == 2
        assert spec.bounds() == [2, 2, 2]
        spec = SrivastavaDaoustSpec(1, 9, -1, 2, 1, 1, 4)
        assert spec.bounds() == [1, 1, 1, 1]

    def test_multiplicity_below_one_rejected(self):
        with pytest.raises(HypergeometricSpecError):
            lauricella_fa(LauricellaSpec(1, -1, 2, 1, -1))
        with pytest.raises(HypergeometricSpecError):
            srivastava_daoust(SrivastavaDaoustSpec(1, 2, -1, 2, 1, 1, 0))


class TestMultiIndexSum:
    def test_empty_box_has_one_point(self):
        assert multi_index_sum([], lambda idx: F(7)) == 7

    def test_counting(self):
        assert multi_index_sum([1, 1], lambda idx: F(1)) == 4

    def test_squares(self):
        assert multi_index_sum([2], lambda idx: F(idx[0] ** 2)) == 5

    def test_cap_applies_to_hyper_sums(self, monkeypatch):
        # one axis of bound k = 1 taken r = 4 times.  Its terms are 2 and -1
        # over 2, so each coefficient of the power is at most 3^4 in absolute
        # value, 4 * 2 = 8 bits; the power takes 4 products on them.  The
        # coupled factor's 4 steps each have denominator 2 (x = 1/2), 2 bits,
        # so the 5 steps of the nested sum touch at most 8 + 8 bits:
        # 4 * 8 + 4 * 5 * 16 = 352
        spec = LauricellaSpec(3, -1, 2, F(1, 2), 4)
        expected = lauricella_fa(spec)
        monkeypatch.setattr(hyperfun, "WORK_CAP", 351)
        with pytest.raises(TermBudgetExceeded) as refused:
            lauricella_fa(spec)
        assert (refused.value.work, refused.value.cap) == (352, 351)
        monkeypatch.setattr(hyperfun, "WORK_CAP", 352)
        assert lauricella_fa(spec) == expected
