import inspect
import math
from fractions import Fraction

import pytest

from hydrenyi import entropy, oracle
from hydrenyi.entropy import (
    EntropyValue,
    angular_entropy,
    conjugate_order,
    momentum_entropy,
    position_entropy,
    radial_momentum_entropy,
    radial_position_entropy,
    uncertainty_sum,
)
from hydrenyi.exactnum import ExactScalar, gamma_exact, parse_scalar, pochhammer
from hydrenyi.hyperfun import TermBudgetExceeded
from hydrenyi.states import HydrogenicState, enumerate_states

import reference

F = Fraction

GROUND = HydrogenicState(3, 1, (0, 0), 1)

TABLE_POSITION = {
    (1, 0, 0): "8*pi",
    (2, 0, 0): "2048/5*pi",
    (3, 0, 0): "20736/5*pi",
    (2, 1, 0): "2048/9*pi",
    (2, 1, 1): "1024/3*pi",
    (3, 1, 0): "27648/11*pi",
    (3, 1, 1): "41472/11*pi",
    (3, 2, 0): "9216/5*pi",
    (3, 2, 1): "13824/5*pi",
    (3, 2, 2): "13824/5*pi",
}

TABLE_MOMENTUM = {
    (1, 0, 0): "16/33*pi^2",
    (2, 0, 0): "2/151*pi^2",
    (3, 0, 0): "16/7533*pi^2",
    (2, 1, 0): "2/39*pi^2",
    (2, 1, 1): "1/13*pi^2",
    (3, 1, 0): "160/36207*pi^2",
    (3, 1, 1): "80/12069*pi^2",
    (3, 2, 0): "1120/78489*pi^2",
    (3, 2, 1): "560/26163*pi^2",
    (3, 2, 2): "560/26163*pi^2",
}


class TestEntropyValue:
    def test_requires_positive_monomial(self):
        with pytest.raises(ValueError):
            EntropyValue(F(-1), ExactScalar(-2), F(2))
        with pytest.raises(ValueError):
            EntropyValue(F(-1), ExactScalar.pi_power(1, F(-1, 3)), F(2))
        with pytest.raises(ValueError):
            EntropyValue(F(-1), ExactScalar(0), F(2))

    def test_float_value(self):
        value = EntropyValue(F(-1), ExactScalar.pi_power(-2, F(1, 8)), F(2))
        assert value.value == pytest.approx(3.224171427529236, abs=1e-13)

    def test_exact_str_flips_reciprocal(self):
        value = EntropyValue(F(-1), ExactScalar.pi_power(-2, F(1, 8)), F(2))
        assert value.exact_str() == "ln(8*pi)"

    def test_exact_str_halves_coefficient(self):
        value = EntropyValue(F(-1, 2), ExactScalar(F(1, 4)), F(3))
        assert value.exact_str() == "1/2*ln(4)"

    def test_addition_multiplies_arguments(self):
        a = EntropyValue(F(-1), ExactScalar(F(1, 2)), F(2))
        b = EntropyValue(F(-1), ExactScalar.pi_power(-2, F(1, 4)), F(2))
        assert (a + b).w == ExactScalar.pi_power(-2, F(1, 8))

    def test_addition_requires_matching_order(self):
        a = EntropyValue(F(-1), ExactScalar(F(1, 2)), F(2))
        b = EntropyValue(F(-1, 2), ExactScalar(F(1, 2)), F(3))
        with pytest.raises(ValueError):
            a + b


class TestRadialPosition:
    def test_ground_state_is_log_two(self):
        value = radial_position_entropy(GROUND, 2)
        assert value.w == ExactScalar(F(1, 2))
        assert value.value == pytest.approx(math.log(2), abs=1e-13)

    def test_circular_states_skip_the_hyper_sum(self):
        # l = n-1 leaves only the Gamma prefactors
        assert entropy.radial_lauricella_factor(3, 3, 2, 2) == 1
        assert entropy.radial_lauricella_factor(5, 2, 1, 3) == 1

    def test_order_must_be_integer_at_least_two(self):
        with pytest.raises(ValueError):
            radial_position_entropy(GROUND, 1)
        with pytest.raises(ValueError):
            radial_position_entropy(GROUND, F(5, 2))

    def test_w_is_rational(self):
        for state in (GROUND, HydrogenicState(4, 3, (2, 1, 0), F(1, 2))):
            for q in (2, 3):
                assert radial_position_entropy(state, q).w.monomial()[1] == 0


class TestAngular:
    def test_s_wave_any_dimension(self):
        for D, q in [(3, 2), (4, 2), (5, 3), (2, 2)]:
            value = angular_entropy(D, (0,) * (D - 1), q)
            # ln of the surface area 2 pi^(D/2) / Gamma(D/2)
            from hydrenyi.exactnum import gamma_exact, log_float

            surface = ExactScalar.pi_power(D, 2) / gamma_exact(F(D, 2))
            assert value.value == pytest.approx(log_float(surface), abs=1e-12)

    def test_equal_chain_drops_segment_factors(self):
        assert entropy.angular_pochhammer_factor(F(1, 2), 2, 2, 3) == 1
        assert entropy.angular_daoust_factor(F(1, 2), 2, 2, 3) == 1

    def test_p_orbital_value(self):
        # hand value: int of (3 cos^2/4pi)^2 over the sphere = 9/(20 pi)
        value = angular_entropy(3, (1, 0), 2)
        assert value.w == ExactScalar.pi_power(-2, F(9, 20))

    def test_magnetic_sign_invariance(self):
        assert angular_entropy(4, (2, 1, 1), 2).w == angular_entropy(4, (2, 1, -1), 2).w


class TestIntegerPrefactors:
    def test_gamma_parts_match_gamma_exact(self):
        for twice in range(1, 401):
            for e in (1, -2):
                ledger = entropy._ExactLedger()
                ledger.gamma(twice, e)
                assert ledger.scalar() == gamma_exact(F(twice, 2)) ** e
        with pytest.raises(ValueError):
            entropy._ExactLedger().gamma(0, 1)

    @pytest.mark.parametrize("D", [3, 4, 5, 6])
    def test_angular_pochhammer_block_matches_pochhammer_form(self, D):
        for chain in [(3, 1, 0, 0, 0), (4, 4, 2, 1, -1), (5, 2, 2, 2, -2)]:
            mu = chain[: D - 2] + (abs(chain[D - 2]),)
            for j in range(1, D - 1):
                alpha, mu_j, mu_j1 = F(D - j - 1, 2), mu[j - 1], mu[j]
                for q in (2, 3, 5):
                    k = mu_j - mu_j1
                    expected = (
                        F(1, math.factorial(k) ** q)
                        * pochhammer(2 * alpha + 2 * mu_j1 + 1, 2 * k) ** q
                        / pochhammer(2 * alpha + mu_j + mu_j1, k) ** q
                        * pochhammer(q * mu_j1 + alpha + 1, q * k)
                        / pochhammer(alpha + mu_j1 + 1, k) ** q
                    )
                    value = entropy.angular_pochhammer_factor(alpha, mu_j, mu_j1, q)
                    assert value == expected

    @pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
    def test_ledger_bits_bound_its_integers(self, D):
        # the bits counted before each factor bound the numerator and
        # denominator formed, which start at 1 (one bit each)
        def check(out) -> None:
            assert out.num.bit_length() + out.den.bit_length() <= out.bits + 2

        for q in (2, 3, 7):
            for state in enumerate_states(D, 4):
                for Z in (1, F(7, 3)):
                    charged = HydrogenicState(D, state.n, state.mu, Z)
                    for space in ("position", "momentum"):
                        check(entropy._radial_factors(entropy._ExactLedger(), charged, q, space))
                check(entropy._angular_factors(entropy._ExactLedger(), D, state.mu, q))

    def test_ledger_refuses_before_forming(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an integer was formed")

        monkeypatch.setattr(entropy._ExactLedger, "_times", refuse)
        state = HydrogenicState(3, 2, (1, 0))
        for q in (10**6, 10**400):
            with pytest.raises(TermBudgetExceeded):
                radial_position_entropy(state, q)
            with pytest.raises(TermBudgetExceeded):
                angular_entropy(3, (1, 0), q)

    def test_oracle_keeps_gamma_exact(self):
        # the oracle must not share the closed forms' factor lists: it reads
        # Gamma from exactnum.gamma_integers, as gamma_exact does
        source = inspect.getsource(oracle)
        for helper in ("_ExactLedger", "_radial_factors", "_angular_factors"):
            assert helper not in source
        assert "gamma_integers" in source


class TestTables:
    @pytest.mark.parametrize("key", sorted(TABLE_POSITION))
    def test_position_cells(self, key):
        n, l, m = key
        breakdown = position_entropy(HydrogenicState(3, n, (l, m), 1), 2)
        assert breakdown.total.w == parse_scalar(TABLE_POSITION[key]).inverse()
        assert breakdown.total.exact_str() == f"ln({TABLE_POSITION[key]})"

    @pytest.mark.parametrize("key", sorted(TABLE_MOMENTUM))
    def test_momentum_cells(self, key):
        n, l, m = key
        breakdown = momentum_entropy(HydrogenicState(3, n, (l, m), 1), 2)
        assert breakdown.total.w == parse_scalar(TABLE_MOMENTUM[key]).inverse()

    def test_total_is_product_of_parts(self):
        for q in (2, 3):
            breakdown = position_entropy(HydrogenicState(3, 3, (2, 1), 1), q)
            assert breakdown.total.w == breakdown.radial.w * breakdown.angular.w
            assert breakdown.total.value == pytest.approx(
                breakdown.radial.value + breakdown.angular.value, abs=1e-12
            )


class TestMomentumRadial:
    def test_ground_state(self):
        value = radial_momentum_entropy(GROUND, 2)
        assert value.w == ExactScalar.pi_power(-2, F(33, 4))
        assert value.value == pytest.approx(-0.9654833144971895, abs=1e-13)

    def test_circular_daoust_is_unity(self):
        assert entropy.momentum_daoust_factor(3, 2, 1, 2) == 1
        assert entropy.momentum_daoust_factor(6, 4, 3, 3) == 1


class TestStructure:
    def test_w_is_positive_monomial_with_expected_pi_power(self):
        for state in enumerate_states(3, 3):
            for q in (2, 3):
                pos = position_entropy(state, q)
                mom = momentum_entropy(state, q)
                for part in (pos.radial, pos.angular, pos.total, mom.total):
                    assert part.w.is_positive_monomial
                # radial position W is rational, so the total pi power is
                # the angular one; for D = 3 that is pi^(1-q)
                assert pos.radial.w.monomial()[1] == 0
                assert pos.total.w.monomial()[1] == pos.angular.w.monomial()[1]
                assert pos.angular.w.monomial()[1] == 2 * (1 - q)

    def test_monotone_decreasing_in_q(self):
        for state in enumerate_states(3, 3):
            values = [position_entropy(state, q).total.value for q in (2, 3, 4)]
            assert values[0] > values[1] + 1e-12
            assert values[1] > values[2] + 1e-12
            momenta = [momentum_entropy(state, q).total.value for q in (2, 3, 4)]
            assert momenta[0] > momenta[1] + 1e-12
            assert momenta[1] > momenta[2] + 1e-12


class TestZScaling:
    @pytest.mark.parametrize("Z", [2, F(5, 2)])
    def test_exact_shift(self, Z):
        for D, chain in [(3, (1, 0)), (4, (2, 1, 1)), (2, (1,))]:
            n = 3
            for q in (2, 3):
                base_pos = position_entropy(HydrogenicState(D, n, chain, 1), q).total.w
                base_mom = momentum_entropy(HydrogenicState(D, n, chain, 1), q).total.w
                pos = position_entropy(HydrogenicState(D, n, chain, Z), q).total.w
                mom = momentum_entropy(HydrogenicState(D, n, chain, Z), q).total.w
                assert pos == base_pos * F(Z) ** (D * (q - 1))
                assert mom == base_mom * F(Z) ** (D * (1 - q))

    def test_uncertainty_sum_charge_free(self):
        # both sides are taken at Z = 1, so no -D ln Z and +D ln Z cancel
        charges = (1, 2, F(5, 2), F(10**400), F(1, 10**400))
        for q in (2, F(7, 10)):
            sums = {uncertainty_sum(HydrogenicState(3, 2, (1, 0), Z), q).total for Z in charges}
            assert len(sums) == 1
            assert len({reference.ns_uncertainty_sum(2, 3, Z, q).total for Z in charges}) == 1

    @pytest.mark.parametrize(
        "Z, log_z",
        [
            (F(2, 3), math.log(2 / 3)),
            (F(10**60), 60 * math.log(10)),
            (F(1, 10**60), -60 * math.log(10)),
            (F(10**400), 400 * math.log(10)),
            (F(1, 10**400), -400 * math.log(10)),
        ],
    )
    def test_gamma_only_shortcuts_at_any_charge(self, Z, log_z):
        # float(Z) overflowed above 1.8e308 and was 0 below 4.9e-324
        for D in (3, 5):
            for q in (0.7, 2.5):
                shifted = [
                    (reference.ground_state_radial_position_entropy, (D,), -1),
                    (reference.ground_state_radial_momentum_entropy, (D,), 1),
                ] + [
                    (shortcut, (n, D), sign)
                    for n in (1, 3)
                    for shortcut, sign in (
                        (entropy.ns_position_entropy, -1),
                        (entropy.ns_momentum_entropy, 1),
                    )
                ]
                for shortcut, head, sign in shifted:
                    value = shortcut(*head, Z, q)
                    expected = shortcut(*head, 1, q) + sign * D * log_z
                    assert abs(value - expected) <= 1e-12 * max(1, abs(value))


class TestNsShortcuts:
    def test_matches_general_forms(self):
        for D in range(2, 7):
            for n in range(1, 5):
                state = HydrogenicState(D, n, (n - 1,) * (D - 1), F(3, 2))
                for q in (2, 3):
                    pos = entropy.ns_position_entropy_exact(n, D, F(3, 2), q)
                    mom = entropy.ns_momentum_entropy_exact(n, D, F(3, 2), q)
                    assert pos.w == position_entropy(state, q).total.w
                    assert mom.w == momentum_entropy(state, q).total.w

    def test_float_matches_exact_at_integer_order(self):
        for n, D in [(1, 3), (2, 4), (3, 5)]:
            state = HydrogenicState(D, n, (n - 1,) * (D - 1), 1)
            assert entropy.ns_position_entropy(n, D, 1, 2.0) == pytest.approx(
                position_entropy(state, 2).total.value, abs=1e-10
            )
            assert entropy.ns_momentum_entropy(n, D, 1, 2.0) == pytest.approx(
                momentum_entropy(state, 2).total.value, abs=1e-10
            )

    def test_ground_state_radial_correction(self):
        # the leading term is ln Gamma(D), matching the general formula
        for D in (3, 4, 6):
            for q in (2, 3):
                w = reference.ground_state_radial_position_w(D, 1, q)
                state = HydrogenicState(D, 1, (0,) * (D - 1), 1)
                assert w == radial_position_entropy(state, q).w
                assert reference.ground_state_radial_position_entropy(
                    D, 1, float(q)
                ) == pytest.approx(radial_position_entropy(state, q).value, abs=1e-10)

    def test_ground_state_radial_momentum(self):
        for D in (3, 5):
            for q in (2.0, 3.0):
                direct = reference.ground_state_radial_momentum_entropy(D, 1, q)
                state = HydrogenicState(D, 1, (0,) * (D - 1), 1)
                assert direct == pytest.approx(
                    radial_momentum_entropy(state, int(q)).value, abs=1e-10
                )

    def test_invalid_orders_rejected(self):
        with pytest.raises(ValueError):
            entropy.ns_position_entropy(2, 3, 1, 1.0)
        with pytest.raises(ValueError):
            entropy.ns_momentum_entropy(2, 3, 1, -0.5)

    @pytest.mark.parametrize("q", [F(3, 8), 0.375, 0.2])
    def test_divergent_momentum_orders_rejected(self, q):
        # l = 0, D = 3: the momentum density decays as p^-8, so the entropy
        # is infinite for q <= 3/8; both shortcuts returned finite numbers
        # below the threshold and a bare math domain error at it
        for shortcut in (
            lambda: entropy.ns_momentum_entropy(1, 3, 1, q),
            lambda: reference.ground_state_radial_momentum_entropy(3, 1, q),
            lambda: oracle.renyi_float(HydrogenicState(3, 1, (0, 0), 1), q, "momentum"),
        ):
            with pytest.raises(ValueError, match="diverges for q <= 3/8 at D=3, l=0"):
                shortcut()

    def test_threshold_follows_l(self):
        # n = 3 quasi-spherical, l = 2 in D = 4: threshold 4/14 = 2/7
        with pytest.raises(ValueError, match="q <= 2/7"):
            entropy.ns_momentum_entropy(3, 4, 1, F(2, 7))
        assert math.isfinite(entropy.ns_momentum_entropy(3, 4, 1, F(2, 7) + F(1, 100)))


class TestUncertainty:
    def test_conjugate_order(self):
        assert conjugate_order(F(2)) == F(2, 3)
        assert conjugate_order(F(3)) == F(3, 5)
        assert conjugate_order(F(2, 3)) == 2
        with pytest.raises(ValueError):
            conjugate_order(F(1, 2))
        with pytest.raises(ValueError):
            conjugate_order(F(1))

    def test_ground_bound_value(self):
        result = uncertainty_sum(GROUND, 2)
        assert result.bound == pytest.approx(
            3 * math.log(2 * math.pi * 4 ** (1 / (2 - 4)) * (4 / 3) ** (1 / (2 - 4 / 3))),
            abs=1e-12,
        )
        assert result.bound == pytest.approx(4.728758983581214, abs=1e-12)
        assert result.satisfied
        assert result.total > result.bound

    def test_exact_momentum_side_when_conjugate_is_integer(self):
        # q = 2/3 pairs with p = 2, so the momentum side is closed-form
        result = uncertainty_sum(HydrogenicState(3, 2, (1, 0), 1), F(2, 3))
        direct = oracle.renyi_float(HydrogenicState(3, 2, (1, 0), 1), F(2, 3), "position")
        expected = direct.value + momentum_entropy(HydrogenicState(3, 2, (1, 0), 1), 2).total.value
        assert result.total == pytest.approx(expected, abs=1e-9)

    def test_ns_shortcut_agrees_with_quadrature(self):
        full = uncertainty_sum(GROUND, 2)
        shortcut = reference.ns_uncertainty_sum(1, 3, 1, 2)
        assert shortcut.total == pytest.approx(full.total, abs=1e-8)
        assert shortcut.bound == full.bound
