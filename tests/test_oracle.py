import json
import math
from fractions import Fraction

import mpmath
import pytest

from hydrenyi import entropy, oracle
from hydrenyi.exactnum import ExactScalar
from hydrenyi.oracle import (
    MomentBasis,
    QuadratureError,
    angular_power_integral,
    angular_w_exact,
    momentum_radial_power_integral,
    position_radial_power_integral,
    radial_momentum_w_exact,
    radial_position_w_exact,
    renyi_float,
    verify_state,
)
from hydrenyi.polynomials import gegenbauer, laguerre
from hydrenyi.states import HydrogenicState, enumerate_states

F = Fraction

GROUND = HydrogenicState(3, 1, (0, 0), 1)


class TestMomentBasis:
    def test_laguerre_weight(self):
        basis = MomentBasis("laguerre")
        assert basis.moment(0) == ExactScalar(1)
        assert basis.moment(5) == ExactScalar(120)

    def test_gegenbauer_weight_odd_vanishes(self):
        basis = MomentBasis("gegenbauer", (F(3, 2),))
        assert basis.moment(3) == ExactScalar(0)

    def test_gegenbauer_weight_even(self):
        # int t^2 (1-t^2)^0 dt = 2/3 with s = 0
        basis = MomentBasis("gegenbauer", (F(0),))
        assert basis.moment(2) == ExactScalar(F(2, 3))

    def test_shifted_weight(self):
        # int (1-y)(1+y) dy = 4/3
        basis = MomentBasis("jacobi-shifted", (F(1), F(0)))
        assert basis.moment(1) == ExactScalar(F(4, 3))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MomentBasis("chebyshev").moment(0)


class TestExactOracles:
    def test_ground_radial_position(self):
        assert radial_position_w_exact(GROUND, 2) == ExactScalar(F(1, 2))

    def test_ground_radial_momentum(self):
        assert radial_momentum_w_exact(GROUND, 2) == ExactScalar.pi_power(-2, F(33, 4))

    def test_ground_angular(self):
        assert angular_w_exact(3, (0, 0), 2) == ExactScalar.pi_power(-2, F(1, 4))

    def test_surface_power_for_s_waves(self):
        from hydrenyi.exactnum import gamma_exact

        for D, q in [(3, 2), (4, 3), (5, 2), (2, 3)]:
            surface = ExactScalar.pi_power(D, 2) / gamma_exact(F(D, 2))
            assert angular_w_exact(D, (0,) * (D - 1), q) == surface ** (1 - q)

    @pytest.mark.parametrize("D", [2, 3, 4, 5])
    def test_unit_normalization_at_first_order(self, D):
        for state in enumerate_states(D, 3):
            assert radial_position_w_exact(state, 1) == ExactScalar(1)
            assert radial_momentum_w_exact(state, 1) == ExactScalar(1)
            assert angular_w_exact(state.D, state.mu, 1) == ExactScalar(1)

    def test_matches_closed_forms(self):
        for state in (
            HydrogenicState(3, 2, (0, 0), 1),
            HydrogenicState(3, 2, (1, 1), 1),
            HydrogenicState(4, 3, (2, 1, -1), F(5, 2)),
            HydrogenicState(2, 3, (-1,), 2),
        ):
            for q in (2, 3):
                assert radial_position_w_exact(state, q) == (
                    entropy.radial_position_entropy(state, q).w
                )
                assert radial_momentum_w_exact(state, q) == (
                    entropy.radial_momentum_entropy(state, q).w
                )
                assert angular_w_exact(state.D, state.mu, q) == (
                    entropy.angular_entropy(state.D, state.mu, q).w
                )

    def test_momentum_charge_scaling(self):
        base = radial_momentum_w_exact(HydrogenicState(3, 2, (1, 0), 1), 2)
        scaled = radial_momentum_w_exact(HydrogenicState(3, 2, (1, 0), F(7, 3)), 2)
        assert scaled == base * F(7, 3) ** (3 * (1 - 2))

    def test_zeroth_order_rejected(self):
        with pytest.raises(ValueError):
            radial_position_w_exact(GROUND, 0)


class TestFloatOracle:
    def test_ground_position_disequilibrium(self):
        result = renyi_float(GROUND, 2, "position")
        assert result.value == pytest.approx(math.log(8 * math.pi), abs=1e-11)
        assert result.error < 1e-11

    def test_agrees_with_exact_path(self):
        for state in (
            HydrogenicState(3, 3, (2, 1), 1),
            HydrogenicState(4, 2, (1, 0, 0), F(3, 2)),
            HydrogenicState(5, 2, (1, 1, 1, 0), 1),
        ):
            for q in (2, 3):
                for space, closed in (
                    ("position", entropy.position_entropy(state, q).total.value),
                    ("momentum", entropy.momentum_entropy(state, q).total.value),
                ):
                    result = renyi_float(state, q, space)
                    assert result.value == pytest.approx(closed, rel=1e-9)

    def test_real_order_momentum(self):
        result = renyi_float(GROUND, F(2, 3), "momentum")
        assert math.isfinite(result.value)
        assert result.error < 1e-10

    def test_continuity_near_shannon_limit(self):
        below = renyi_float(GROUND, 1 - 1e-3, "position").value
        above = renyi_float(GROUND, 1 + 1e-3, "position").value
        assert abs(below - above) < 0.02
        assert below > above  # decreasing in q

    def test_rejects_unit_order(self):
        with pytest.raises(ValueError):
            renyi_float(GROUND, 1, "position")
        with pytest.raises(ValueError):
            renyi_float(GROUND, -2, "momentum")
        with pytest.raises(ValueError):
            renyi_float(GROUND, 2, "angular")

    def test_angular_quadrature_matches_exact(self):
        for D, chain in [(3, (1, 0)), (4, (2, 1, 0)), (5, (2, 1, 1, 0))]:
            value, _ = angular_power_integral(D, chain, 2.0)
            from hydrenyi.exactnum import to_float

            assert float(value) == pytest.approx(
                to_float(angular_w_exact(D, chain, 2)), rel=1e-11
            )

    def test_radial_integrals_normalize(self):
        value, _ = position_radial_power_integral(GROUND, 1.0)
        assert float(value) == pytest.approx(1.0, rel=1e-12)
        value, _ = momentum_radial_power_integral(GROUND, 1.0)
        assert float(value) == pytest.approx(1.0, rel=1e-12)

    def test_nonconvergence_raises_with_estimate(self, monkeypatch):
        def shaky_quad(f, points):
            return mpmath.mpf(1), mpmath.mpf("1e-3")

        monkeypatch.setattr("hydrenyi.oracle._quad", shaky_quad)
        with pytest.raises(QuadratureError) as info:
            renyi_float(GROUND, 2, "position")
        assert info.value.estimate > 0
        assert "target" in str(info.value)


class TestDivergence:
    def test_threshold_rejected_and_just_above_finite(self):
        # l = 0, D = 3: the momentum density decays as p^-8, so the entropy
        # is infinite for q <= 3/8
        with pytest.raises(ValueError, match="diverges for q <= 3/8"):
            renyi_float(GROUND, F(3, 8), "momentum")
        q = F(3, 8) + F(1, 20)
        result = renyi_float(GROUND, q, "momentum")
        reference = entropy.ns_momentum_entropy(1, 3, 1, float(q))
        assert abs(result.value - reference) <= result.error + 1e-12 * abs(reference)

    def test_threshold_grows_with_l(self):
        # l = 2, D = 3: threshold 3/12; position space has no threshold
        state = HydrogenicState(3, 5, (2, 0), 1)
        with pytest.raises(ValueError, match="q <= 1/4"):
            renyi_float(state, F(1, 5), "momentum")
        assert math.isfinite(renyi_float(state, F(1, 5), "position").value)


def _assert_float_matches_exact(state, q, space):
    exact = (
        entropy.position_entropy(state, q)
        if space == "position"
        else entropy.momentum_entropy(state, q)
    ).total.value_at()
    result = renyi_float(state, q, space)
    assert abs(result.value - exact) <= result.error + 1e-12 * abs(exact)


class TestFloatMatchesExact:
    @pytest.mark.parametrize("space", ["position", "momentum"])
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("n", [10, 15])
    def test_high_degree_s_states(self, n, q, space):
        _assert_float_matches_exact(HydrogenicState(3, n, (0, 0), 1), q, space)

    @pytest.mark.slow
    @pytest.mark.parametrize("space", ["position", "momentum"])
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("l", [0, 1])
    @pytest.mark.parametrize("n", [8, 10, 12, 13, 15])
    @pytest.mark.parametrize("D", [3, 4, 5])
    def test_grid(self, D, n, l, q, space):
        state = HydrogenicState(D, n, (l,) + (0,) * (D - 2), 1)
        _assert_float_matches_exact(state, q, space)


def _exact_value(poly, x: Fraction) -> Fraction:
    return sum((c * x**i for i, c in enumerate(poly.coeffs)), Fraction(0))


# family -> (breakpoint routine, exact polynomial, open interval of the zeros)
NODE_FAMILIES = {
    "laguerre": (oracle._laguerre_nodes, laguerre, 0, math.inf),
    "gegenbauer": (oracle._gegenbauer_nodes, gegenbauer, -1, 1),
}
NODE_CASES = [
    ("laguerre", k, F(alpha)) for k in (1, 2, 5, 9, 11, 14) for alpha in (0, 1, 3, 8)
] + [
    ("gegenbauer", k, lam)
    for k in (1, 2, 5, 8, 11, 14)
    for lam in (F(1, 2), F(1), F(3, 2), F(9, 2))
]


class TestBreakpoints:
    @pytest.mark.parametrize("family,k,param", NODE_CASES)
    def test_nodes_are_the_zeros(self, family, k, param):
        nodes_of, poly_of, lo, hi = NODE_FAMILIES[family]
        nodes, poly = nodes_of(k, param), poly_of(k, param)
        assert len(nodes) == k
        assert nodes == sorted(nodes)
        assert lo < nodes[0] and nodes[-1] < hi
        for x in nodes:
            step = 1e-10 * max(1.0, abs(x))
            left = _exact_value(poly, Fraction(x - step))
            right = _exact_value(poly, Fraction(x + step))
            assert left * right < 0, (x, left, right)

    @pytest.mark.parametrize("family,k,param", [c for c in NODE_CASES if c[1] <= 9])
    def test_nodes_agree_with_polyroots(self, family, k, param):
        nodes_of, poly_of, _, _ = NODE_FAMILIES[family]
        poly = poly_of(k, param)
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(poly.coeffs)]
        with mpmath.workdps(oracle.QUADRATURE_DPS):
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=100)
        reference = sorted(float(mpmath.re(r)) for r in roots)
        assert nodes_of(k, param) == pytest.approx(reference, rel=1e-12, abs=1e-15)


class TestQuadRule:
    def test_relative_error_is_scale_free(self):
        rel = []
        with mpmath.workdps(oracle.QUADRATURE_DPS):
            for c in (mpmath.mpf("1e-20"), mpmath.mpf(1), mpmath.mpf("1e20")):
                value, err = oracle._quad(
                    lambda x, c=c: c * x ** mpmath.mpf(2.5) * mpmath.exp(-x),
                    [0.0, 1.0, mpmath.inf],
                )
                assert value == pytest.approx(float(c) * math.gamma(3.5), rel=1e-14)
                rel.append(float(err / value))
        assert 0 < rel[1] <= oracle.QUADRATURE_REL_TARGET
        assert rel[0] == pytest.approx(rel[1], rel=1e-6, abs=0)
        assert rel[2] == pytest.approx(rel[1], rel=1e-6, abs=0)


class TestVerifyState:
    def test_all_equal_for_valid_state(self):
        verdict = verify_state(HydrogenicState(3, 3, (2, 0), 1), 2)
        assert verdict.all_equal
        assert {check.name for check in verdict.checks} == {
            "radial_position",
            "angular",
            "radial_momentum",
            "position_total",
            "momentum_total",
        }
        assert all(check.residual == 0.0 for check in verdict.checks)

    def test_json_round_trip(self):
        verdict = verify_state(GROUND, 3)
        parsed = json.loads(verdict.to_json())
        assert parsed["all_equal"] is True
        assert parsed["state"] == "D=3,n=1,mu=0,0,Z=1"
        assert len(parsed["checks"]) == 5

    def test_detects_perturbation(self, monkeypatch):
        # corrupt one Pochhammer used by the closed forms; the oracle must
        # flag the disagreement with a nonzero residual
        from hydrenyi.exactnum import pochhammer as honest

        def crooked(z, k):
            value = honest(z, k)
            return value * 2 if k == 3 else value

        monkeypatch.setattr("hydrenyi.entropy.pochhammer", crooked)
        verdict = verify_state(HydrogenicState(3, 2, (1, 0), 1), 2)
        assert not verdict.all_equal
        bad = [check for check in verdict.checks if not check.equal]
        assert bad and all(check.residual > 0 for check in bad)
