import json
import math
import random
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.calculus.quadrature import TanhSinh

from hydrenyi import entropy, oracle
from hydrenyi.exactnum import ExactScalar, log_float
from hydrenyi.oracle import (
    QuadratureError,
    _moment_sum,
    angular_power_integral,
    angular_w_exact,
    momentum_radial_power_integral,
    position_radial_power_integral,
    radial_momentum_w_exact,
    radial_position_w_exact,
    renyi_float,
    verify_state,
)
from hydrenyi.polynomials import PolyExact, gegenbauer, laguerre, poly_pow
from hydrenyi.states import (
    HydrogenicState,
    ValidationError,
    enumerate_states,
    radial_norm_squared,
)

import reference
import test_float_fixture
from reference import (
    QUADRATURE_DPS,
    gegenbauer_moment,
    laguerre_moment,
    shifted_moment,
    to_float,
)

F = Fraction

GROUND = HydrogenicState(3, 1, (0, 0), 1)

# The 2s state: its radial degree k = n - l - 1 is 1, so its radial integrals
# are quadratures; GROUND's (k = 0) are closed forms.
TWO_S = HydrogenicState(3, 2, (0, 0), 1)


class _Weight(NamedTuple):
    """One of the oracles' three weights: its moments from their
    definitions, the ratio list an oracle hands to _moment_sum, and the
    step between the moments summed (2 where the odd ones vanish)."""

    moment: Callable[[int], ExactScalar]
    ratios: Callable[[int], list[tuple[int, int]]]
    step: int = 1


def laguerre_weight() -> _Weight:
    return _Weight(laguerre_moment, lambda count: [(k + 1, 1) for k in range(count)])


def gegenbauer_weight(twice_s: int) -> _Weight:
    return _Weight(
        lambda k: gegenbauer_moment(k, F(twice_s, 2)),
        lambda count: [(2 * j + 1, 2 * j + twice_s + 3) for j in range(count)],
        2,
    )


def shifted_weight(twice_a: int, twice_b: int) -> _Weight:
    a_plus_b = (twice_a + twice_b) // 2
    return _Weight(
        lambda k: shifted_moment(k, F(twice_a, 2), F(twice_b, 2)),
        lambda count: [(twice_b + 2 * k + 2, a_plus_b + k + 2) for k in range(count)],
    )


class TestMomentBasis:
    """The weights' moments from their definitions in reference."""

    def test_laguerre_weight(self):
        assert laguerre_moment(0) == ExactScalar(1)
        assert laguerre_moment(5) == ExactScalar(120)

    def test_gegenbauer_weight_odd_vanishes(self):
        assert gegenbauer_moment(3, F(3, 2)) == ExactScalar(0)

    def test_gegenbauer_weight_even(self):
        # int t^2 (1-t^2)^0 dt = 2/3 with s = 0
        assert gegenbauer_moment(2, F(0)) == ExactScalar(F(2, 3))

    def test_shifted_weight(self):
        # int (1-y)(1+y) dy = 4/3
        assert shifted_moment(1, F(1), F(0)) == ExactScalar(F(4, 3))


def _integrated(weight: _Weight, coeffs) -> ExactScalar:
    poly = PolyExact(coeffs)
    nums = poly.nums[:: weight.step]
    num, den = _moment_sum(nums, poly.den, weight.ratios(len(nums) - 1))
    return weight.moment(0) * F(num, den)


def _summed_moments(weight: _Weight, coeffs) -> ExactScalar:
    """The definition _moment_sum must reproduce: sum_k c_k moment(k).  The
    nonzero moments of one weight share one power of pi, so their
    coefficients add."""
    half = weight.moment(0).monomial()[1]
    total = F(0)
    for k, c in enumerate(coeffs):
        r, k_half = weight.moment(k).monomial()
        if r:
            assert k_half == half, (k, k_half, half)
            total += c * r
    return ExactScalar.pi_power(half, total)


# zeros, negatives and large denominators, up to the degrees the oracle meets
rational_vectors = st.lists(
    st.one_of(
        st.just(F(0)), st.fractions(min_value=-40, max_value=40, max_denominator=60)
    ),
    max_size=16,
)
# 2s >= 0, as the angular oracle produces
gegenbauer_params = st.integers(min_value=0, max_value=20)


@st.composite
def shifted_params(draw):
    # 2a, 2b > -2 with a + b an integer
    twice_a = draw(st.integers(min_value=-1, max_value=30))
    twice_b = 2 * draw(st.integers(min_value=0, max_value=15)) - twice_a % 2
    return twice_a, twice_b


class TestMomentIntegrate:
    """_moment_sum against the moment-by-moment sum, with zero tolerance."""

    @given(rational_vectors)
    def test_laguerre(self, coeffs):
        weight = laguerre_weight()
        assert _integrated(weight, coeffs) == _summed_moments(weight, coeffs)

    @given(rational_vectors, gegenbauer_params)
    def test_gegenbauer(self, coeffs, twice_s):
        weight = gegenbauer_weight(twice_s)
        assert _integrated(weight, coeffs) == _summed_moments(weight, coeffs)

    @given(rational_vectors, shifted_params())
    def test_jacobi_shifted(self, coeffs, params):
        weight = shifted_weight(*params)
        assert _integrated(weight, coeffs) == _summed_moments(weight, coeffs)

    @pytest.mark.parametrize(
        "basis",
        [
            laguerre_weight(),
            gegenbauer_weight(0),
            gegenbauer_weight(7),
            shifted_weight(-1, 3),
            shifted_weight(4, 0),
        ],
    )
    def test_fixed_vectors(self, basis):
        # a single last moment, a cancelling pair and the oracle's own sizes
        for coeffs in (
            [F(0)] * 12 + [F(-5, 3)],
            [F(1), F(0), F(-1)],
            [F(0)],
            [F((-1) ** k * (k + 1), 2 * k + 1) for k in range(41)],
        ):
            assert _integrated(basis, coeffs) == _summed_moments(basis, coeffs)

    @pytest.mark.parametrize("r", range(1, 7))
    def test_shift_then_power_equals_power_then_shift(self, r):
        # the momentum oracle writes P(y) = Q(1+y) with Q(z) = P(z-1) and
        # powers Q; the reference powers P and then rewrites sum a_m y^m as
        # sum s_k (1+y)^k through y^m = ((1+y) - 1)^m
        def power_then_shift(poly: PolyExact) -> list[Fraction]:
            power = poly_pow(poly, r)
            out = [F(0)] * (power.degree + 1)
            for m, a in enumerate(power.coeffs):
                for k in range(m + 1):
                    out[k] += a * math.comb(m, k) * (-1) ** (m - k)
            return out

        polys = [gegenbauer(k, lam) for k in range(9) for lam in (F(1, 2), F(1), F(7, 2))]
        polys += [
            PolyExact([F(3, 4), F(-2), F(0), F(5, 6), F(0), F(-1, 10)]),
            PolyExact([F(0)] * 8 + [F(-5, 3)]),
            PolyExact([7]),
            PolyExact([]),
        ]
        for poly in polys:
            shifted = poly_pow(poly.translate(-1), r)
            assert list(shifted.coeffs) == power_then_shift(poly), poly


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

    @pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
    def test_unit_normalization_at_first_order(self, D):
        for state in enumerate_states(D, 4):
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


_SMALL_STATES = [state for D in range(2, 6) for state in enumerate_states(D, 6)]


def _exact_ws(state: HydrogenicState, q: int) -> list[ExactScalar]:
    """Every exact W of a state: the closed forms' parts and totals in both
    spaces, and the oracle's three factors."""
    ws = []
    for breakdown in (entropy.position_entropy(state, q), entropy.momentum_entropy(state, q)):
        ws += [breakdown.radial.w, breakdown.angular.w, breakdown.total.w]
    return ws + [
        radial_position_w_exact(state, q),
        radial_momentum_w_exact(state, q),
        angular_w_exact(state.D, state.mu, q),
    ]


class TestSymmetries:
    """Properties over D <= 5, n <= 6 and q in {2, 3, 4}."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_SMALL_STATES), st.sampled_from([2, 3, 4]))
    def test_magnetic_sign_changes_nothing(self, state, q):
        flipped = HydrogenicState(state.D, state.n, state.mu[:-1] + (-state.mu[-1],))
        assert _exact_ws(flipped, q) == _exact_ws(state, q)
        for space in ("position", "momentum"):
            ours, theirs = renyi_float(flipped, q, space), renyi_float(state, q, space)
            assert [x.hex() for x in ours] == [x.hex() for x in theirs]

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(_SMALL_STATES),
        st.sampled_from([2, 3, 4]),
        st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000),
    )
    def test_exact_charge_scaling(self, state, q, Z):
        charged = HydrogenicState(state.D, state.n, state.mu, Z)
        up, down = Z ** (state.D * (q - 1)), Z ** (state.D * (1 - q))
        base, scaled = _exact_ws(state, q), _exact_ws(charged, q)
        # position radial and total, momentum radial and total, oracle radials
        factors = [up, 1, up, down, 1, down, up, down, 1]
        assert scaled == [w * factor for w, factor in zip(base, factors)]


def _order_check_at_parent(q, minimum: int, message: str) -> int:
    """The order checks as they were, with every order through Fraction."""
    q = Fraction(q)
    if q.denominator != 1 or q < minimum:
        raise ValueError(f"{message} >= {minimum}, got {q}")
    return q.numerator


class TestOrderChecks:
    """The integer fast paths accept, reject and return what the checks
    through Fraction did."""

    @pytest.mark.parametrize(
        "q", [2, 3, 1, 0, -2, True, False, 2.0, F(4, 2), F(5, 2), "2"], ids=repr
    )
    @pytest.mark.parametrize(
        "check, minimum, message",
        [
            (lambda q: oracle._check_order(q), 1, "oracle needs integer q"),
            (lambda q: oracle._check_order(q, minimum=2), 2, "oracle needs integer q"),
            (entropy._check_integer_order, 2, "closed forms need an integer order q"),
        ],
        ids=["oracle", "oracle-verify", "closed"],
    )
    def test_same_as_through_fraction(self, q, check, minimum, message):
        try:
            expected = _order_check_at_parent(q, minimum, message)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                check(q)
            assert str(raised.value) == str(exc)
        else:
            value = check(q)
            assert value == expected and type(value) is int


class TestBadChains:
    """The angular closed form and its oracle refuse a bad chain with the
    message validate gives for a state with that chain."""

    @pytest.mark.parametrize(
        "D,mu", [(3, (1,)), (3, (0, 1)), (4, (1, 2, 0)), (4, (2, 1, -2)), (1, ())]
    )
    @pytest.mark.parametrize(
        "angular", [entropy.angular_entropy, angular_w_exact], ids=["closed", "oracle"]
    )
    def test_validation_error_like_validate(self, D, mu, angular):
        with pytest.raises(ValidationError) as expected:
            oracle.validate(HydrogenicState(D, 9, mu, 1))
        with pytest.raises(ValidationError) as raised:
            angular(D, mu, 2)
        assert str(raised.value) == str(expected.value)


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

    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_refuses_n_past_the_cap_before_any_work(self, monkeypatch, space):
        # n = 10^21 once ended in an OverflowError from a factorial
        def no_work(*args):
            raise AssertionError("the float path started work past its cap")

        monkeypatch.setattr(oracle, "_quad", no_work)
        monkeypatch.setattr(oracle, "radial_norm_squared", no_work)
        monkeypatch.setattr(oracle, "radial_momentum_norm_squared", no_work)
        for n in (oracle.MAX_FLOAT_N + 1, 10**21):
            with pytest.raises(oracle.FloatCapExceeded, match=f"n <= {oracle.MAX_FLOAT_N}"):
                renyi_float(HydrogenicState(3, n, (0, 0)), F(7, 10), space)

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
            log_value, _ = angular_power_integral(D, chain, 2.0)
            assert math.exp(log_value) == pytest.approx(
                to_float(angular_w_exact(D, chain, 2)), rel=1e-11
            )

    def test_radial_integrals_normalize(self):
        log_value, _ = position_radial_power_integral(GROUND, 1.0)
        assert math.exp(log_value) == pytest.approx(1.0, rel=1e-12)
        log_value, _ = momentum_radial_power_integral(GROUND, 1.0)
        assert math.exp(log_value) == pytest.approx(1.0, rel=1e-12)

    def test_nonconvergence_raises_with_estimate(self, monkeypatch):
        def shaky_quad(f, points, rule=None):
            return 1.0, 1e-3

        monkeypatch.setattr("hydrenyi.oracle._quad", shaky_quad)
        with pytest.raises(QuadratureError) as info:
            renyi_float(TWO_S, 2, "position")
        assert info.value.estimate > 0
        assert "target" in str(info.value)

    @pytest.mark.parametrize(
        "target, state, name",
        [
            ("_quad", TWO_S, "radial position"),
            ("angular_power_integral", HydrogenicState(3, 3, (2, 0)), "angular"),
        ],
    )
    def test_zero_integral_raises_without_an_estimate(self, monkeypatch, target, state, name):
        fakes = {
            "_quad": lambda f, points, rule=None: (0.0, 0.0),
            # angular_power_integral answers in log form, where zero is ln 0 = -inf
            "angular_power_integral": lambda D, mu, q: (-math.inf, 0.0),
        }
        monkeypatch.setattr(f"hydrenyi.oracle.{target}", fakes[target])
        with pytest.raises(QuadratureError, match=f"the {name} integral came out zero") as info:
            renyi_float(state, 1.5, "position")
        assert info.value.value is None and info.value.estimate is None


    def test_nan_integral_says_not_a_number(self, monkeypatch):
        monkeypatch.setattr(oracle, "_quad", lambda f, points, rule=None: (math.nan, math.nan))
        with pytest.raises(QuadratureError, match="integral is not a number") as info:
            renyi_float(TWO_S, 1.5, "position")
        assert "came out zero" not in str(info.value)
        assert info.value.value is None and info.value.estimate is None


# charges whose density lives far from r ~ 1, past the float range too
CHARGES = ["2/3", "1e60", "1e-60", "1e300", "1e-300", "1e400", "1e-400"]


def _log_charge(Z: Fraction) -> float:
    with mpmath.workdps(40):
        return float(mpmath.log(Z.numerator) - mpmath.log(Z.denominator))


class TestFloatChargeScaling:
    """The density at charge Z is Z^D rho(Z r) in position space and
    Z^-D gamma(p / Z) in momentum space, so the entropy is the one at Z = 1
    minus (position) or plus (momentum) D ln Z."""

    @pytest.mark.parametrize("space, sign", [("position", -1), ("momentum", 1)])
    @pytest.mark.parametrize("charge", CHARGES)
    def test_unit_charge_value_shifted(self, charge, space, sign):
        Z = F(charge)
        for D, n, mu, q in ((3, 1, (0, 0), 0.7), (4, 3, (1, 1, 0), 2.5), (3, 3, (2, 1), 1.5)):
            base = renyi_float(HydrogenicState(D, n, mu), q, space)
            result = renyi_float(HydrogenicState(D, n, mu, Z), q, space)
            expected = base.value + sign * D * _log_charge(Z)
            assert abs(result.value - expected) <= result.error + base.error, (D, n, mu, q)
            if HydrogenicState(D, n, mu).is_ns():
                # one exact sum at every charge, rounded once: the error is
                # the sum's bound and the unit-charge value's half ulp, or
                # one ulp of the value itself
                assert math.ulp(result.value) <= result.error
                assert result.error <= max(base.error, math.ulp(result.value))
            else:
                # the same integrals; only the rounding of the value can differ
                assert result.error == max(base.error, math.ulp(result.value))

    def test_error_covers_the_rounding_of_the_value(self):
        # the integrals' error alone was 9.47e-14 here, below the 4.55e-13
        # between neighbouring floats
        state = HydrogenicState(4, 3, (1, 1, 0), F("1e300"))
        result = renyi_float(state, 2.5, "position")
        assert result.value == pytest.approx(-2751.738072133338, abs=1e-11)
        assert result.error == math.ulp(result.value) == 2.0**-41

    @pytest.mark.parametrize("charge", [c for c in CHARGES if "400" not in c])
    def test_matches_the_gamma_only_shortcuts(self, charge):
        # the shortcuts take Z as a float and sum math.lgamma values, which
        # miss by some ulps of their terms; the 50-digit Gamma forms do not
        Z = F(charge)
        for D, n, q in ((3, 1, 0.7), (3, 2, 2.5), (5, 3, 0.6)):
            state = HydrogenicState(D, n, (n - 1,) * (D - 1), Z)
            for space, shortcut in (
                ("position", entropy.ns_position_entropy),
                ("momentum", entropy.ns_momentum_entropy),
            ):
                result = renyi_float(state, q, space)
                expected = shortcut(n, D, Z, q)
                slack = 1e-14 * max(1.0, abs(expected))
                assert abs(result.value - expected) <= result.error + slack, (D, n, q, space)
                with mpmath.workdps(50):
                    exact = reference.quasi_spherical_entropy(state, q, space)
                    assert abs(result.value - exact) <= result.error, (D, n, q, space)

    @pytest.mark.parametrize("charge", CHARGES)
    def test_uncertainty_sum_is_independent_of_charge(self, charge):
        Z = F(charge)
        for q in (F(7, 10), F(2)):
            state = HydrogenicState(3, 2, (1, 0))
            base = entropy.uncertainty_sum(state, q).total
            scaled = entropy.uncertainty_sum(HydrogenicState(3, 2, (1, 0), Z), q).total
            # the two sides cancel a shift of about 2 D |ln Z|
            assert abs(scaled - base) <= 1e-12 * max(1.0, 6 * abs(_log_charge(Z)))


def _float_outcome(renyi, state, q, space):
    """(value, error) or the name of the exception class raised."""
    try:
        return tuple(renyi(state, q, space))
    except (ValueError, QuadratureError) as exc:
        return type(exc).__name__


def _assert_assembly_matches_reference(state, q, space):
    got = _float_outcome(renyi_float, state, q, space)
    want = _float_outcome(reference.renyi_float_at_dps, state, q, space)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want, (state.literal(), q, space)
        return
    # at k >= 1 the reference integrates the radial tail on its own, so the
    # float rule's error there, which the stated error bounds, is in the
    # difference too
    share = 0.25 if state.n == state.l + 1 else 1.0
    assert abs(got[0] - want[0]) <= share * got[1], (state.literal(), q, space, got, want)


# quasi-uniform chains at large l, whose radial k is 0, and a Beta segment at
# s ~ 400 q next to a degree-400 quadrature segment (slow)
LARGE_L_STATES = [
    HydrogenicState(3, 800, (799, 799)),
    HydrogenicState(5, 400, (399, 399, 399, 399)),
]
LARGE_L_ORDERS = (0.55, 2, 7.3)


class TestFloatAssembly:
    """renyi_float assembles each entropy from the logs of its integrals in
    floats.  Against the integrals scaled back and combined at
    QUADRATURE_DPS digits (reference.renyi_float_at_dps), the k = 0 radial
    integrals from mpmath's loggamma and beta there and the k >= 1 radial
    tails from mpmath's quadrature in r or p: the same outcome class, and a
    value within a quarter of the stated error at k = 0, within the stated
    error at k >= 1."""

    @pytest.mark.parametrize("D", test_float_fixture.DIMENSIONS)
    def test_fixture_grid(self, D):
        for state in enumerate_states(D, test_float_fixture.N_MAX):
            for q in test_float_fixture.ORDERS:
                for space in test_float_fixture.SPACES:
                    _assert_assembly_matches_reference(state, Fraction(q), space)

    @pytest.mark.parametrize("charge", CHARGES)
    def test_charges(self, charge):
        for D, n, mu, q in ((3, 1, (0, 0), 0.7), (4, 3, (1, 1, 0), 2.5), (3, 3, (2, 1), 1.5)):
            for space in ("position", "momentum"):
                _assert_assembly_matches_reference(HydrogenicState(D, n, mu, F(charge)), q, space)

    @pytest.mark.parametrize("space", ["position", "momentum"])
    @pytest.mark.parametrize("q", LARGE_L_ORDERS)
    @pytest.mark.parametrize("state", LARGE_L_STATES, ids=lambda s: s.literal())
    def test_large_l(self, state, q, space):
        _assert_assembly_matches_reference(state, q, space)

    @pytest.mark.slow
    @pytest.mark.parametrize("space", ["position", "momentum"])
    @pytest.mark.parametrize("q", LARGE_L_ORDERS)
    def test_beta_segment_at_large_s(self, q, space):
        _assert_assembly_matches_reference(HydrogenicState(4, 401, (400, 400, 0)), q, space)

    @pytest.mark.parametrize("q", LARGE_L_ORDERS)
    def test_beta_segment_at_large_s_next_to_a_short_one(self, q):
        # the Beta segment of (400, 400, 0) next to a degree-1 quadrature one
        for space in ("position", "momentum"):
            _assert_assembly_matches_reference(HydrogenicState(4, 401, (400, 400, 399)), q, space)


_EPS = sys.float_info.epsilon


class TestLogGammaRatio:
    """oracle._log_gamma_ratio(x, twice_a) = ln Gamma(x + 1 + a) - ln Gamma(x + 1)
    against mpmath's loggamma at 340 digits, enough to resolve the
    difference at x = 1e300, within 4 eps max(1, |result|)."""

    @staticmethod
    def _assert_close(x: float, twice_a: int) -> None:
        got = oracle._log_gamma_ratio(x, twice_a)
        with mpmath.workdps(340):
            X = mpmath.mpf(x)
            want = mpmath.loggamma(X + 1 + mpmath.mpf(twice_a) / 2) - mpmath.loggamma(X + 1)
            assert abs(got - want) <= 4 * _EPS * max(1, abs(want)), (x, twice_a, got)

    @pytest.mark.parametrize("twice_a", range(8))
    def test_chosen_points(self, twice_a):
        cutoff = oracle._HALF_STEP_SERIES_FROM
        points = [0.0, 1e-9, math.nextafter(cutoff, 0), cutoff, math.nextafter(cutoff, 99)]
        for x in points + [1e3, 1e12, 1e300]:
            self._assert_close(x, twice_a)

    def test_random_draws(self):
        rng = random.Random(17)
        for _ in range(150):
            near = rng.uniform(0, 2 * oracle._HALF_STEP_SERIES_FROM)
            x = rng.choice([near, 10 ** rng.uniform(-12, 300)])
            self._assert_close(x, rng.randrange(8))


@st.composite
def _quasi_uniform_cases(draw):
    """A state whose chain entries are all equal, a rational charge, a space
    and an order: real at l = n - 1 (from just above the momentum threshold
    D/(2l+2D+2) to 50), an integer otherwise."""
    D, n = draw(st.integers(2, 6)), draw(st.integers(1, 12))
    l = draw(st.integers(0, n - 1))
    mu = (l,) * (D - 2) + (draw(st.sampled_from((l, -l))),)
    Z = Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)))
    space = draw(st.sampled_from(("position", "momentum")))
    if l == n - 1:
        threshold = D / (2 * l + 2 * D + 2)
        q = draw(st.floats(threshold + 0.01, 50).filter(lambda q: q != 1))
    else:
        q = draw(st.integers(2, 50))
    return HydrogenicState(D, n, mu, Z), q, space


@settings(max_examples=60, deadline=None)
@given(_quasi_uniform_cases())
def test_float_entropy_of_equal_chains(case):
    # the Gamma-closed angular factor: against the Gamma-only shortcuts at
    # l = n - 1, against the exact entropy at integer q
    state, q, space = case
    result = renyi_float(state, q, space)
    if state.l == state.n - 1:
        shortcut = {
            "position": entropy.ns_position_entropy,
            "momentum": entropy.ns_momentum_entropy,
        }[space]
        expected = shortcut(state.n, state.D, state.Z, q)
    else:
        whole = entropy.position_entropy if space == "position" else entropy.momentum_entropy
        expected = whole(state, q).total.value_at()
    assert abs(result.value - expected) <= result.error + 1e-12 * max(1.0, abs(expected))


def _quasi_spherical(D: int, n: int, sign: int = 1, Z=1) -> HydrogenicState:
    """The state with l = n - 1 and every chain entry equal to it."""
    l = n - 1
    return HydrogenicState(D, n, (l,) * (D - 2) + (sign * l,), Z)


def _assert_within_error_of_the_gamma_forms(state, q, space):
    """renyi_float within its stated error of the 50-digit Gamma and Beta
    forms; where it misses the quadrature target instead, only because the
    float's share of ln I, |1 - q| ulp(entropy at unit charge) / 2, passes
    it (up to the factor 2 by which that ulp can differ next to a power of
    two), and with an entropy that is right to its estimate."""
    with mpmath.workdps(50):
        exact = reference.quasi_spherical_entropy(state, q, space)
        unit = reference.quasi_spherical_entropy(state.unit_charge(), q, space)
    try:
        value, error = renyi_float(state, q, space)
    except QuadratureError as exc:
        assert abs(1 - q) * math.ulp(float(unit)) > oracle.QUADRATURE_REL_TARGET
        value, error = exc.value, exc.estimate
    assert abs(value - exact) <= error, (state.literal(), q, space, value, error)


@st.composite
def _quasi_spherical_cases(draw):
    """D from 2 to 8, any n the float path takes, either sign of the magnetic
    entry, a rational charge, and an order from just above the momentum
    threshold D/(2l+2D+2) to 1e4."""
    D, n = draw(st.integers(2, 8)), draw(st.integers(1, oracle.MAX_FLOAT_N))
    Z = Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)))
    state = _quasi_spherical(D, n, draw(st.sampled_from((1, -1))), Z)
    threshold = D / (2 * (n - 1) + 2 * D + 2)
    q = draw(st.floats(threshold + 1e-6, 1e4).filter(lambda q: q != 1))
    return state, q, draw(st.sampled_from(("position", "momentum")))


# The orders of the accuracy grid; a first one, just above the momentum
# threshold, is added per state.
CLOSED_FORM_ORDERS = (0.2, 0.55, 0.7, 2.0, 7.3, 1e3, 1e4)


def _closed_form_grid(D: int, l_values):
    for l in l_values:
        threshold = D / (2 * l + 2 * D + 2)
        for q in (threshold + 1e-6,) + CLOSED_FORM_ORDERS:
            for space in ("position", "momentum"):
                if space == "position" or q > threshold:
                    yield _quasi_spherical(D, l + 1), q, space


# Inputs of the n <= 20 grid below (l = n - 1, all-equal chains) where the
# radial quadrature, run on the k = 0 integrand, misses the closed form by
# more than both stated errors: its level-to-level extrapolation stops a
# segment early (CHANGES.md, FOUND).  The factor is what the miss read.
QUADRATURE_UNDERSTATES = {
    (7, 12, "1.05", "momentum"): 62,
}


def _quadrature_misses_on(n_values):
    """The inputs of the grid D = 2..8, these n, l = n - 1 and all-equal
    chains, test_float_fixture.GRID_ORDERS and both spaces where the closed
    radial integral and the radial quadrature (_radial_quad) of the same
    integrand differ by more than the sum of their stated errors."""
    misses = set()
    for D in range(2, 9):
        for n in n_values:
            state = _quasi_spherical(D, n)
            for q_text in test_float_fixture.GRID_ORDERS:
                q = float(q_text)
                for space, closed_form, integrand in (
                    ("position", position_radial_power_integral, oracle._position_integrand),
                    ("momentum", momentum_radial_power_integral, oracle._momentum_integrand),
                ):
                    if space == "momentum" and q <= D / (2 * n + 2 * D):
                        continue
                    closed, closed_rel = closed_form(state, q)
                    quad, quad_rel = oracle._radial_quad(*integrand(state, q), q)
                    if not abs(closed - quad) <= closed_rel + quad_rel:
                        misses.add((D, n, q_text, space))
    return misses


class TestQuasiSphericalClosedForms:
    """At k = n - l - 1 = 0 the radial integrals are a Gamma function
    (position) and a Beta function (momentum) at any real order, and the
    angular factor of an all-equal chain a ratio of Gamma functions: the
    entropy is one exact sum of logs (oracle._LogSum), rounded once."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "z",
        [1e-300, 1e-9, 0.3, 0.5, 1.0, 2.5, 31.0, 31.999999999999996, 32.0, 32.75,
         1000.1, 6.02e23, 1e300],
    )
    def test_log_gamma_within_its_bound(self, z, sign):
        # below 32 the integers and half-integers are exact, the rest goes
        # through Stirling's series after a rising product
        total = oracle._LogSum(z)
        total.add_log_gamma(total.q_units, sign)
        fixed, error = total.total()
        with mpmath.workdps(80):
            want = sign * mpmath.loggamma(mpmath.mpf(z))
            got = mpmath.mpf(fixed) / 2**oracle._FIXED_BITS
            bound = mpmath.mpf(error) / 2**oracle._FIXED_BITS
            assert abs(got - want) <= bound, (z, float(got - want), float(bound))
            assert bound <= 1e-26 * max(1, abs(want))

    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_no_quadrature(self, monkeypatch, space):
        def no_quadrature(*args):
            raise AssertionError("a k = 0 integral ran the quadrature")

        monkeypatch.setattr(oracle, "_quad", no_quadrature)
        monkeypatch.setattr(oracle, "_laguerre_nodes", no_quadrature)
        monkeypatch.setattr(oracle, "_gegenbauer_nodes", no_quadrature)
        for state in (GROUND, _quasi_spherical(5, 12), HydrogenicState(3, 3, (2, 2))):
            renyi_float(state, 0.7, space)
        log_value, rel = (
            position_radial_power_integral if space == "position" else momentum_radial_power_integral
        )(HydrogenicState(3, 3, (2, 1)), 2.5)
        assert math.isfinite(log_value) and rel < 1e-15

    def test_states_one_ulp_at_large_l(self):
        # the terms of ln Gamma are near 1e4 here, and the sum is rounded
        # once: the stated error is one ulp of the value
        for space in ("position", "momentum"):
            result = renyi_float(_quasi_spherical(3, 800), 2, space)
            assert result.error == math.ulp(result.value)

    @pytest.mark.parametrize("D", range(2, 9))
    def test_grid(self, D):
        for case in _closed_form_grid(D, (0, 1, 2, 5, 20)):
            _assert_within_error_of_the_gamma_forms(*case)

    @pytest.mark.slow
    @pytest.mark.parametrize("D", range(2, 9))
    def test_grid_at_large_l(self, D):
        for case in _closed_form_grid(D, (100, 399, 799)):
            _assert_within_error_of_the_gamma_forms(*case)

    @settings(max_examples=300, deadline=None)
    @given(_quasi_spherical_cases())
    def test_within_error_of_the_gamma_forms(self, case):
        _assert_within_error_of_the_gamma_forms(*case)

    def test_quadrature_against_the_closed_forms(self):
        # every miss of the n <= 20 grid lies on these rows
        assert _quadrature_misses_on((1, 4, 12, 20)) == set(QUADRATURE_UNDERSTATES)

    @pytest.mark.slow
    def test_quadrature_against_the_closed_forms_up_to_n_20(self):
        assert _quadrature_misses_on(range(1, 21)) == set(QUADRATURE_UNDERSTATES)


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

    def test_closed_form_next_to_the_threshold(self):
        # the 1s momentum integral is a Beta function: the tail that decays
        # as p^-1.008 and made the quadrature miss by 9.9e-5 is no longer
        # integrated
        q = F(47, 125)
        result = renyi_float(GROUND, q, "momentum")
        with mpmath.workdps(50):
            exact = reference.quasi_spherical_entropy(GROUND, float(q), "momentum")
        assert abs(result.value - exact) <= result.error

    def test_tail_next_to_the_threshold(self):
        # the 2s state (k = 1) keeps the quadrature; its tail decays as
        # p^-1.008, which the deep nodes out to p ~ 2^1001 missed by 9.9e-5,
        # and is bounded in w = t^0.004, t = (Z / (eta p))^2
        q = float(F(47, 125))
        log_value, rel = momentum_radial_power_integral(TWO_S, q)
        with mpmath.workdps(40):
            exact = reference.momentum_radial_log_integral(TWO_S, q)
        assert mpmath.nstr(exact, 16) == "4.918621864562455"
        assert abs(log_value - exact) <= rel
        _assert_within_error_next_to_the_threshold(TWO_S, q)

    def test_radial_integral_at_a_divergent_order(self):
        # the tail's exponent sigma_0 = 4q - 3/2 is 0 at q = 3/8 and negative
        # below: the quadrature refuses as the k = 0 closed form does
        for state in (GROUND, TWO_S):
            for q in (0.375, 0.3):
                with pytest.raises(ValueError, match="diverges for q <= 3/8"):
                    momentum_radial_power_integral(state, q)

    @pytest.mark.parametrize("D", [3, 4, 5])
    def test_orders_next_to_the_threshold(self, D):
        # q = threshold + 10^-j: the tail's exponent sigma_0 = (D+1) q - D/2
        # falls to (D+1) 10^-j, and the integral grows as 1/sigma_0
        for n in (2, 3, 4):
            state = HydrogenicState(D, n, (0,) * (D - 1))
            for j in range(2, 7):
                q = float(F(D, 2 * D + 2) + F(1, 10**j))
                _assert_within_error_next_to_the_threshold(state, q)

    @pytest.mark.slow
    @pytest.mark.parametrize("D", [3, 4, 5])
    def test_radial_integrals_next_to_the_threshold_at_every_l(self, D):
        for n in (2, 3, 4):
            for l in range(n - 1):
                state = HydrogenicState(D, n, (l,) + (0,) * (D - 2))
                for j in range(2, 7):
                    q = float(F(D, 2 * l + 2 * D + 2) + F(1, 10**j))
                    log_value, rel = momentum_radial_power_integral(state, q)
                    with mpmath.workdps(40):
                        exact = reference.momentum_radial_log_integral(state, q)
                    assert abs(log_value - exact) <= rel, (D, n, l, j)

    def test_deep_tail_just_above_threshold(self):
        # the tail decays as p^-1.08; cut at p ~ 2e34 it missed 9e-5 of the
        # integral, the deep nodes reach p ~ 2^1001
        q = F(3, 8) + F(1, 100)
        result = renyi_float(GROUND, q, "momentum")
        reference = entropy.ns_momentum_entropy(1, 3, 1, float(q))
        assert abs(result.value - reference) <= result.error + 1e-12 * abs(reference)

    def test_threshold_grows_with_l(self):
        # l = 2, D = 3: threshold 3/12; position space has no threshold
        state = HydrogenicState(3, 5, (2, 0), 1)
        with pytest.raises(ValueError, match="q <= 1/4"):
            renyi_float(state, F(1, 5), "momentum")
        assert math.isfinite(renyi_float(state, F(1, 5), "position").value)


def _assert_within_error_next_to_the_threshold(state, q):
    """The momentum entropy of a state with an all-zero chain against the
    y-form of its radial integral and the Gamma form of its angular one,
    at 40 digits."""
    result = renyi_float(state, q, "momentum")
    with mpmath.workdps(40):
        exact = (
            reference.momentum_radial_log_integral(state, q)
            + reference.equal_chain_log_angular(state.D, 0, q)
        ) / (1 - mpmath.mpf(q))
    assert abs(result.value - exact) <= result.error, (state.literal(), q)


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

    @pytest.mark.parametrize("family", ["laguerre", "gegenbauer"])
    def test_nodes_equal_the_full_count_bisection(self, family, monkeypatch):
        # the Sturm count stops once it passes the eigenvalue's index; the
        # bisection takes the same branch at every step, so the same floats
        nodes_of = NODE_FAMILIES[family][0]
        params = (
            [F(0), F(5, 2), F(8), F(41)]
            if family == "laguerre"
            else [F(1, 2), F(3, 2), F(9, 2), F(61, 2)]
        )
        cases = [(k, param) for k in range(41) for param in params]
        early = [nodes_of(k, param) for k, param in cases]
        monkeypatch.setattr(oracle, "_jacobi_eigenvalues", reference.jacobi_eigenvalues)
        assert early == [nodes_of(k, param) for k, param in cases]

    @pytest.mark.parametrize("family,k,param", [c for c in NODE_CASES if c[1] <= 9])
    def test_nodes_agree_with_polyroots(self, family, k, param):
        nodes_of, poly_of, _, _ = NODE_FAMILIES[family]
        poly = poly_of(k, param)
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(poly.coeffs)]
        with mpmath.workdps(QUADRATURE_DPS):
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=100)
        reference = sorted(float(mpmath.re(r)) for r in roots)
        assert nodes_of(k, param) == pytest.approx(reference, rel=1e-12, abs=1e-15)


class TestQuadRule:
    def test_relative_error_is_scale_free(self):
        rel = []
        for c in (1e-20, 1.0, 1e20):
            value, err = oracle._quad(
                lambda x, c=c: c * x**2.5 * math.exp(-x), [0.0, 1.0, mpmath.inf]
            )
            assert value == pytest.approx(c * math.gamma(3.5), rel=1e-14)
            rel.append(err / value)
        assert 0 < rel[1] <= oracle.QUADRATURE_REL_TARGET
        assert rel[0] == pytest.approx(rel[1], rel=1e-6, abs=0)
        assert rel[2] == pytest.approx(rel[1], rel=1e-6, abs=0)

    def test_precision_is_mpmaths(self):
        # mpmath ends a level at 1 - |x| = 2^-(prec+10); the library writes
        # that limit as a literal so as not to import mpmath
        prec = mpmath.libmp.dps_to_prec(QUADRATURE_DPS)
        assert oracle._NODE_LIMIT == 2.0 ** -(prec + 10)

    @pytest.mark.parametrize("level", range(1, 10))
    def test_nodes_are_mpmaths(self, level):
        # same truncation, so the same number of evaluations per level; the
        # float complements 1 - |x| keep their relative precision
        prec = mpmath.libmp.dps_to_prec(QUADRATURE_DPS)
        with mpmath.workprec(prec + 40):
            reference = TanhSinh(mpmath.mp).calc_nodes(level, prec)
            positive = [(1 - x, w) for x, w in reference if x > 0]
        (outside, inside), _ = oracle._sides(level, False)
        nodes = outside + inside
        assert len(reference) == 2 * len(nodes) + (level == 1)
        for (comp, w), (c, v) in zip(positive, nodes):
            assert c == pytest.approx(float(comp), rel=1e-13, abs=0)
            assert v == pytest.approx(float(w), rel=1e-13, abs=0)

    def test_error_never_below_float_floor(self):
        # an integrand the rule gets exactly still reports the rounding floor
        value, err = oracle._quad(lambda x: 1.0, [0.0, 0.5, 2.0])
        assert value == 2.0
        assert err == pytest.approx(2.0 * oracle._FLOAT_REL_FLOOR, rel=1e-15)
        for q, space in [(0.7, "position"), (5, "momentum"), (40, "position")]:
            result = renyi_float(HydrogenicState(4, 5, (2, 1, 0), 1), q, space)
            floor = oracle._FLOAT_REL_FLOOR * max(1, q)
            assert result.error >= 2 * floor / abs(1 - q) * (1 - 1e-12)

    def test_zero_at_unit_momentum_stays_cheap(self, monkeypatch):
        # the Gegenbauer zero y = 0 lies at v = 1, where a breakpoint Z/eta
        # once sat too; kept as two points they left a 1e-17-wide segment
        # that ran all nine levels
        evaluations = _evaluations(
            monkeypatch, lambda: renyi_float(HydrogenicState(3, 6, (0, 0), 1), 5, "momentum")
        )
        # 1316 with every node of each level and the old breakpoints; the
        # sides that stop in the endpoint region left 830
        assert evaluations <= 830

    def test_evaluations_over_the_benchmark_strata(self, monkeypatch):
        # 12,421 with breakpoints at Z/eta and 4 Z/eta (2 eta lam and
        # 8 eta lam in position space) and the deep [a, inf) table
        def every_stratum():
            for D, n, mu, space, q in FLOAT_STRATA:
                try:
                    renyi_float(HydrogenicState(D, n, mu), float(F(q)), space)
                except (ValueError, QuadratureError):
                    pass

        assert _evaluations(monkeypatch, every_stratum) <= 9000

    def test_zero_far_side_of_a_momentum_tail(self, monkeypatch):
        # at q = 60 the momentum integrand underflows before p = 1 past its
        # last zero; the side of [a, inf) towards infinity evaluated 0 at
        # every node of the deep table, 279 of them past p = 1e34
        evaluations = _evaluations(
            monkeypatch, lambda: renyi_float(HydrogenicState(2, 10, (1,), 1), 60, "momentum")
        )
        assert evaluations <= 2700  # 3,666 with the deep table

    def test_position_at_a_tiny_order(self, monkeypatch):
        # the mass sits near r = 2 lam / q = 5e34: the tail's map, scaled to
        # the envelope's peak, reaches it at once, where breakpoints on the
        # scale eta lam took 3,913 evaluations
        state, q = TWO_S, 1e-34
        result = renyi_float(state, q, "position")
        evaluations = _evaluations(monkeypatch, lambda: renyi_float(state, q, "position"))
        assert evaluations <= 210
        with mpmath.workdps(30):
            exact = (
                reference.position_radial_log_integral(state, q)
                + reference.equal_chain_log_angular(3, 0, q)
            ) / (1 - mpmath.mpf(q))
        assert abs(result.value - exact) <= result.error

    def test_stops_at_the_first_level_that_is_not_a_number(self):
        # NaN at one node, the centre of the first segment: that level's sum
        # is NaN, no later level or segment can mend it, and the rule
        # returns after the first level instead of running nine on every
        # segment
        evaluated = []

        def f(x):
            evaluated.append(x)
            return math.nan if x == 0.5 else math.exp(-x)

        value, err = oracle._quad(f, [0.0, 1.0, 2.0, math.inf])
        assert math.isnan(value) and math.isnan(err)
        (outside, inside), _ = oracle._sides(1, False)
        assert len(evaluated) <= 1 + 2 * (len(outside) + len(inside))
        log_value, rel = oracle._quad_log(lambda x: math.nan if x == 0.5 else -x, [0.0, 1.0], 1.0)
        assert math.isnan(log_value) and math.isnan(rel)

    def test_peak_missed_by_the_midpoints(self):
        # exp(-c (x - x0)^2) on [0, 1]: the midpoint sits 1200 below the
        # peak in the log, past the float range of the first shift
        c, x0 = 5000.0, 0.01
        log_value, rel = oracle._quad_log(lambda x: -c * (x - x0) ** 2, [0.0, 1.0], 1.0)
        exact = math.sqrt(math.pi / c) / 2 * (
            math.erf(math.sqrt(c) * (1 - x0)) + math.erf(math.sqrt(c) * x0)
        )
        assert math.exp(log_value) == pytest.approx(exact, rel=1e-13)
        assert rel <= 1e-10


# The float_real_order strata of the benchmark (perfbench/workloads.py), as
# (D, n, mu, space, q), copied so that the count above does not move with
# the benchmark's inputs.
FLOAT_STRATA = (
    (3, 1, (0, 0), "position", "0.7"),
    (3, 1, (0, 0), "momentum", "0.7"),
    (3, 3, (2, 1), "position", "1.5"),
    (3, 3, (2, 1), "momentum", "2"),
    (3, 4, (3, 3), "position", "2.5"),
    (3, 4, (3, 3), "momentum", "0.5"),
    (3, 5, (2, 0), "position", "3"),
    (3, 5, (2, 0), "momentum", "0.2"),
    (3, 6, (3, 2), "momentum", "0.2"),
    (3, 6, (0, 0), "position", "2"),
    (3, 6, (0, 0), "momentum", "5"),
    (3, 8, (7, 7), "position", "0.5"),
    (3, 8, (7, 7), "momentum", "1.5"),
    (3, 10, (0, 0), "position", "2"),
    (3, 12, (0, 0), "position", "0.5"),
    (3, 12, (0, 0), "momentum", "0.7"),
    (4, 2, (1, 1, 1), "position", "0.2"),
    (4, 2, (1, 1, 1), "momentum", "2.5"),
    (4, 4, (0, 0, 0), "position", "5"),
    (4, 4, (0, 0, 0), "momentum", "3"),
    (4, 6, (5, 5, 5), "position", "3"),
    (4, 6, (5, 5, 5), "momentum", "0.7"),
    (4, 7, (3, 1, 1), "position", "2"),
    (4, 7, (3, 1, 1), "momentum", "1.5"),
    (4, 10, (9, 9, 9), "position", "1.5"),
    (4, 10, (9, 9, 9), "momentum", "2"),
    (5, 1, (0, 0, 0, 0), "position", "2.5"),
    (5, 1, (0, 0, 0, 0), "momentum", "3"),
    (5, 4, (3, 3, 3, 3), "position", "0.7"),
    (5, 4, (3, 3, 3, 3), "momentum", "5"),
    (5, 5, (2, 1, 1, 0), "position", "0.5"),
    (5, 5, (2, 1, 1, 0), "momentum", "2"),
    (5, 8, (0, 0, 0, 0), "position", "3"),
    (5, 8, (0, 0, 0, 0), "momentum", "0.5"),
    (5, 12, (11, 11, 11, 11), "position", "0.2"),
    (5, 12, (11, 11, 11, 11), "momentum", "2"),
    (3, 2, (1, 1), "position", "5"),
    (4, 3, (2, 1, 0), "position", "0.7"),
    (4, 5, (0, 0, 0), "momentum", "1.5"),
    (5, 3, (1, 1, 0, 0), "momentum", "2.5"),
)


def _evaluations(monkeypatch, run) -> int:
    """The number of integrand evaluations of the float rule while run()
    runs."""
    evaluations = []
    original = oracle._quad

    def counting_quad(f, points, rule=oracle._FloatTanhSinh()):
        return original(lambda x: evaluations.append(x) or f(x), points, rule)

    monkeypatch.setattr(oracle, "_quad", counting_quad)
    run()
    return len(evaluations)


def _captured_log_integrand(monkeypatch, integral, state, q):
    captured = {}

    def capture(log_f, points, q):
        captured["log_f"] = log_f
        return mpmath.mpf(1), mpmath.mpf(0)

    monkeypatch.setattr(oracle, "_quad_log", capture)
    integral(state, q)
    return captured["log_f"]


class TestFloatIntegrands:
    """The log integrands against the densities at 50 digits, far into the
    tails that the rule's nodes reach."""

    @pytest.mark.parametrize("x", [170.1, 300.2, 500.9])
    def test_position_past_the_underflow(self, monkeypatch, x):
        # k = 159, alpha = 1: L_k(x) / x^k falls below the smallest normal
        # float in the oscillating region, where ln|L| was once off by 8.3e-5
        # (x = 170.1), -inf (300.2) and off by 2.6e-2 (500.9)
        state, q = HydrogenicState(3, 160, (0, 0), 1), 0.5
        log_f = _captured_log_integrand(
            monkeypatch, position_radial_power_integral, state, q
        )
        r = x * float(state.lam)
        with mpmath.workdps(50):
            lam = mpmath.mpf(state.lam.numerator) / state.lam.denominator
            norm = radial_norm_squared(state)
            norm2 = mpmath.mpf(norm.numerator) / norm.denominator / lam**3
            rt = mpmath.mpf(r) / lam
            log_poly = mpmath.log(abs(mpmath.laguerre(159, 1, rt)))
            exact = q * (mpmath.log(norm2) - rt + 2 * log_poly) + 2 * mpmath.log(r)
        assert log_f(r) == pytest.approx(float(exact), rel=1e-13)

    @pytest.mark.parametrize("literal", ["D=3,n=742,mu=323,0", "D=3,n=800,mu=400,0"])
    def test_position_past_the_float_range(self, monkeypatch, literal):
        # L_k^(alpha)(0) = C(k+alpha, k) is C(1065, 418) ~ 1.7e308 and
        # C(1199, 399) ~ e^759: the recurrence from 1 overflowed, and the
        # integrand was inf or NaN, up to r / lam = 0.3 for the first state
        # and past r / lam = 1 for the second.  From r / lam = 50 on the
        # recurrence is rescaled where it falls below 2^-400.
        state, q = HydrogenicState.parse(literal), 0.7
        log_f = _captured_log_integrand(
            monkeypatch, position_radial_power_integral, state, q
        )
        expected = reference.position_log_integrand(state, q)
        lam = float(state.lam)
        rts = (1e-300, 1e-20, 1e-3, 0.3, 0.9999, 1.0, 1.0000001, 1.5, 3.0, 10.0, 50.0, 300.0)
        for rt in rts:
            assert log_f(rt * lam) == pytest.approx(expected(rt * lam), rel=1e-13), rt

    @pytest.mark.slow
    def test_position_entropy_past_the_float_range(self):
        # the state above at q = 2 against the exact oracle (about 35 s in all):
        # the miss, 1.8e-12, is 16 times the stated error, as it is 8.6 times at
        # n = 735, l = 320, whose recurrence never overflowed
        state = HydrogenicState(3, 742, (323, 0), 1)
        result = renyi_float(state, 2, "position")
        w = radial_position_w_exact(state, 2) * angular_w_exact(3, (323, 0), 2)
        assert result.value == pytest.approx(-log_float(w), rel=1e-13)
        assert renyi_float(state, 0.7, "position").error < 1e-12

    def test_position_far_tail(self, monkeypatch):
        # the unscaled Laguerre recurrence overflowed to NaN at r ~ 1e34
        state, q = HydrogenicState(3, 12, (0, 0), 1), 0.5
        log_f = _captured_log_integrand(
            monkeypatch, position_radial_power_integral, state, q
        )
        poly = laguerre(11, 1)
        with mpmath.workdps(50):
            lam = mpmath.mpf(state.lam.numerator) / state.lam.denominator
            norm = radial_norm_squared(state)
            norm2 = mpmath.mpf(norm.numerator) / norm.denominator / lam**3
            coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(poly.coeffs)]
            for r in (0.3, 7.0, 150.0, 1e34, 1e300):
                rt = mpmath.mpf(r) / lam
                log_density = (
                    mpmath.log(norm2) - rt + 2 * mpmath.log(abs(mpmath.polyval(coeffs, rt)))
                )
                exact = q * log_density + 2 * mpmath.log(r)
                assert log_f(r) == pytest.approx(float(exact), rel=1e-13)

    @pytest.mark.parametrize("v", [1e-3, 0.5, 1.0, 3.0, 1e10, 1e160, 1e300])
    def test_momentum_over_the_whole_range(self, monkeypatch, v):
        # u = v^2 overflows past v = 1e154 unless formed from 1/v^2
        state, q = HydrogenicState(4, 7, (2, 1, 0), F(3, 2)), 0.7
        log_f = _captured_log_integrand(
            monkeypatch, momentum_radial_power_integral, state, q
        )
        l, D, k = 2, 4, 4
        poly = gegenbauer(k, state.L + 1)
        with mpmath.workdps(50):

            def mp(x):
                return mpmath.mpf(x.numerator) / x.denominator

            z, eta = mp(state.Z), mp(state.eta)
            k2 = (
                z ** (-D) * mpmath.mpf(2) ** (4 * l + 2 * D) * math.factorial(k)
                * mpmath.gamma(mpmath.mpf(2 * l + D - 1) / 2) ** 2 * eta ** (D + 1)
                / (2 * mpmath.pi * math.factorial(state.n + l + D - 3))
            )
            coeffs = [mp(c) for c in reversed(poly.coeffs)]
            p = mpmath.mpf(v) * z / eta
            u = mpmath.mpf(v) ** 2
            y = (1 - u) / (1 + u)
            log_density = (
                mpmath.log(k2) + l * mpmath.log(u) - mp(2 * state.L + 4) * mpmath.log1p(u)
                + 2 * mpmath.log(abs(mpmath.polyval(coeffs, y)))
            )
            exact = q * log_density + (D - 1) * mpmath.log(p)
        assert log_f(float(p)) == pytest.approx(float(exact), rel=1e-13)


def _around(x: float, steps: int = 8) -> list[float]:
    """x and the steps floats on each side of it."""
    out, below, above = [x], x, x
    for _ in range(steps):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def _radial_probes(unit: float, nodes: list[float], seed: int) -> list[float]:
    """Points on both sides of unit and of each node, 10^-300 to 10^300 in
    steps of a quarter decade, and uniform draws up to 60 units."""
    rng = random.Random(seed)
    points = [p for x in [unit] + nodes for p in _around(x)]
    points += [10.0 ** (e / 4) for e in range(-1200, 1201)]
    points += [rng.uniform(0, 60 * unit) for _ in range(400)]
    return [p for p in points if p > 0]


def _mismatches(closure, reference_closure, points) -> list[tuple[float, float, float]]:
    out = []
    for x in points:
        got, want = closure(x), reference_closure(x)
        assert not math.isnan(want), x
        if got != want:
            out.append((x, got, want))
    return out


BIT_STATES = [
    HydrogenicState(3, 12, (0, 0), 1),
    HydrogenicState(3, 7, (3, 1), F(3, 2)),
    HydrogenicState(2, 6, (-2,), 1),
    HydrogenicState(4, 9, (2, 1, 0), F(2, 7)),
    HydrogenicState(5, 11, (4, 2, 1, -1), 1),
]


class TestFloatClosuresBitForBit:
    """Each integrand closure of the float path against the reference
    composition of separate evaluators (the unscaled recurrences and the
    density as its own function): equal floats, not merely close ones, at
    more than 10^4 points per test and order."""

    @pytest.mark.parametrize("q", [0.3, 2.5])
    def test_position(self, monkeypatch, q):
        points_seen = 0
        for seed, state in enumerate(BIT_STATES):
            unit = float(state.unit_charge().lam)
            closure = _captured_log_integrand(
                monkeypatch, position_radial_power_integral, state.unit_charge(), q
            )
            l, D = state.l, state.D
            nodes = [unit * x for x in oracle._laguerre_nodes(state.n - l - 1, F(2 * l + D - 2))]
            points = _radial_probes(unit, nodes, seed)
            expected = reference.position_log_integrand(state.unit_charge(), q)
            assert _mismatches(closure, expected, points) == []
            points_seen += len(points)
        assert points_seen >= 10**4

    @pytest.mark.parametrize("q", [0.7, 4.0])
    def test_momentum(self, monkeypatch, q):
        points_seen = 0
        for seed, state in enumerate(BIT_STATES):
            closure = _captured_log_integrand(
                monkeypatch, momentum_radial_power_integral, state, q
            )
            unit = float(state.Z / state.eta)  # v = 1
            nodes = [
                unit * math.sqrt((1 - y) / (1 + y))
                for y in oracle._gegenbauer_nodes(state.n - state.l - 1, state.L + 1)
            ]
            points = _radial_probes(unit, nodes, seed)
            expected = reference.momentum_log_integrand(state, q)
            assert _mismatches(closure, expected, points) == []
            points_seen += len(points)
        assert points_seen >= 10**4

    @pytest.mark.parametrize("q", [0.55, 3.0])
    def test_angular(self, monkeypatch, q):
        # each segment's closure reads its loop's variables, so it is probed
        # while its own _quad_log call runs
        segments, mismatches = [], []

        def probe(log_f, points, q):
            k, lam, s, probes = segments[len(mismatches)]
            expected = reference.angular_log_integrand(k, float(lam), s, q)
            mismatches.append(_mismatches(log_f, expected, probes))
            return mpmath.mpf(1), mpmath.mpf(0)

        monkeypatch.setattr(oracle, "_quad_log", probe)
        rng = random.Random(7)
        for D, mu in [(3, (7, 2)), (4, (9, 3, 0)), (5, (4, 2, 1, 0)), (6, (6, 6, 3, 1, -1))]:
            for j in range(1, D - 1):
                mu_j, mu_j1 = mu[j - 1], abs(mu[j])
                if mu_j == mu_j1:
                    continue
                k, alpha = mu_j - mu_j1, F(D - j - 1, 2)
                with mpmath.workdps(QUADRATURE_DPS):
                    s = mpmath.mpf(q) * mu_j1 + mpmath.mpf(alpha.numerator) / alpha.denominator
                    s = float(s - mpmath.mpf(1) / 2)
                probes = [-1.0, 1.0, 0.0, 5e-324, -5e-324]
                for x in oracle._gegenbauer_nodes(k, alpha + mu_j1):
                    probes += _around(x)
                for e in range(1, 60):
                    probes += [1 - 2.0**-e, -1 + 2.0**-e]
                probes += [rng.uniform(-1, 1) for _ in range(1500)]
                segments.append((k, alpha + mu_j1, s, probes))
            angular_power_integral(D, mu, q)
        assert len(mismatches) == len(segments)
        assert mismatches == [[]] * len(segments)
        assert sum(len(segment[3]) for segment in segments) >= 10**4


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

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_checks_render_their_scalars_when_read(self, monkeypatch, perturbed):
        if perturbed:  # a wrong closed form, so that closed and oracle differ
            honest = entropy.rising_product
            monkeypatch.setattr(
                "hydrenyi.entropy.rising_product",
                lambda p, d, k: honest(p, d, k) * (2 if k == 3 else 1),
            )
        state, q = HydrogenicState(4, 3, (2, 1, -1), F(5, 2)), 3
        verdict = verify_state(state, q)
        sides = {
            "closed": (
                entropy.radial_position_entropy(state, q).w,
                entropy.angular_entropy(state.D, state.mu, q).w,
                entropy.radial_momentum_entropy(state, q).w,
            ),
            "oracle": (
                radial_position_w_exact(state, q),
                angular_w_exact(state.D, state.mu, q),
                radial_momentum_w_exact(state, q),
            ),
        }
        for side, (position, angular, momentum) in sides.items():
            expected = [position, angular, momentum, position * angular, momentum * angular]
            for check, w in zip(verdict.checks, expected):
                assert getattr(check, side) == getattr(check, f"{side}_w").render() == w.render()
        assert verdict.all_equal is not perturbed
        for check in verdict.checks:
            assert check.to_dict() == {
                "name": check.name,
                "closed": check.closed,
                "oracle": check.oracle,
                "equal": check.closed == check.oracle,
                "residual": check.residual,
            }

    def test_json_round_trip(self):
        verdict = verify_state(GROUND, 3)
        parsed = json.loads(json.dumps(verdict.to_dict(), sort_keys=True))
        assert parsed["all_equal"] is True
        assert parsed["state"] == "D=3,n=1,mu=0,0,Z=1"
        assert len(parsed["checks"]) == 5

    def test_detects_perturbation(self, monkeypatch):
        # corrupt one Pochhammer product used by the closed forms; the oracle
        # must flag the disagreement with a nonzero residual
        honest = entropy.rising_product

        def crooked(p, d, k):
            value = honest(p, d, k)
            return value * 2 if k == 3 else value

        monkeypatch.setattr("hydrenyi.entropy.rising_product", crooked)
        verdict = verify_state(HydrogenicState(3, 2, (1, 0), 1), 2)
        assert not verdict.all_equal
        bad = [check for check in verdict.checks if not check.equal]
        assert bad and all(check.residual > 0 for check in bad)
        # W past the float range, of either sign or zero, still reads
        # |a - b| / max(|a|, |b|)
        big, small = ExactScalar(10**400), ExactScalar(F(1, 10**400))
        for a, b, expected in (
            (big, big * 2, 0.5),
            (small, small * 2, 0.5),
            (big, ExactScalar(0), 1.0),
            (big * -1, big, 2.0),
            (small, ExactScalar(0), 1.0),
            (small * -1, small * -2, 0.5),
        ):
            residual = oracle._compare("x", a, b).residual
            assert residual == pytest.approx(expected, rel=1e-12)


def _sweep_chains(D: int, l: int) -> list[tuple[int, ...]]:
    """Chains at orbital number l: one that drops to zero at once, one that
    stays at l with a negative magnetic number, and one that steps down."""
    if D == 2:
        return sorted({(l,), (-l,)})
    return sorted(
        {
            (l,) + (0,) * (D - 2),
            (l,) * (D - 2) + (-l,),
            tuple(l - l * j // (D - 1) for j in range(D - 1)),
        }
    )


SWEEP_ORDERS = (2, 3, 4, 5, 6)
WIDE_ORDERS = (7, 8, 9, 10)


def _assert_verified(cases) -> None:
    failing = [
        f"{state.literal()} q={q}"
        for state, q in cases
        if not verify_state(state, q).all_equal
    ]
    assert not failing, failing


def _sweep_subset(D: int, n: int) -> list[tuple[HydrogenicState, int]]:
    """One chain and order per l, rotating through both, plus the costliest
    radial case l = 0 at q = 6."""
    cases = []
    for l in range(n):
        chains = _sweep_chains(D, l)
        q = SWEEP_ORDERS[(D + n + l) % len(SWEEP_ORDERS)]
        cases.append((HydrogenicState(D, n, chains[(n + l) % len(chains)], 1), q))
    if cases[0][1] != 6:
        cases.append((HydrogenicState(D, n, (0,) * (D - 1), 1), 6))
    return cases


class TestClosedFormsAgainstOracle:
    """Every closed-form W against the oracle's, with zero tolerance, beyond
    the paper's D <= 5, n <= 4, q <= 3."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("D", range(2, 9))
    def test_subset(self, D, n):
        _assert_verified(_sweep_subset(D, n))

    @pytest.mark.parametrize(
        "literal",
        [
            "D=3,n=20,mu=0,0",
            "D=5,n=20,mu=0,0,0,0",
            "D=3,n=20,mu=10,-5,Z=5/2",
            "D=4,n=20,mu=19,10,-3",
            "D=6,n=20,mu=5,3,3,1,0",
        ],
    )
    def test_spot_checks_at_n20_q10(self, literal):
        _assert_verified([(HydrogenicState.parse(literal), 10)])

    @pytest.mark.parametrize("l", [0, 20, 38, 39])
    def test_spot_checks_at_n40_q20(self, l):
        _assert_verified([(HydrogenicState(3, 40, (l, 0), 1), 20)])

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("D", range(2, 6))
    def test_sampled_at_scale(self, D, seed):
        # beyond the grids below: n in 21..40 and q in 11..20, any l and chain
        rng = random.Random(100 * D + seed)
        cases = []
        for _ in range(4):
            n = rng.randint(21, 40)
            l = rng.randrange(n)
            chain = rng.choice(_sweep_chains(D, l))
            cases.append((HydrogenicState(D, n, chain, 1), rng.randint(11, 20)))
        _assert_verified(cases)

    @pytest.mark.slow
    @pytest.mark.parametrize("n", range(1, 21))
    @pytest.mark.parametrize("D", range(2, 7))
    def test_wide_grid(self, D, n):
        # every l and chain shape at n up to 20, the orders 7..10 in turn
        _assert_verified(
            (HydrogenicState(D, n, chain, 1), WIDE_ORDERS[(n + l + i) % len(WIDE_ORDERS)])
            for l in range(n)
            for i, chain in enumerate(_sweep_chains(D, l))
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("D", range(2, 9))
    def test_grid(self, D, n):
        _assert_verified(
            (HydrogenicState(D, n, chain, 1), q)
            for l in range(n)
            for chain in _sweep_chains(D, l)
            for q in SWEEP_ORDERS
        )
