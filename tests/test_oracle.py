import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath.calculus.quadrature import TanhSinh

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
from hydrenyi.polynomials import PolyExact, gegenbauer, laguerre, poly_pow
from hydrenyi.states import (
    HydrogenicState,
    ValidationError,
    enumerate_states,
    radial_norm_squared,
)

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
        with pytest.raises(ValueError):
            MomentBasis("chebyshev").integrate(PolyExact([F(1), F(2)]))


def _integrated(basis: MomentBasis, coeffs) -> ExactScalar:
    return basis.moment(0) * basis.integrate(PolyExact(coeffs))


def _summed_moments(basis: MomentBasis, coeffs) -> ExactScalar:
    """The definition integrate must reproduce: sum_k c_k moment(k)."""
    total = ExactScalar(0)
    for k, c in enumerate(coeffs):
        if c:
            total = total + basis.moment(k) * c
    return total


# zeros, negatives and large denominators, up to the degrees the oracle meets
rational_vectors = st.lists(
    st.one_of(
        st.just(F(0)), st.fractions(min_value=-40, max_value=40, max_denominator=60)
    ),
    max_size=16,
)
# s >= 0 in steps of 1/2, as the angular oracle produces
gegenbauer_params = st.integers(min_value=0, max_value=20).map(lambda t: F(t, 2))


@st.composite
def shifted_params(draw):
    # a, b > -1 in steps of 1/2 with a + b an integer
    twice_a = draw(st.integers(min_value=-1, max_value=30))
    twice_b = 2 * draw(st.integers(min_value=0, max_value=15)) - twice_a % 2
    return F(twice_a, 2), F(twice_b, 2)


class TestMomentIntegrate:
    """integrate against the moment-by-moment sum, with zero tolerance."""

    @given(rational_vectors)
    def test_laguerre(self, coeffs):
        basis = MomentBasis("laguerre")
        assert _integrated(basis, coeffs) == _summed_moments(basis, coeffs)

    @given(rational_vectors, gegenbauer_params)
    def test_gegenbauer(self, coeffs, s):
        basis = MomentBasis("gegenbauer", (s,))
        assert _integrated(basis, coeffs) == _summed_moments(basis, coeffs)

    @given(rational_vectors, shifted_params())
    def test_jacobi_shifted(self, coeffs, params):
        basis = MomentBasis("jacobi-shifted", params)
        assert _integrated(basis, coeffs) == _summed_moments(basis, coeffs)

    @pytest.mark.parametrize(
        "basis",
        [
            MomentBasis("laguerre"),
            MomentBasis("gegenbauer", (F(0),)),
            MomentBasis("gegenbauer", (F(7, 2),)),
            MomentBasis("jacobi-shifted", (F(-1, 2), F(3, 2))),
            MomentBasis("jacobi-shifted", (F(2), F(0))),
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
        def shaky_quad(f, points, rule=None):
            return mpmath.mpf(1), mpmath.mpf("1e-3")

        monkeypatch.setattr("hydrenyi.oracle._quad", shaky_quad)
        with pytest.raises(QuadratureError) as info:
            renyi_float(GROUND, 2, "position")
        assert info.value.estimate > 0
        assert "target" in str(info.value)

    @pytest.mark.parametrize(
        "target, state, name",
        [
            ("_quad", GROUND, "radial position"),
            ("angular_power_integral", HydrogenicState(3, 3, (2, 0)), "angular"),
        ],
    )
    def test_zero_integral_raises_without_an_estimate(self, monkeypatch, target, state, name):
        monkeypatch.setattr(f"hydrenyi.oracle.{target}", lambda *args: (mpmath.mpf(0),) * 2)
        with pytest.raises(QuadratureError, match=f"the {name} integral came out zero") as info:
            renyi_float(state, 1.5, "position")
        assert info.value.value is None and info.value.estimate is None


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
        for c in (1e-20, 1.0, 1e20):
            value, err = oracle._quad(
                lambda x, c=c: c * x**2.5 * math.exp(-x), [0.0, 1.0, mpmath.inf]
            )
            assert value == pytest.approx(c * math.gamma(3.5), rel=1e-14)
            rel.append(err / value)
        assert 0 < rel[1] <= oracle.QUADRATURE_REL_TARGET
        assert rel[0] == pytest.approx(rel[1], rel=1e-6, abs=0)
        assert rel[2] == pytest.approx(rel[1], rel=1e-6, abs=0)

    @pytest.mark.parametrize("level", range(1, 10))
    def test_nodes_are_mpmaths(self, level):
        # same truncation, so the same number of evaluations per level; the
        # float complements 1 - |x| keep their relative precision
        prec = mpmath.libmp.dps_to_prec(oracle.QUADRATURE_DPS)
        with mpmath.workprec(prec + 40):
            reference = TanhSinh(mpmath.mp).calc_nodes(level, prec)
            positive = [(1 - x, w) for x, w in reference if x > 0]
        comps, weights = oracle._level_nodes(level, oracle._NODE_LIMIT)
        assert len(reference) == 2 * len(comps) + (level == 1)
        for (comp, w), c, v in zip(positive, comps, weights):
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

    def test_near_duplicate_breakpoints_merge(self, monkeypatch):
        assert oracle._breakpoints([2.0, 1.0, 0.0, 1.0 + 2e-16, 0.0]) == [0.0, 1.0, 2.0]
        # the Gegenbauer zero y = 0 maps onto the Z/eta breakpoint; kept as two
        # points it left a 1e-17-wide segment that ran all nine levels
        evaluations = []
        original = oracle._quad

        def counting_quad(f, points, rule=oracle._FloatTanhSinh()):
            return original(lambda x: evaluations.append(x) or f(x), points, rule)

        monkeypatch.setattr(oracle, "_quad", counting_quad)
        renyi_float(HydrogenicState(3, 6, (0, 0), 1), 5, "momentum")
        # 1316 with every node of each level; the sides that stop in the
        # endpoint region leave 830
        assert len(evaluations) <= 830

    def test_peak_missed_by_the_midpoints(self):
        # exp(-c (x - x0)^2) on [0, 1]: the midpoint sits 1200 below the
        # peak in the log, past the float range of the first shift
        c, x0 = 5000.0, 0.01
        value, err = oracle._quad_log(lambda x: -c * (x - x0) ** 2, [0.0, 1.0], 1.0)
        exact = math.sqrt(math.pi / c) / 2 * (
            math.erf(math.sqrt(c) * (1 - x0)) + math.erf(math.sqrt(c) * x0)
        )
        assert float(value) == pytest.approx(exact, rel=1e-13)
        assert float(err) <= 1e-10 * exact


def _captured_log_integrand(monkeypatch, integral, state, q):
    captured = {}

    def capture(log_f, points, q, deep_tail=False):
        captured["log_f"] = log_f
        return mpmath.mpf(1), mpmath.mpf(0)

    monkeypatch.setattr(oracle, "_quad_log", capture)
    integral(state, q)
    return captured["log_f"]


class TestFloatIntegrands:
    """The log integrands against the densities at 50 digits, far into the
    tails that the rule's nodes reach."""

    def test_position_far_tail(self, monkeypatch):
        # the unscaled Laguerre recurrence overflowed to NaN at r ~ 1e34
        state, q = HydrogenicState(3, 12, (0, 0), 1), 0.5
        log_f = _captured_log_integrand(
            monkeypatch, position_radial_power_integral, state, q
        )
        d = oracle.validate(state)
        poly = laguerre(11, 1)
        with mpmath.workdps(50):
            lam = mpmath.mpf(d.lam.numerator) / d.lam.denominator
            norm = radial_norm_squared(state, d)
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
        d = oracle.validate(state)
        l, D, k = 2, 4, 4
        poly = gegenbauer(k, d.L + 1)
        with mpmath.workdps(50):

            def mp(x):
                return mpmath.mpf(x.numerator) / x.denominator

            z, eta = mp(state.Z), mp(d.eta)
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
                mpmath.log(k2) + l * mpmath.log(u) - mp(2 * d.L + 4) * mpmath.log1p(u)
                + 2 * mpmath.log(abs(mpmath.polyval(coeffs, y)))
            )
            exact = q * log_density + (D - 1) * mpmath.log(p)
        assert log_f(float(p)) == pytest.approx(float(exact), rel=1e-13)


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
        parsed = json.loads(verdict.to_json())
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

    @pytest.mark.slow
    @pytest.mark.parametrize("l", [0, 38])
    def test_spot_checks_at_n40_q20(self, l):
        _assert_verified([(HydrogenicState(3, 40, (l, 0), 1), 20)])

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
