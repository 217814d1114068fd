import itertools
import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from hydrenyi import oracle
from hydrenyi.polynomials import gegenbauer, laguerre
from hydrenyi.states import (
    HydrogenicState,
    ValidationError,
    brief,
    count_states,
    enumerate_states,
    mu_chains,
    radial_momentum_norm_squared,
    radial_norm_squared,
    validate,
)

from reference import (
    alphas,
    angular_density,
    energy,
    radial_density_momentum,
    radial_density_position,
    radial_momentum_log_density,
    to_mpf,
)

F = Fraction


class TestValidate:
    def test_ground_state_derived(self):
        state = HydrogenicState(3, 1, (0, 0), 1)
        assert validate(state) is None
        assert state.eta == 1
        assert state.L == 0
        assert state.lam == F(1, 2)
        assert alphas(3) == (F(1, 2),)

    @pytest.mark.parametrize("D", range(2, 9))
    def test_derived_fields_match_their_definitions(self, D):
        # eta, L and lam are built when read; they keep the values and types
        # of the definitions written out here
        for n in range(1, 9):
            for l in range(n):
                if D == 2:
                    chains = [(l,), (-l,)]
                else:
                    chains = [(l,) + (0,) * (D - 2), (l,) * (D - 2) + (-l,)]
                for mu in chains:
                    for Z in (F(1), F(3), F(2, 3)):
                        state = HydrogenicState(D, n, mu, Z)
                        validate(state)
                        eta = n + F(D - 3, 2)
                        expected = {
                            "eta": eta,
                            "L": l + F(D - 3, 2),
                            "lam": eta / (2 * Z),
                        }
                        for name, value in expected.items():
                            assert getattr(state, name) == value
                        assert all(type(v) is F for v in (state.eta, state.L, state.lam))
                        assert (state.l, state.m_abs) == (l, abs(mu[-1]))

    def test_table_row_state(self):
        state = HydrogenicState(3, 3, (2, 2), 1)
        validate(state)
        assert state.eta == 3
        assert state.L == 2
        assert state.m_abs == 2

    def test_chain_violation_named(self):
        with pytest.raises(ValidationError, match="mu1=0 < "):
            validate(HydrogenicState(3, 2, (0, 1), 1))

    def test_l_range(self):
        with pytest.raises(ValidationError, match="0 <= l <= n-1"):
            validate(HydrogenicState(3, 1, (1, 0), 1))

    def test_mu_length(self):
        with pytest.raises(ValidationError, match="D-1=3"):
            validate(HydrogenicState(4, 2, (1, 0), 1))

    def test_nonpositive_charge(self):
        with pytest.raises(ValidationError, match="Z"):
            validate(HydrogenicState(3, 1, (0, 0), 0))

    def test_small_dimension(self):
        with pytest.raises(ValidationError, match="D >= 2"):
            validate(HydrogenicState(1, 1, (), 1))

    def test_negative_magnetic_allowed(self):
        state = HydrogenicState(4, 3, (2, 1, -1), 1)
        validate(state)
        assert state.m_abs == 1

    def test_d2_negative_single_entry(self):
        state = HydrogenicState(2, 3, (-2,), 1)
        validate(state)
        assert state.l == 2

    def test_accepts_exactly_the_enumerated_chains(self):
        for D, n in [(3, 3), (4, 3), (5, 2)]:
            enumerated = set(mu_chains(D, n))
            span = range(-(n - 1), n)
            accepted = set()
            for chain in itertools.product(span, repeat=D - 1):
                try:
                    validate(HydrogenicState(D, n, chain, 1))
                except ValidationError:
                    continue
                accepted.add(chain)
            assert accepted == enumerated


class TestEnergy:
    def test_hydrogen_ground(self):
        assert energy(HydrogenicState(3, 1, (0, 0), 1)) == F(-1, 2)

    def test_first_excited(self):
        assert energy(HydrogenicState(3, 2, (0, 0), 1)) == F(-1, 8)

    def test_dimension_shift(self):
        assert energy(HydrogenicState(5, 1, (0, 0, 0, 0), 1)) == F(-1, 8)

    def test_degeneracy_in_chain(self):
        values = {
            energy(HydrogenicState(4, 3, chain, 2)) for chain in mu_chains(4, 3)
        }
        assert len(values) == 1


class TestLiteral:
    def test_round_trip(self):
        state = HydrogenicState(3, 3, (2, 1), F(5, 2))
        assert HydrogenicState.parse(state.literal()) == state

    def test_parse_example(self):
        state = HydrogenicState.parse("D=3,n=3,mu=2,1,Z=1")
        assert state == HydrogenicState(3, 3, (2, 1), 1)

    def test_parse_defaults_z(self):
        assert HydrogenicState.parse("D=2,n=2,mu=-1").Z == 1

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValidationError):
            HydrogenicState.parse("D=3,n=1,extra")
        with pytest.raises(ValidationError):
            HydrogenicState.parse("n=1,mu=0")

    def test_parse_rejects_repeated_key(self):
        with pytest.raises(ValidationError, match="repeated key 'D'"):
            HydrogenicState.parse("D=3,D=4,n=2,mu=1,0,1")
        with pytest.raises(ValidationError, match="repeated key 'mu'"):
            HydrogenicState.parse("D=3,n=2,mu=1,0,mu=0,0")

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown key 'Zed'"):
            HydrogenicState.parse("D=3,n=1,mu=0,0,Zed=5")
        with pytest.raises(ValidationError, match="unknown key 'l'"):
            HydrogenicState.parse("D=3,n=2,l=1,mu=1,0")

    @pytest.mark.parametrize(
        "literal, name",
        [
            ("D={long},n=1,mu=0,0", "the dimension D"),
            ("D=3,n={long},mu=0,0", "the principal quantum number n"),
            ("D=3,n=2,mu=1,{long}", "each entry of mu"),
            ("D=3,n=1,mu=0,0,Z={long}", "the charge Z"),
            ("D=3,n=1,mu=0,0,Z=1/{long}", "the charge Z"),
            ("D=3,n=1,mu=0,0,Z=1.{long}", "the charge Z"),
            ("D=3,n=1,mu=0,0,Z=1e{long}", "the charge Z"),
        ],
    )
    def test_parse_names_a_number_past_the_digit_limit(self, literal, name):
        # int() and Fraction() refuse more than 4,300 digits in a row
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ValidationError) as info:
            HydrogenicState.parse(literal.format(long="1" * (limit + 1)))
        assert str(info.value).startswith(f"{name} may have at most {limit} digits")

    def test_parse_reads_numbers_at_the_digit_limit(self):
        # a run of digits at the limit converts, as do two runs each at it
        limit = sys.get_int_max_str_digits()
        state = HydrogenicState.parse(f"D=3,n={'1' * limit},mu=0,0,Z=1.{'1' * limit}")
        assert state.n == int("1" * limit)


def _shortened(text: str) -> str:
    return text if len(text) <= 12 else f"{text[:6]}...({len(text)} chars)"


_INTEGERS = st.one_of(st.integers(-(10**15), 10**15), st.integers(-(10**80), 10**80))


class TestBrief:
    @given(_INTEGERS)
    def test_integers_read_as_their_text(self, value):
        assert brief(value) == _shortened(str(value))

    @given(_INTEGERS, st.integers(1, 10**40))
    def test_fractions_read_as_their_text(self, num, den):
        assert brief(F(num, den)) == _shortened(str(F(num, den)))

    @given(st.lists(_INTEGERS, min_size=1, max_size=6))
    def test_chains_read_as_their_text(self, chain):
        assert brief(tuple(chain)) == _shortened(",".join(map(str, chain)))

    def test_strings_are_shortened(self):
        assert brief("2,x") == "2,x"
        assert brief("1" * 50) == "111111...(50 chars)"

    def test_numbers_past_the_digit_limit_are_measured(self):
        # str() refuses these, so brief must not write them
        digits = sys.get_int_max_str_digits() + 700
        assert brief(-(10**digits)) == f"-10000...({digits + 2} chars)"
        assert brief(F(7, 10**digits)) == f"7/1000...({digits + 3} chars)"
        assert brief((10**digits - 1, 0)) == f"999999...({digits + 2} chars)"


class TestDensities:
    def test_ground_radial_factor(self):
        state = HydrogenicState(3, 1, (0, 0), 1)
        for r in (0.3, 1.0, 2.5):
            assert radial_density_position(state, r) == pytest.approx(
                4 * math.exp(-2 * r), rel=1e-12
            )

    def test_position_density_nonnegative(self):
        state = HydrogenicState(4, 3, (1, 1, 0), F(3, 2))
        assert all(radial_density_position(state, r) >= 0 for r in (0.1, 1, 5, 20))

    def test_2p_density_zero_free(self):
        state = HydrogenicState(3, 2, (1, 0), 1)
        assert all(radial_density_position(state, r) > 0 for r in (0.05, 1, 4, 15))

    def test_momentum_density_nonnegative(self):
        state = HydrogenicState(3, 3, (1, 0), 1)
        assert all(radial_density_momentum(state, p) >= 0 for p in (0.01, 0.4, 2, 9))

    def test_momentum_tail_decay(self):
        state = HydrogenicState(3, 1, (0, 0), 1)
        # leading decay p^-(4L+8-2l) = p^-8
        ratio = radial_density_momentum(state, 40.0) / radial_density_momentum(
            state, 20.0
        )
        assert ratio == pytest.approx(2.0**-8, rel=1e-2)

    def test_s_wave_isotropy(self):
        state = HydrogenicState(3, 1, (0, 0), 1)
        for theta in (0.3, 1.2, 2.9):
            assert angular_density(state, [theta, 0.1]) == pytest.approx(
                1 / (4 * math.pi), rel=1e-12
            )

    def test_phi_independence(self):
        state = HydrogenicState(3, 2, (1, 1), 1)
        base = angular_density(state, [0.7, 0.0])
        for phi in (0.5, 2.0, 5.5):
            assert angular_density(state, [0.7, phi]) == base

    def test_d2_uniform(self):
        state = HydrogenicState(2, 2, (1,), 1)
        assert angular_density(state, [1.3]) == pytest.approx(1 / (2 * math.pi))

    @pytest.mark.parametrize("mu", [(100, 100), (180, 0), (120, -37)])
    def test_large_degree_angular_density_against_50_digits(self, mu):
        # the float norms overflowed here (Gamma(100.5)^2, 180!); the
        # reference is mpmath's spherical harmonic at 50 digits
        state = HydrogenicState(3, 181, mu, 1)
        for theta in (1.0, 0.4, 2.7):
            with mpmath.workdps(50):
                expected = abs(mpmath.spherharm(mu[0], mu[1], theta, 0.0)) ** 2
            assert angular_density(state, [theta, 0.0]) == pytest.approx(
                float(expected), rel=1e-12
            )

    def test_angular_density_vanishes_on_the_axis(self):
        assert angular_density(HydrogenicState(3, 2, (1, 1), 1), [0.0, 0.0]) == 0.0

    def test_magnetic_sign_irrelevant(self):
        plus = HydrogenicState(3, 2, (1, 1), 1)
        minus = HydrogenicState(3, 2, (1, -1), 1)
        assert angular_density(plus, [0.9, 0.2]) == angular_density(minus, [0.9, 0.2])

    def test_high_degree_density_against_extended_precision(self):
        # Horner's rule on the monomial coefficients was off by up to 1e-6
        # between the zeros here
        state = HydrogenicState(5, 20, (0, 0, 0, 0), 1)
        norm2 = radial_norm_squared(state) / state.lam**5
        with mpmath.workdps(50):

            def mp(x: Fraction):
                return mpmath.mpf(x.numerator) / x.denominator

            coeffs = [mp(c) for c in reversed(laguerre(19, 3).coeffs)]
            zeros = [float(state.lam) * x for x in oracle._laguerre_nodes(19, F(3))]
            for r in [(a + b) / 2 for a, b in zip(zeros, zeros[1:])] + [400.0]:
                rt = mpmath.mpf(r) / mp(state.lam)
                exact = mp(norm2) * mpmath.exp(-rt) * mpmath.polyval(coeffs, rt) ** 2
                assert radial_density_position(state, r) == pytest.approx(
                    float(exact), rel=1e-12, abs=0
                )


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _momentum_norm_mp(state: HydrogenicState):
    """K^2 at the working precision, from mpmath's Gamma function."""
    l, D = state.l, state.D
    return (
        _mp(state.Z) ** (-D) * mpmath.mpf(2) ** (4 * l + 2 * D)
        * math.factorial(state.n - l - 1)
        * mpmath.gamma(mpmath.mpf(2 * l + D - 1) / 2) ** 2 * _mp(state.eta) ** (D + 1)
        / (2 * mpmath.pi * math.factorial(state.n + l + D - 3))
    )


def _momentum_density_mp(state: HydrogenicState, p):
    l, L = state.l, state.L
    coeffs = [_mp(c) for c in reversed(gegenbauer(state.n - l - 1, L + 1).coeffs)]
    u = (_mp(state.eta) * p / _mp(state.Z)) ** 2
    poly = mpmath.polyval(coeffs, (1 - u) / (1 + u))
    return _momentum_norm_mp(state) * u**l * (1 + u) ** (-(2 * _mp(L) + 4)) * poly**2


MOMENTUM_STATES = [
    HydrogenicState(3, 2, (1, 0), 1),
    HydrogenicState(4, 5, (2, 1, -1), F(3, 2)),
    HydrogenicState(2, 4, (-3,), F(1, 3)),
]


class TestMomentumDensity:
    """The one radial momentum density against 50 digits."""

    @pytest.mark.parametrize("p", [1e-3, 0.7, 2.0, 1e10, 1e160, 1e300])
    @pytest.mark.parametrize("state", MOMENTUM_STATES, ids=str)
    def test_over_the_whole_range(self, state, p):
        # u = (eta p / Z)^2 overflowed past p ~ 1e154
        with mpmath.workdps(50):
            exact = _momentum_density_mp(state, mpmath.mpf(p))
            log_exact = float(mpmath.log(exact))
            exact = float(exact)
        log_density = radial_momentum_log_density(state)
        assert log_density(p) == pytest.approx(log_exact, rel=1e-13)
        assert radial_density_momentum(state, p) == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("state", MOMENTUM_STATES, ids=str)
    def test_norm_is_exact(self, state):
        k2 = radial_momentum_norm_squared(state)
        assert k2.is_positive_monomial
        with mpmath.workdps(50):
            assert to_mpf(k2, 170) == pytest.approx(_momentum_norm_mp(state), rel=1e-45)


def _radial_quad(fn, state, scale):
    # the oracle's rule stops at a relative error; the float densities could
    # never reach an absolute target set by the working precision
    value, _ = oracle._quad(
        lambda r: fn(state, float(r)) * r ** (state.D - 1),
        [0, scale, 8 * scale, mpmath.inf],
    )
    return float(value)


class TestNormalization:
    @pytest.mark.parametrize("D", [2, 3, 4, 5])
    def test_position_normalized(self, D):
        for n in range(1, 5):
            for l in range(n):
                chain = (l,) * (D - 1)
                state = HydrogenicState(D, n, chain, F(3, 2))
                value = _radial_quad(
                    radial_density_position, state, float(4 * state.lam * state.eta)
                )
                assert value == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("D", [2, 3, 4, 5])
    def test_momentum_normalized(self, D):
        for n in range(1, 5):
            for l in range(n):
                chain = (l,) * (D - 1)
                state = HydrogenicState(D, n, chain, F(3, 2))
                value = _radial_quad(
                    radial_density_momentum, state, float(state.Z / state.eta)
                )
                assert value == pytest.approx(1.0, rel=1e-10)

    def test_angular_normalized(self):
        # factorized sphere integral of |Y|^2 via the oracle helper at q=1
        from hydrenyi.oracle import angular_power_integral

        for D, chain in [(3, (2, 1)), (4, (2, 1, 0)), (5, (1, 1, 1, -1)), (2, (2,))]:
            log_value, _ = angular_power_integral(D, chain, 1.0)
            assert math.exp(log_value) == pytest.approx(1.0, rel=1e-12)


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_states(3, 4)) == 30
        assert sum(1 for _ in enumerate_states(2, 4)) == 16
        assert sum(1 for _ in enumerate_states(5, 4)) == 77

    def test_all_valid(self):
        for state in enumerate_states(5, 3):
            validate(state)

    def test_closed_count_matches_enumeration(self):
        for D in range(2, 8):
            for n_max in range(-1, 7):
                assert count_states(D, n_max) == sum(1 for _ in enumerate_states(D, n_max))
