import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from hydrenyi import entropy, exactnum
from hydrenyi.exactnum import (
    ExactScalar,
    gamma_exact,
    gamma_integers,
    log_float,
    log_float_parts,
    log_ratio,
    parse_scalar,
    pochhammer,
)

from reference import to_float

F = Fraction


def scalar(half, coef):
    return ExactScalar.pi_power(half, F(coef))


class TestGammaExact:
    def test_integer_is_factorial(self):
        assert gamma_exact(3) == ExactScalar(2)
        assert gamma_exact(1) == ExactScalar(1)
        assert gamma_exact(7) == ExactScalar(720)

    def test_half_gives_sqrt_pi(self):
        assert gamma_exact(F(1, 2)) == scalar(1, 1)

    def test_thirteen_halves(self):
        # repeated Gamma(z+1) = z Gamma(z) down from Gamma(1/2)
        assert gamma_exact(F(13, 2)) == scalar(1, F(10395, 64))

    @pytest.mark.parametrize("bad", [0, -1, F(-1, 2)])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            gamma_exact(bad)

    def test_quarter_rejected(self):
        with pytest.raises(ValueError):
            gamma_exact(F(1, 4))

    def test_integer_form(self):
        # the oracle's Gamma against gamma_exact, the closed forms' own
        # _ExactLedger.gamma and mpmath, in lowest terms
        with mpmath.workdps(60):
            for twice in range(1, 401):
                num, den, half = gamma_integers(twice)
                assert math.gcd(num, den) == 1 and half == twice % 2
                value = F(num, den)
                assert ExactScalar.pi_power(half, value) == gamma_exact(F(twice, 2))
                ledger = entropy._ExactLedger()
                ledger.gamma(twice, 1)
                assert (F(ledger.num, ledger.den), ledger.half) == (value, half)
                approx = mpmath.mpf(num) / den * mpmath.sqrt(mpmath.pi) ** half
                exact = mpmath.gamma(mpmath.mpf(twice) / 2)
                assert abs(approx / exact - 1) < mpmath.mpf(10) ** -50

    @pytest.mark.parametrize("twice", [0, -1, -2])
    def test_integer_form_nonpositive_rejected(self, twice):
        with pytest.raises(ValueError, match="positive argument"):
            gamma_integers(twice)

    @given(st.integers(min_value=1, max_value=100))
    def test_recurrence(self, twice):
        x = F(twice, 2)
        lhs = gamma_exact(F(twice + 2, 2))
        rhs = ExactScalar(x) * gamma_exact(x)
        assert lhs == rhs


class TestPochhammer:
    def test_negative_integer_truncates(self):
        assert pochhammer(-2, 3) == 0

    def test_empty_product(self):
        assert pochhammer(5, 0) == 1

    def test_half_integer(self):
        assert pochhammer(F(3, 2), 2) == F(15, 4)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(2, -1)

    @given(
        st.fractions(min_value=-10, max_value=10, max_denominator=6),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
    )
    def test_composition(self, z, k, m):
        assert pochhammer(z, k) * pochhammer(z + k, m) == pochhammer(z, k + m)

    def test_matches_gamma_ratio(self):
        for z in (1, 2, F(5, 2), F(7, 2)):
            for k in range(5):
                ratio = gamma_exact(F(z) + k) / gamma_exact(z)
                assert ratio == ExactScalar(pochhammer(z, k))

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 9])
    @pytest.mark.parametrize(
        "z", [0, 1, -3, 4, F(-5, 2), F(-1, 2), F(1, 2), F(7, 3), F(-7, 3), F(-11, 6)]
    )
    def test_matches_factor_by_factor_product(self, z, k):
        # k = 0, products through zero (z = 0, -3) and negative half-integers
        expected = F(1)
        for i in range(k):
            expected *= F(z) + i
        value = pochhammer(z, k)
        assert type(value) is Fraction
        assert value == expected


# coefficients with zero among them, half-exponents odd, even and negative
coefficients = st.one_of(
    st.just(F(0)), st.fractions(min_value=-50, max_value=50, max_denominator=12)
)
scalars = st.builds(ExactScalar.pi_power, st.integers(min_value=-9, max_value=9), coefficients)
nonzero_scalars = scalars.filter(bool)
exponents = st.integers(min_value=-4, max_value=4)


class TestExactScalar:
    def test_sqrt_pi_squares_to_pi(self):
        assert scalar(1, 2) * scalar(1, 3) == scalar(2, 6)

    def test_table_argument_inversion(self):
        value = scalar(-4, F(33, 16))
        assert value ** -1 == scalar(4, F(16, 33))

    def test_monomial_negative_power(self):
        assert scalar(2, 2) ** -2 == scalar(-4, F(1, 4))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ExactScalar(1) / ExactScalar(0)
        with pytest.raises(ZeroDivisionError):
            ExactScalar(0) ** -1

    @given(scalars, scalars)
    def test_commutative(self, a, b):
        assert a * b == b * a

    @given(scalars, scalars, scalars, exponents)
    def test_associative_distributive(self, a, b, c, k):
        # products associate, and a nonnegative power distributes over them
        assert (a * b) * c == a * (b * c)
        assert (a * b) ** abs(k) == a ** abs(k) * b ** abs(k)

    @given(nonzero_scalars, exponents, exponents)
    def test_inverse_and_powers(self, x, a, b):
        assert x * x.inverse() == 1
        assert x / x == ExactScalar(1)
        assert (x**a) ** b == x ** (a * b)

    @given(scalars, scalars)
    def test_equality_and_hash_agree(self, a, b):
        r, half = a.monomial()
        fresh = ExactScalar.pi_power(half, r)
        assert fresh == a and hash(fresh) == hash(a)
        assert (a == b) == (a.monomial() == b.monomial())
        if a == b:
            assert hash(a) == hash(b)

    def test_zero_has_one_form(self):
        zero = ExactScalar(0)
        for other in (ExactScalar.pi_power(3, 0), ExactScalar.pi_power(-4, 0), scalar(5, 2) * 0):
            assert other == zero and hash(other) == hash(zero)
            assert other.monomial() == (F(0), 0)
        assert ExactScalar.pi_power(3, 0) == 0

    @given(scalars, scalars)
    def test_results_are_canonical(self, a, b):
        # every result holds a Fraction coefficient, and zero at exponent 0
        for result in (a * b, a * 3, F(2, 7) * a):
            r, half = result.monomial()
            assert type(r) is Fraction
            assert r or half == 0
            assert result == ExactScalar.pi_power(half, r)

    def test_constructors_drop_zero(self):
        assert ExactScalar.from_rational(0).terms() == ()
        assert ExactScalar.pi_power(3, 0).terms() == ()
        assert ExactScalar.pi_power(3, F(2, 4)).terms() == ((3, F(1, 2)),)
        assert ExactScalar.from_rational(7).terms() == ((0, F(7)),)


class TestToFloat:
    def test_eight_pi(self):
        assert to_float(scalar(2, 8)) == pytest.approx(25.132741228718345, abs=1e-14)

    def test_table_two_argument(self):
        assert to_float(scalar(4, F(16, 33))) == pytest.approx(
            4.785262739922113, abs=1e-14
        )

    def test_zero(self):
        assert to_float(ExactScalar(0)) == 0.0

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            to_float(ExactScalar(1), precision_bits=32)

    @given(nonzero_scalars, nonzero_scalars)
    def test_multiplicative_within_ulps(self, a, b):
        fa, fb = to_float(a), to_float(b)
        combined = to_float(a * b)
        # each factor and the product are rounded once
        assert abs(combined - fa * fb) <= 4 * math.ulp(abs(combined))


# W of every size an exact request meets, and far smaller and larger ones
monomials = st.builds(
    lambda num, den, half: ExactScalar.pi_power(half, F(num, den)),
    st.integers(min_value=1, max_value=2**2000),
    st.integers(min_value=1, max_value=2**2000),
    st.integers(min_value=-40, max_value=40),
)


# x of a drawn bit length: Hypothesis alone draws mostly small integers
def _of_bits(top: int):
    return st.builds(
        lambda bits, low: (1 << bits) | (low & ((1 << bits) - 1)),
        st.integers(min_value=1, max_value=top),
        st.integers(min_value=0, max_value=2**top),
    )


# W within 1/x of 1, where ln W is about 1/x and r - 1 must stay exact
near_one = st.builds(
    lambda x, sign: ExactScalar(1 + F(sign, x)), _of_bits(400), st.sampled_from([-1, 1])
)


def _near_pi_power(half: int, den: int, nudge: int) -> ExactScalar:
    """r pi^(half/2) with r a rational of denominator den next to
    pi^(-half/2), so that ln r and (half/2) ln pi cancel to about
    1/den."""
    with mpmath.workprec(den.bit_length() + 100):
        num = int(mpmath.nint(mpmath.pi ** (-mpmath.mpf(half) / 2) * den))
    return ExactScalar.pi_power(half, F(max(1, num + nudge), den))


cancelling = st.builds(
    _near_pi_power,
    st.integers(min_value=-40, max_value=40).filter(bool),
    _of_bits(800),
    st.integers(min_value=-2, max_value=2),
)
log_arguments = st.one_of(monomials, near_one, cancelling)


# (num, den) up to 3,000 bits, half of them with num/den within 2^-200 of 1
# (or equal); the test multiplies both by a common factor
ratios = st.one_of(
    st.tuples(_of_bits(3000), _of_bits(3000)),
    st.builds(
        lambda num, gap, sign: (num, num + sign * (num >> gap)),
        _of_bits(3000),
        st.integers(min_value=200, max_value=3000),
        st.sampled_from([-1, 1]),
    ),
)


def _ln_w(a: ExactScalar) -> mpmath.mpf:
    r, half = a.monomial()
    with mpmath.workprec(1100):
        return mpmath.log(r.numerator) - mpmath.log(r.denominator) + half * mpmath.log(mpmath.pi) / 2


class TestLogFloat:
    @given(log_arguments)
    def test_nearest_float(self, a):
        assert log_float(a) == float(_ln_w(a))

    @given(log_arguments)
    def test_parts_carry_the_log_past_one_float(self, a):
        # hi is the nearest float, lo the nearest float to the rest, so
        # hi + lo misses ln W by no more than half an ulp of lo, at every
        # magnitude of ln W
        hi, lo = log_float_parts(a)
        expected = _ln_w(a)
        assert hi == log_float(a)
        assert abs(lo) <= 0.5 * math.ulp(hi)
        with mpmath.workprec(1100):
            miss = abs(mpmath.mpf(hi) + mpmath.mpf(lo) - expected)
        assert miss <= 0.5 * math.ulp(lo)

    def test_constants_match_mpmath(self):
        with mpmath.workprec(1100):
            scale = mpmath.mpf(2) ** exactnum._CONST_BITS
            assert exactnum._LN2 == int(mpmath.floor(mpmath.log(2) * scale))
            assert exactnum._LN_PI == int(mpmath.floor(mpmath.log(mpmath.pi) * scale))

    def test_cancellation_past_the_constants_is_refused(self):
        # ln W of about 2^-1000 needs ln pi beyond its 1024 bits; W = 1, and
        # a rational W as near 1, need neither constant
        with pytest.raises(ValueError, match="do not settle"):
            log_float(_near_pi_power(2, 2**1000 + 1, 0))
        assert log_float_parts(ExactScalar(1)) == (0.0, 0.0)
        assert log_float(ExactScalar(1 + F(1, 2**1000))) == math.ldexp(1, -1000)

    @given(ratios, _of_bits(3000), st.integers(min_value=-9, max_value=9))
    def test_unreduced_integers_log_as_their_ratio(self, ratio, g, half):
        num, den = ratio
        a = ExactScalar.pi_power(half, F(num, den))
        assert log_ratio(g * num, g * den, half) == log_float_parts(a)
        assert log_ratio(g * num, g * den, half, False) == (log_float(a), 0.0)
        for bad in ((0, g * den), (-g * num, g * den), (g * num, -g * den), (g * num, 0)):
            with pytest.raises(ValueError, match="non-positive"):
                log_ratio(*bad, half)

    def test_rejects_what_has_no_log(self):
        for a in (ExactScalar(0), scalar(1, -2)):
            with pytest.raises(ValueError, match="non-positive"):
                log_float(a)
            with pytest.raises(ValueError, match="non-positive"):
                log_float_parts(a)


class TestRendering:
    @pytest.mark.parametrize(
        "value,text",
        [
            (ExactScalar(0), "0"),
            (ExactScalar(F(2048, 5)) * scalar(2, 1), "2048/5*pi"),
            (scalar(4, F(16, 33)), "16/33*pi^2"),
            (scalar(1, 1), "pi^(1/2)"),
            (scalar(-1, F(-3, 2)), "-3/2*pi^(-1/2)"),
        ],
    )
    def test_render(self, value, text):
        assert value.render() == text
        assert parse_scalar(text) == value

    @given(scalars)
    def test_round_trip(self, a):
        assert parse_scalar(a.render()) == a

    @pytest.mark.parametrize(
        "text",
        ["1 - pi", "2*pi^(-2) + 1/7*pi^(3/2)", "1 + pi^(1/2)", "pi + pi^2", "-pi - 1", ""],
    )
    def test_sums_are_rejected(self, text):
        with pytest.raises(ValueError):
            parse_scalar(text)
