import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from hydrenyi import entropy
from hydrenyi.exactnum import (
    ExactScalar,
    HalfInt,
    gamma_exact,
    gamma_integers,
    parse_scalar,
    pochhammer,
    to_float,
)

F = Fraction


def scalar(*terms):
    return ExactScalar({k: F(r) for k, r in terms})


class TestGammaExact:
    def test_integer_is_factorial(self):
        assert gamma_exact(3) == ExactScalar(2)
        assert gamma_exact(1) == ExactScalar(1)
        assert gamma_exact(7) == ExactScalar(720)

    def test_half_gives_sqrt_pi(self):
        assert gamma_exact(F(1, 2)) == scalar((1, 1))

    def test_thirteen_halves(self):
        # repeated Gamma(z+1) = z Gamma(z) down from Gamma(1/2)
        assert gamma_exact(F(13, 2)) == scalar((1, F(10395, 64)))

    @pytest.mark.parametrize("bad", [0, -1, F(-1, 2)])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            gamma_exact(bad)

    def test_quarter_rejected(self):
        with pytest.raises(ValueError):
            gamma_exact(F(1, 4))

    def test_integer_form(self):
        # the oracle's Gamma against gamma_exact, the closed forms' own
        # _gamma_parts and mpmath, in lowest terms
        with mpmath.workdps(60):
            for twice in range(1, 401):
                num, den, half = gamma_integers(twice)
                assert math.gcd(num, den) == 1 and half == twice % 2
                value = F(num, den)
                assert ExactScalar.pi_power(half, value) == gamma_exact(F(twice, 2))
                parts_num, parts_den, parts_half = entropy._gamma_parts(twice)
                assert (F(parts_num, parts_den), parts_half) == (value, half)
                approx = mpmath.mpf(num) / den * mpmath.sqrt(mpmath.pi) ** half
                exact = mpmath.gamma(mpmath.mpf(twice) / 2)
                assert abs(approx / exact - 1) < mpmath.mpf(10) ** -50

    @pytest.mark.parametrize("twice", [0, -1, -2])
    def test_integer_form_nonpositive_rejected(self, twice):
        with pytest.raises(ValueError, match="positive argument"):
            gamma_integers(twice)

    @given(st.integers(min_value=1, max_value=100))
    def test_recurrence(self, twice):
        x = HalfInt(twice)
        lhs = gamma_exact(F(twice + 2, 2))
        rhs = ExactScalar(x.value) * gamma_exact(x)
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


small_fraction = st.fractions(min_value=-50, max_value=50, max_denominator=12)
scalars = st.dictionaries(
    st.integers(min_value=-4, max_value=4), small_fraction, max_size=4
).map(ExactScalar)


class TestExactScalar:
    def test_sqrt_pi_squares_to_pi(self):
        assert scalar((1, 2)) * scalar((1, 3)) == scalar((2, 6))

    def test_cancellation_prunes_zero_terms(self):
        left = ExactScalar(1) + scalar((1, 1))
        assert left + scalar((1, -1)) == ExactScalar(1)

    def test_table_argument_inversion(self):
        value = scalar((-4, F(33, 16)))
        assert value ** -1 == scalar((4, F(16, 33)))

    def test_division_requires_monomial(self):
        two_terms = ExactScalar(1) + scalar((1, 1))
        with pytest.raises(ValueError):
            ExactScalar(1) / two_terms
        with pytest.raises(ZeroDivisionError):
            ExactScalar(1) / ExactScalar(0)

    def test_monomial_negative_power(self):
        assert scalar((2, 2)) ** -2 == scalar((-4, F(1, 4)))

    def test_nonmonomial_negative_power_rejected(self):
        with pytest.raises(ValueError):
            (ExactScalar(1) + scalar((1, 1))) ** -1

    @given(scalars, scalars)
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(scalars, scalars, scalars)
    def test_associative_distributive(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(scalars)
    def test_additive_identity_inverse(self, a):
        assert a + ExactScalar(0) == a
        assert a + (-a) == ExactScalar(0)

    def test_cancelling_sum_and_product_store_no_zero_term(self):
        one_plus = ExactScalar(1) + scalar((1, 1))
        one_minus = ExactScalar(1) + scalar((1, -1))
        product = one_plus * one_minus  # the sqrt(pi) terms cancel
        assert product.terms() == ((0, F(1)), (2, F(-1)))
        total = scalar((1, F(2, 3)), (4, 5)) + scalar((1, F(-2, 3)))
        assert total.terms() == ((4, F(5)),)
        assert (one_plus - one_plus).terms() == ()

    @given(scalars, scalars)
    def test_results_are_canonical(self, a, b):
        # against a term map summed raw and canonicalised by the constructor
        raw_sum: dict[int, Fraction] = {}
        raw_product: dict[int, Fraction] = {}
        for k, r in a.terms() + b.terms():
            raw_sum[k] = raw_sum.get(k, F(0)) + r
        for ka, ra in a.terms():
            for kb, rb in b.terms():
                raw_product[ka + kb] = raw_product.get(ka + kb, F(0)) + ra * rb
        for result, raw in ((a + b, raw_sum), (a * b, raw_product)):
            fresh = ExactScalar(raw)
            assert all(type(r) is Fraction and r != 0 for _, r in result.terms())
            assert result == fresh
            assert hash(result) == hash(fresh)
        for result in (-a, a - b):
            assert all(r != 0 for _, r in result.terms())
            assert result == ExactScalar(dict(result.terms()))

    def test_constructors_drop_zero(self):
        assert ExactScalar.from_rational(0).terms() == ()
        assert ExactScalar.pi_power(3, 0).terms() == ()
        assert ExactScalar.pi_power(3, F(2, 4)).terms() == ((3, F(1, 2)),)
        assert ExactScalar.from_rational(7).terms() == ((0, F(7)),)


class TestToFloat:
    def test_eight_pi(self):
        assert to_float(scalar((2, 8))) == pytest.approx(25.132741228718345, abs=1e-14)

    def test_table_two_argument(self):
        assert to_float(scalar((4, F(16, 33)))) == pytest.approx(
            4.785262739922113, abs=1e-14
        )

    def test_zero(self):
        assert to_float(ExactScalar(0)) == 0.0

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            to_float(ExactScalar(1), precision_bits=32)

    @given(scalars, scalars)
    def test_additive_within_ulps(self, a, b):
        fa, fb = to_float(a), to_float(b)
        combined = to_float(a + b)
        # ulp at the scale of the addends; cancellation cannot do better
        tolerance = 4 * math.ulp(max(abs(fa), abs(fb), abs(combined), 1e-300))
        assert abs(combined - (fa + fb)) <= tolerance


class TestRendering:
    @pytest.mark.parametrize(
        "value,text",
        [
            (ExactScalar(0), "0"),
            (ExactScalar(F(2048, 5)) * scalar((2, 1)), "2048/5*pi"),
            (scalar((4, F(16, 33))), "16/33*pi^2"),
            (scalar((1, 1)), "pi^(1/2)"),
            (scalar((-1, F(-3, 2))), "-3/2*pi^(-1/2)"),
            (scalar((0, 1), (2, -1)), "1 - pi"),
            (scalar((-4, 2), (3, F(1, 7))), "2*pi^(-2) + 1/7*pi^(3/2)"),
        ],
    )
    def test_render(self, value, text):
        assert value.render() == text
        assert parse_scalar(text) == value

    @given(scalars)
    def test_round_trip(self, a):
        assert parse_scalar(a.render()) == a

    def test_terms_sorted_ascending(self):
        value = scalar((3, 1), (-2, 1), (0, 5))
        ks = [k for k, _ in value.terms()]
        assert ks == sorted(ks)
