import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from hydrenyi import oracle
from hydrenyi.exactnum import ExactScalar, gamma_exact, pochhammer
from hydrenyi.polynomials import (
    PolyExact,
    gegenbauer,
    gegenbauer_log_abs,
    laguerre,
    laguerre_log_abs,
    poly_pow,
)

from reference import (
    gegenbauer_as_jacobi,
    jacobi,
    jacobi_power_linearization,
    laguerre_power_linearization,
)

F = Fraction


def expand_in_basis(target: PolyExact, basis: list[PolyExact]) -> list[Fraction]:
    """Solve target = sum_i c_i basis[i] by back substitution; the basis is
    graded (degree of basis[i] is i), so the system is triangular."""
    coeffs = [F(0)] * len(basis)
    residue = target
    for i in range(len(basis) - 1, -1, -1):
        lead = residue.coeff(i)
        if lead:
            c = lead / basis[i].coeff(i)
            coeffs[i] = c
            residue = residue - basis[i] * c
    assert residue == PolyExact([]), "basis could not absorb the target"
    return coeffs


def monomial_sum(parts) -> ExactScalar:
    """Sum of monomials that share one power of pi: their coefficients add.
    Zero parts carry no power of pi and are skipped."""
    total, half = F(0), None
    for part in parts:
        r, k = part.monomial()
        if not r:
            continue
        assert half is None or k == half, (k, half)
        total, half = total + r, k
    return ExactScalar.pi_power(half or 0, total)


def laguerre_weight_integral(poly: PolyExact, alpha: Fraction) -> ExactScalar:
    """Exact integral of poly(x) x^alpha e^-x over (0, inf) for integer alpha."""
    return monomial_sum(
        gamma_exact(F(alpha) + k + 1) * c for k, c in enumerate(poly.coeffs) if c
    )


def jacobi_weight_integral(poly: PolyExact, a: Fraction, b: Fraction) -> ExactScalar:
    """Exact integral of poly(x) (1-x)^a (1+x)^b over (-1, 1)."""
    a, b = F(a), F(b)
    parts = []
    for m, coeff in enumerate(poly.coeffs):
        if not coeff:
            continue
        # x^m = ((1+x) - 1)^m expanded in shifted powers
        for k in range(m + 1):
            shifted = coeff * math.comb(m, k) * F(-1) ** (m - k)
            exponent = a + b + k + 1
            parts.append(
                ExactScalar.from_rational(F(2) ** exponent.numerator * shifted)
                * gamma_exact(a + 1)
                * gamma_exact(b + k + 1)
                / gamma_exact(a + b + k + 2)
            )
    return monomial_sum(parts)


class TestLaguerre:
    def test_constant(self):
        assert laguerre(0, 2) == PolyExact([1])

    def test_linear(self):
        assert laguerre(1, 2) == PolyExact([3, -1])

    def test_quadratic(self):
        assert laguerre(2, 0) == PolyExact([1, -2, F(1, 2)])

    def test_parameter_bound_and_forms(self):
        # alpha > -1, from an int, a Fraction, a float or a string alike
        for alpha in (-1, F(-1), F(-3, 2), -1.0, "-1", F(-7, 5)):
            with pytest.raises(ValueError, match="alpha > -1"):
                laguerre(2, alpha)
        assert laguerre(1, F(-999, 1000)) == PolyExact([F(1, 1000), -1])
        for alpha in (0.5, "1/2", False):
            assert laguerre(3, alpha) == laguerre(3, F(alpha))

    def test_orthogonality_and_norm(self):
        alpha = F(3)
        for m in range(7):
            for n in range(m, 7):
                product = laguerre(m, alpha) * laguerre(n, alpha)
                integral = laguerre_weight_integral(product, alpha)
                if m != n:
                    assert integral == ExactScalar(0)
                else:
                    expected = gamma_exact(n + alpha + 1) / ExactScalar(
                        math.factorial(n)
                    )
                    assert integral == expected


class TestGegenbauer:
    def test_constant(self):
        assert gegenbauer(0, 1) == PolyExact([1])

    def test_linear(self):
        assert gegenbauer(1, 1) == PolyExact([0, 2])

    def test_quadratic(self):
        assert gegenbauer(2, 1) == PolyExact([-1, 0, 4])

    def test_parity(self):
        for n in range(6):
            poly = gegenbauer(n, F(3, 2))
            for k, c in enumerate(poly.coeffs):
                if (n - k) % 2 == 1:
                    assert c == 0

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError):
            gegenbauer(2, 0)

    def test_parameter_bound_and_forms(self):
        # lambda > -1/2 and lambda != 0, from an int, a Fraction, a float or
        # a string alike
        for lam in (F(-1, 2), F(-3, 4), -1, "-1/2", -0.5, F(0)):
            with pytest.raises(ValueError, match="lambda > -1/2"):
                gegenbauer(3, lam)
        assert gegenbauer(0, F(-1, 2)) == PolyExact([1])
        for lam in (F(-1, 4), F(-499, 1000)):
            assert gegenbauer(3, lam).coeffs[3] == 8 * lam * (lam + 1) * (lam + 2) / 6
        for lam in (1.5, "3/2", True):
            assert gegenbauer(4, lam) == gegenbauer(4, F(lam))


def _gegenbauer_by_recurrence(k_max: int, lam: Fraction) -> list[list[Fraction]]:
    """C_0..C_k_max from (k) C_k = 2(k+lam-1) x C_(k-1) - (k+2lam-2) C_(k-2),
    as Fraction lists."""
    polys = [[F(1)], [F(0), 2 * lam]]
    for k in range(2, k_max + 1):
        prev, cur = polys[-2], polys[-1]
        nxt = [F(0)] + [F(2 * (k + lam - 1), k) * c for c in cur]
        for j, c in enumerate(prev):
            nxt[j] -= F(k + 2 * lam - 2, k) * c
        polys.append(nxt)
    return polys[: k_max + 1]


def _laguerre_by_binomials(k: int, alpha: Fraction) -> list[Fraction]:
    """(-1)^j binom(k+alpha, k-j) / j! with the binomial as a Pochhammer ratio."""
    return [
        F(-1) ** j * pochhammer(alpha + j + 1, k - j) / math.factorial(k - j) / math.factorial(j)
        for j in range(k + 1)
    ]


def _trimmed(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return tuple(coeffs)


class TestIntegerConstructions:
    """The explicit-sum constructions in integers against the Fraction
    recurrence and binomial formula, with zero tolerance."""

    @pytest.mark.parametrize(
        "lam", [F(1), F(2), F(5), F(1, 2), F(3, 2), F(7, 2), F(1, 3), F(-1, 4), F(5, 7)]
    )
    def test_gegenbauer_matches_recurrence(self, lam):
        for k, reference in enumerate(_gegenbauer_by_recurrence(30, lam)):
            assert gegenbauer(k, lam).coeffs == _trimmed(reference), k

    @pytest.mark.parametrize(
        "alpha", [F(0), F(1), F(4), F(1, 2), F(-1, 2), F(2, 3), F(-5, 7), F(13, 4)]
    )
    def test_laguerre_matches_binomials(self, alpha):
        for k in range(31):
            assert laguerre(k, alpha).coeffs == _trimmed(_laguerre_by_binomials(k, alpha)), k

    def test_lowest_terms(self):
        # one common denominator, shared by no prime with every numerator
        for poly in (laguerre(12, F(2, 3)), gegenbauer(9, F(5, 2)), PolyExact([F(2, 4), 3])):
            assert poly.den > 0
            assert math.gcd(poly.den, *poly.nums) == 1
            assert poly == PolyExact(poly.coeffs)
        assert PolyExact.over([6, 0, 4, 0], 8) == PolyExact([F(3, 4), 0, F(1, 2)])
        assert PolyExact.over([0, 0], 5) == PolyExact([]) and PolyExact([]).degree == -1

    def test_translate_substitutes(self):
        poly = PolyExact([F(3, 4), F(-2), F(0), F(5, 6), F(1, 7)])
        for c in (-3, -1, 0, 2):
            moved = poly.translate(c)
            for x in (F(-2), F(1, 3), F(5)):
                assert _value(moved, x) == _value(poly, x + c)


def _value(poly: PolyExact, x: Fraction) -> Fraction:
    return sum((c * x**k for k, c in enumerate(poly.coeffs)), F(0))


class TestJacobi:
    def test_constant(self):
        assert jacobi(0, 1, 1) == PolyExact([1])

    def test_legendre_linear(self):
        assert jacobi(1, 0, 0) == PolyExact([0, 1])

    def test_half_parameters(self):
        assert jacobi(1, F(1, 2), F(1, 2)) == PolyExact([0, F(3, 2)])

    def test_orthogonality_matches_displayed_norm(self):
        a, b = F(1, 2), F(3, 2)
        for m in range(5):
            for n in range(m, 5):
                product = jacobi(m, a, b) * jacobi(n, a, b)
                integral = jacobi_weight_integral(product, a, b)
                if m != n:
                    assert integral == ExactScalar(0)
                else:
                    expected = (
                        ExactScalar.from_rational(F(2) ** int(a + b + 1))
                        * gamma_exact(a + n + 1)
                        * gamma_exact(b + n + 1)
                        / (
                            ExactScalar(math.factorial(n))
                            * (a + b + 2 * n + 1)
                            * gamma_exact(a + b + n + 1)
                        )
                    )
                    assert integral == expected


class TestGegenbauerJacobiBridge:
    @pytest.mark.parametrize("lam", [F(1, 2), F(1), F(3, 2), F(2)])
    def test_coefficientwise_up_to_eight(self, lam):
        for kappa in range(9):
            scale, poly = gegenbauer_as_jacobi(kappa, lam)
            assert poly * scale == gegenbauer(kappa, lam)

    def test_zeroth_is_identity(self):
        scale, poly = gegenbauer_as_jacobi(0, F(5, 2))
        assert poly * scale == PolyExact([1])


class TestPolyPow:
    def test_binomial_square(self):
        assert poly_pow(PolyExact([1, 1]), 2) == PolyExact([1, 2, 1])

    def test_monomial_cube(self):
        assert poly_pow(PolyExact([0, 1]), 3) == PolyExact([0, 0, 0, 1])

    def test_laguerre_fourth_power_leading_coeff(self):
        power = poly_pow(laguerre(1, 2), 4)
        assert power.degree == 4
        assert power.coeff(4) == 1

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            poly_pow(PolyExact([1, 1]), 0)

    @given(
        st.lists(
            st.one_of(
                st.just(F(0)), st.fractions(min_value=-20, max_value=20, max_denominator=30)
            ),
            max_size=8,
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_matches_repeated_product(self, coeffs, r):
        # zero coefficients, trailing ones trimmed, and the zero polynomial
        p = PolyExact(coeffs)
        assert poly_pow(p, r) == p**r

    @given(
        st.sampled_from(["laguerre", "gegenbauer", "translated gegenbauer"]),
        st.integers(min_value=0, max_value=8),
        st.fractions(min_value=F(1, 2), max_value=12, max_denominator=2),
        st.integers(min_value=1, max_value=8),
    )
    def test_oracle_polynomials_match_repeated_product(self, family, k, param, r):
        # odd and even Gegenbauer degrees; odd ones vanish at 0
        if family == "laguerre":
            p = laguerre(k, param)
        else:
            p = gegenbauer(k, param)
            if family == "translated gegenbauer":
                p = p.translate(-1)
        assert poly_pow(p, r) == p**r

    def test_gegenbauer_power_keeps_its_parity(self):
        power = poly_pow(gegenbauer(5, F(7, 2)), 6)
        assert power == gegenbauer(5, F(7, 2)) ** 6
        assert not any(power.coeffs[1::2])


class TestLaguerrePowerLinearization:
    def test_constant_polynomial(self):
        coeffs = laguerre_power_linearization(0, 3, F(1, 2), 0, 1, 2, 4)
        assert coeffs[0] == 1
        assert all(c == 0 for c in coeffs[1:])

    def test_identity_expansion(self):
        for k in range(4):
            coeffs = laguerre_power_linearization(0, 1, 1, k, F(3, 2), F(3, 2), k + 2)
            expected = [F(1) if i == k else F(0) for i in range(k + 3)]
            assert coeffs == expected

    def test_example_reconstruction(self):
        a, r, t, k, alpha, gamma = 2, 2, F(1, 2), 1, F(1), F(1)
        i_max = a + r * k
        coeffs = laguerre_power_linearization(a, r, t, k, alpha, gamma, i_max)
        target = poly_pow(laguerre(k, alpha).scale_arg(t), r).shift_degree(a)
        basis = [laguerre(i, gamma) for i in range(i_max + 1)]
        assert coeffs == expand_in_basis(target, basis)

    def test_zeroth_power_expands_the_monomial(self):
        coeffs = laguerre_power_linearization(2, 0, F(1, 2), 3, 1, F(1, 2), 2)
        target = PolyExact([0, 0, 1])
        basis = [laguerre(i, F(1, 2)) for i in range(3)]
        assert coeffs == expand_in_basis(target, basis)

    def test_truncation_sees_zero_tail(self):
        coeffs = laguerre_power_linearization(1, 2, F(1, 3), 1, 2, F(5, 2), 6)
        assert all(c == 0 for c in coeffs[4:])


class TestJacobiPowerLinearization:
    def test_constant_polynomial(self):
        coeffs = jacobi_power_linearization(0, 2, 1, 1, F(1, 2), F(1, 2), 3)
        assert coeffs[0] == 1
        assert all(c == 0 for c in coeffs[1:])

    def test_legendre_square(self):
        coeffs = jacobi_power_linearization(1, 1, 0, 0, 0, 0, 2)
        assert coeffs == [F(1, 3), F(0), F(2, 3)]

    def test_angular_zero_coefficient_against_power(self):
        # the entropy route keeps only i = 0; check it against the exact
        # weighted integral of the direct power
        kappa, q = 2, 2
        alpha = beta = F(1, 2)
        gamma = delta = F(3, 2)
        c0 = jacobi_power_linearization(kappa, q, alpha, beta, gamma, delta, 0)[0]
        power = poly_pow(jacobi(kappa, alpha, beta), 2 * q)
        integral = jacobi_weight_integral(power, gamma, delta)
        norm0 = jacobi_weight_integral(PolyExact([1]), gamma, delta)
        assert integral == norm0 * c0


def _exact_log_abs(poly: PolyExact, x: float) -> float:
    value = abs(sum((c * F(x) ** i for i, c in enumerate(poly.coeffs)), F(0)))
    return math.log(value.numerator) - math.log(value.denominator)


# The recurrences lose accuracy only next to a zero, where |P| is small
# against its terms; they are checked halfway between zeros and outside the
# zeros.  The logarithm of P is compared relatively where it exceeds 1 in
# size, so at large arguments the bound is on ln|P|, which is what a float
# can hold there.  Worst measured: 1.4e-13 at degree 20.
RECURRENCE_TOL = 2e-13


class TestFloatRecurrences:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 14, 20])
    @pytest.mark.parametrize("alpha", [0, 1, 3, 8, 30])
    def test_laguerre_against_exact(self, n, alpha):
        log_abs, poly = laguerre_log_abs(n, alpha), laguerre(n, alpha)
        zeros = oracle._laguerre_nodes(n, F(alpha))
        xs = [(a + b) / 2 for a, b in zip(zeros, zeros[1:])]
        xs += [zeros[0] / 2] if zeros else [0.5]
        xs += [x for x in (10.0**e for e in range(0, 301, 10)) if not zeros or x > 2 * zeros[-1]]
        for x in xs:
            exact = _exact_log_abs(poly, x)
            assert abs(log_abs(x) - exact) <= RECURRENCE_TOL * max(1.0, abs(exact)), x

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 14, 20])
    @pytest.mark.parametrize("lam", [F(1, 2), F(1), F(3, 2), F(9, 2), F(13)])
    def test_gegenbauer_against_exact(self, n, lam):
        log_abs, poly = gegenbauer_log_abs(n, float(lam)), gegenbauer(n, lam)
        zeros = oracle._gegenbauer_nodes(n, lam)
        for x in [-1.0, 1.0] + [(a + b) / 2 for a, b in zip(zeros, zeros[1:])]:
            exact = _exact_log_abs(poly, x)
            assert abs(log_abs(x) - exact) <= RECURRENCE_TOL * max(1.0, abs(exact)), x

    @pytest.mark.parametrize("n, lam", [(429, 331.0), (519, 280.5)])
    def test_gegenbauer_past_the_float_range(self, n, lam):
        # ln C_n^(lam)(1) is 727 and 743: started at 1, the recurrence passed
        # the float range and returned NaN from y = 0.99 on
        log_abs = gegenbauer_log_abs(n, lam)
        for y in (0.5, 0.9, 0.99, 0.999999, 1.0):
            with mpmath.workdps(50):
                exact = mpmath.log(abs(mpmath.gegenbauer(n, mpmath.mpf(lam), mpmath.mpf(y))))
            assert log_abs(y) == pytest.approx(float(exact), rel=1e-15), y

    def test_laguerre_does_not_overflow(self):
        # L_11^(1)(x) ~ -x^11 / 11!: the unscaled recurrence overflows to inf
        # and then NaN long before x = 1e300
        x = 1e300
        expected = 11 * math.log(x) - math.log(math.factorial(11))
        assert laguerre_log_abs(11, 1)(x) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("alpha", [598, 998])
    def test_laguerre_start_below_the_rescale_threshold(self, alpha):
        # ln C(799+alpha, 799) + 1/2 is 1053 and 1231, so the start is 2^-654
        # and 2^-910, below the 2^-400 that triggers the rescale past x = 1:
        # rescaled on the start itself, the values overflowed to NaN there
        log_abs = laguerre_log_abs(799, alpha)
        for x in (0.5, 1.0, 1.0000001, 1.5, 10.0, 1e4):
            with mpmath.workdps(30):
                exact = float(mpmath.log(abs(mpmath.laguerre(799, alpha, x))))
            assert log_abs(x) == pytest.approx(exact, rel=1e-15), x

    def test_exact_zero_is_minus_infinity(self):
        assert gegenbauer_log_abs(3, 1.0)(0.0) == -math.inf
        assert laguerre_log_abs(1, 0)(1.0) == -math.inf


def _midpoints(zeros: list[float], around: float | None = None) -> list[float]:
    """Ten midpoints between consecutive zeros, spread over them, and the two
    on either side of around."""
    mids = [(a + b) / 2 for a, b in zip(zeros, zeros[1:])]
    picked = [mids[round(i * (len(mids) - 1) / 9)] for i in range(10)]
    if around is not None:
        picked += [m for m in mids if m <= around][-1:] + [m for m in mids if m > around][:1]
    return picked


def _scan_tolerance(k: int) -> float:
    # The recurrences' rounding grows with the degree where the parameter is
    # small, next to the outermost zeros: L_799^(0) halfway between its first
    # two zeros is off by 2.0e-12 and C_600^(1/2) next to its last by 1.3e-12,
    # 0.70 and 0.63 of this bound.  From parameter 7/2 on, and at every point
    # whose start is 2^-e with e > 0, the worst measured is 3.0e-15.
    return max(1e-13, k * 2.0**-48)


def _scan_cases(tier1, params, *slow_extra):
    """The tier1 (k, parameter) pairs, and under slow each k of 10 to 799
    with params(k), the parameters that n <= MAX_FLOAT_N reaches for D <= 8,
    and slow_extra."""
    grid = [(k, p) for k in (10, 100, 250, 418, 600, 799) for p in params(k)]
    slow = [case for case in grid if case not in tier1] + list(slow_extra)
    return [pytest.param(k, p, id=f"{k}-{p}") for k, p in tier1] + [
        pytest.param(k, p, id=f"{k}-{p}", marks=pytest.mark.slow) for k, p in slow
    ]


# alpha = 2l + D - 2 with l = n - k - 1 reaches 2(799 - k) + 6 at n = 800,
# D = 8.  The bound ln C(k+alpha, k) + 1/2 passes 600, so that e > 0, at
# (250, 1104), (418, 647) (D = 3, n = 742, l = 323) and at the largest alpha
# for k from 250 to 600.
LAGUERRE_SCAN = _scan_cases(
    [(100, 0), (100, 1), (250, 1104)],
    lambda k: sorted({0, 1, 799 - k, 2 * (799 - k) + 1, 2 * (799 - k) + 6}),
    (418, 647),
)
# lam = l + (D-1)/2 of the radial momentum, the largest, reaches 799 - k + 7/2;
# ln C_k^(lam)(1) passes 600 at (250, 1105/2) and (519, 561/2) too
GEGENBAUER_SCAN = _scan_cases(
    [(100, F(1, 2)), (100, F(1)), (250, F(1105, 2))],
    lambda k: sorted({F(1, 2), F(1), F(800 - k), F(2 * (799 - k) + 7, 2)}),
    (519, F(561, 2)),
)


class TestScanAgainstMpmath:
    """Both float evaluators against 30-digit mpmath over large degrees and
    parameters, halfway between zeros and outside them."""

    @pytest.mark.parametrize("k, alpha", LAGUERRE_SCAN)
    def test_laguerre(self, k, alpha):
        zeros = oracle._laguerre_nodes(k, F(alpha))
        # both sides of x = 1: below the first zero, and the midpoints around 1
        xs = [min(0.5, zeros[0] / 2), zeros[0] / 2] + _midpoints(zeros, 1.0)
        xs += [2 * zeros[-1], 1e10, 1e300]
        log_abs = laguerre_log_abs(k, alpha)
        for x in xs:
            with mpmath.workdps(30):
                exact = float(mpmath.log(abs(mpmath.laguerre(k, alpha, x))))
            assert abs(log_abs(x) - exact) <= _scan_tolerance(k) * max(1.0, abs(exact)), x

    @pytest.mark.parametrize("k, lam", GEGENBAUER_SCAN)
    def test_gegenbauer(self, k, lam):
        zeros = oracle._gegenbauer_nodes(k, lam)
        xs = [-1.0, 1.0, (zeros[-1] + 1) / 2] + _midpoints(zeros)
        log_abs = gegenbauer_log_abs(k, float(lam))
        for x in xs:
            with mpmath.workdps(30):
                lam_mp = mpmath.mpf(lam.numerator) / lam.denominator
                exact = float(mpmath.log(abs(mpmath.gegenbauer(k, lam_mp, x))))
            assert abs(log_abs(x) - exact) <= _scan_tolerance(k) * max(1.0, abs(exact)), x
