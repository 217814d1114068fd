"""Brute-force evaluation of the entropy arguments, independent of the
closed forms.

For integer order q every integral reduces to exact factorial or Beta
moments of polynomial expansions, so closed form and oracle can be compared
structurally with zero tolerance.  For real q an adaptive extended-precision
quadrature evaluates the same integrals numerically.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, NamedTuple

import mpmath

from hydrenyi import entropy
from hydrenyi.exactnum import ExactScalar, gamma_exact, to_float
from hydrenyi.polynomials import (
    PolyExact,
    gegenbauer,
    gegenbauer_log_abs,
    laguerre,
    laguerre_log_abs,
    poly_pow,
)
from hydrenyi.states import (
    HydrogenicState,
    check_momentum_order,
    radial_momentum_log_density,
    radial_momentum_norm_squared,
    radial_norm_squared,
    validate,
)

Space = Literal["position", "momentum"]

QUADRATURE_DPS = 30
QUADRATURE_REL_TARGET = 1e-10


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the relative error target."""

    def __init__(self, message: str, value: float, estimate: float):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


@dataclass(frozen=True)
class MomentBasis:
    """Closed-form moments of one of the three weights the oracles need.

    kinds: "laguerre" is x^k e^-x on (0, inf); "gegenbauer" is
    t^k (1-t^2)^s on (-1, 1) with params (s,); "jacobi-shifted" is
    (1-y)^a (1+y)^(b+k) on (-1, 1) with params (a, b).

    ``moment`` is the definition; ``integrate`` sums a whole expansion from
    the rational ratios of consecutive moments.
    """

    kind: str
    params: tuple[Fraction, ...] = ()

    def moment(self, k: int) -> ExactScalar:
        if self.kind == "laguerre":
            return ExactScalar.from_rational(math.factorial(k))
        if self.kind == "gegenbauer":
            if k % 2 == 1:
                return ExactScalar(0)
            (s,) = self.params
            half = k // 2
            return (
                gamma_exact(half + Fraction(1, 2))
                * gamma_exact(s + 1)
                / gamma_exact(half + s + Fraction(3, 2))
            )
        if self.kind == "jacobi-shifted":
            a, b = self.params
            exponent = a + b + k + 1
            if exponent.denominator != 1:
                raise ValueError("shifted moment needs an integer total 2-power")
            return (
                ExactScalar.from_rational(Fraction(2) ** exponent.numerator)
                * gamma_exact(a + 1)
                * gamma_exact(b + k + 1)
                / gamma_exact(a + b + k + 2)
            )
        raise ValueError(f"unknown moment basis {self.kind!r}")

    def _ratios(self, count: int) -> list[tuple[int, int]]:
        """(num, den) with moment(step (j+1)) / moment(step j) = num/den for
        j < count, where a step is one index, or two for gegenbauer (whose
        odd moments vanish)."""
        if self.kind == "laguerre":
            return [(j + 1, 1) for j in range(count)]
        if self.kind == "gegenbauer":
            # (2j+1) / (2j+2s+3)
            (s,) = self.params
            sn, sd = s.numerator, s.denominator
            return [((2 * j + 1) * sd, (2 * j + 3) * sd + 2 * sn) for j in range(count)]
        if self.kind == "jacobi-shifted":
            # 2(b+j+1) / (a+b+j+2)
            a, b = self.params
            c = a + b
            bn, bd, cn, cd = b.numerator, b.denominator, c.numerator, c.denominator
            return [
                (2 * (bn + (j + 1) * bd) * cd, (cn + (j + 2) * cd) * bd)
                for j in range(count)
            ]
        raise ValueError(f"unknown moment basis {self.kind!r}")

    def integrate(self, coeffs: "list[Fraction] | tuple[Fraction, ...]") -> ExactScalar:
        """sum_k coeffs[k] * moment(k), as moment(0) times one rational.

        With moment(k) = moment(0) * prod_{j<k} num_j/den_j, the sum is taken
        in integers over prod_j den_j: term k carries the prefix product of
        the numerators and the suffix product of the denominators, and the
        coefficients are scaled by the lcm of their own denominators.  For
        gegenbauer only the even coefficients count.
        """
        if self.kind == "gegenbauer":
            coeffs = coeffs[::2]
        if not any(coeffs):
            return ExactScalar(0)
        ratios = self._ratios(len(coeffs) - 1)
        den = 1
        for c in coeffs:
            den = math.lcm(den, c.denominator)
        suffix = [1] * len(coeffs)
        for j in range(len(ratios) - 1, -1, -1):
            suffix[j] = suffix[j + 1] * ratios[j][1]
        total, prefix = 0, 1
        for k, c in enumerate(coeffs):
            if c:
                total += c.numerator * (den // c.denominator) * prefix * suffix[k]
            if k < len(ratios):
                prefix *= ratios[k][0]
        return self.moment(0) * Fraction(total, den * suffix[0])


def _check_order(q, minimum: int = 1) -> int:
    q = Fraction(q)
    if q.denominator != 1 or q < minimum:
        raise ValueError(f"oracle needs integer q >= {minimum}, got {q}")
    return q.numerator


def radial_position_w_exact(state: HydrogenicState, q: int) -> ExactScalar:
    """Entropic moment of the radial position density by termwise factorial
    moments of the expanded Laguerre power."""
    q = _check_order(q)
    d = validate(state)
    l, D = d.l, state.D
    poly = poly_pow(
        laguerre(state.n - l - 1, 2 * l + D - 2).scale_arg(Fraction(1, q)), 2 * q
    ).shift_degree(2 * l * q + D - 1)
    integral = MomentBasis("laguerre").integrate(poly.coeffs)
    norm = radial_norm_squared(state)
    scale = d.lam ** (D * (1 - q)) * norm**q * Fraction(1, q ** (2 * l * q + D))
    return integral * scale


def angular_w_exact(D: int, mu: tuple[int, ...], q: int) -> ExactScalar:
    """Entropic moment of a hyperspherical harmonic by even Beta moments of
    the expanded Gegenbauer powers."""
    q = _check_order(q)
    chain = tuple(mu[:-1]) + (abs(mu[-1]),)
    inv_pi = ExactScalar.pi_power(-2, 1)
    norm2 = ExactScalar.pi_power(-2, Fraction(1, 2))  # the 1/(2 pi) phi factor
    value = ExactScalar.pi_power(2, 2)  # the 2*pi from the phi integral
    for j in range(1, D - 1):
        two_alpha = D - j - 1
        alpha = Fraction(two_alpha, 2)
        mu_j, mu_j1 = chain[j - 1], chain[j]
        k = mu_j - mu_j1
        factor = (
            (alpha + mu_j)
            * math.factorial(k)
            * Fraction(2) ** (two_alpha + 2 * mu_j1 - 1)
        )
        norm_j = (
            ExactScalar.from_rational(factor)
            * gamma_exact(alpha + mu_j1) ** 2
            * inv_pi
            / gamma_exact(2 * alpha + mu_j + mu_j1)
        )
        norm2 = norm2 * norm_j
        power = poly_pow(gegenbauer(k, alpha + mu_j1), 2 * q)
        assert not any(power.coeffs[1::2]), "odd moments of an even power must vanish"
        basis = MomentBasis("gegenbauer", (q * mu_j1 + alpha - Fraction(1, 2),))
        value = value * basis.integrate(power.coeffs)
    return value * norm2**q


def _shifted_basis_coeffs(poly: PolyExact) -> list[Fraction]:
    """Rewrite sum a_m y^m as sum s_k (1+y)^k, with y^m = ((1+y) - 1)^m
    expanded in integers over the lcm of the denominators of the a_m."""
    den = 1
    for a in poly.coeffs:
        den = math.lcm(den, a.denominator)
    out = [0] * (poly.degree + 1 if poly.coeffs else 1)
    for m, a in enumerate(poly.coeffs):
        if a == 0:
            continue
        scaled = a.numerator * (den // a.denominator)
        for k in range(m + 1):
            term = scaled * math.comb(m, k)
            out[k] += -term if (m - k) % 2 else term
    return [Fraction(c, den) for c in out]


def radial_momentum_w_exact(state: HydrogenicState, q: int) -> ExactScalar:
    """Entropic moment of the radial momentum density by Beta moments in the
    shifted (1+y)^k basis."""
    q = _check_order(q)
    d = validate(state)
    l, D = d.l, state.D
    power = poly_pow(gegenbauer(state.n - l - 1, d.L + 1), 2 * q)
    shifted = _shifted_basis_coeffs(power)
    a_exp = l * q + Fraction(D, 2) - 1
    b_exp = D * (q - Fraction(1, 2)) + q * (l + 1) - 1
    integral = MomentBasis("jacobi-shifted", (a_exp, b_exp)).integrate(shifted)
    k_squared = radial_momentum_norm_squared(state, d)
    two_power = Fraction(1, 2 ** (q * (2 * l + D + 1)))
    scale = ExactScalar.from_rational((state.Z / d.eta) ** D * two_power)
    return k_squared**q * scale * integral


# -- floating-point path for real orders -------------------------------------
#
# The integrands run in floats and in the log domain: the polynomials by their
# three-term recurrences, the prefactors once per call at QUADRATURE_DPS.
# mpmath.quad drives a tanh-sinh rule that sums in floats.


def _jacobi_eigenvalues(diag: list[float], off_squared: list[float]) -> list[float]:
    """Ascending eigenvalues of the symmetric tridiagonal matrix with this
    diagonal and these squared off-diagonal entries, by bisection.

    The number of eigenvalues below x is the number of negative pivots in the
    LDL^T factorization of the matrix minus x (a Sturm count), so each
    eigenvalue is bracketed and halved until the bracket reaches the float
    resolution of the matrix, about eps times its norm.
    """
    if not diag:
        return []
    radii = [0.0] + [math.sqrt(b) for b in off_squared] + [0.0]
    lo = min(a - radii[j] - radii[j + 1] for j, a in enumerate(diag))
    hi = max(a + radii[j] + radii[j + 1] for j, a in enumerate(diag))
    resolution = sys.float_info.epsilon * max(abs(lo), abs(hi))
    couplings = [0.0] + off_squared

    def count_below(x: float) -> int:
        count, pivot = 0, 1.0
        for a, b in zip(diag, couplings):
            pivot = a - x - b / pivot
            if pivot == 0.0:
                pivot = -sys.float_info.min
            count += pivot < 0.0
        return count

    out: list[float] = []
    for index in range(len(diag)):
        a, b = (out[-1] if out else lo), hi
        while b - a > resolution:
            mid = 0.5 * (a + b)
            if mid in (a, b):
                break
            if count_below(mid) > index:
                b = mid
            else:
                a = mid
        out.append(0.5 * (a + b))
    return out


def _laguerre_nodes(k: int, alpha: Fraction) -> list[float]:
    """Zeros of L_k^(alpha), the eigenvalues of its Jacobi matrix (Golub &
    Welsch, Math. Comp. 23, 1969)."""
    a = float(alpha)
    return _jacobi_eigenvalues(
        [2 * j + a + 1 for j in range(k)], [j * (j + a) for j in range(1, k)]
    )


def _gegenbauer_nodes(k: int, lam: Fraction) -> list[float]:
    """Zeros of C_k^(lam), the eigenvalues of its Jacobi matrix."""
    lm = float(lam)
    return _jacobi_eigenvalues(
        [0.0] * k,
        [j * (j + 2 * lm - 1) / (4 * (j + lm) * (j + lm - 1)) for j in range(1, k)],
    )


# Each segment stops once its estimated relative error is this far below the
# gate: the estimate extrapolates and is not a bound, and the angular factors
# add their relative errors to the radial one.
_SEGMENT_REL_TARGET = QUADRATURE_REL_TARGET * 1e-4

# mpmath's tanh-sinh rule at QUADRATURE_DPS (that many bits of precision)
# ends a level where a node's distance to the endpoint, 1 - |x|, falls to
# 2^-(prec+10); the float rule keeps that node set.
_QUADRATURE_PREC = mpmath.libmp.dps_to_prec(QUADRATURE_DPS)
_NODE_LIMIT = 2.0 ** -(_QUADRATURE_PREC + 10)

# A deep tail runs the nodes of an [a, inf) segment on towards x = -1 down to
# this distance, where the node a - 1 + 2/(1+x) is about 2^1001 and its
# weight still fits in a float.
_DEEP_NODE_LIMIT = 2.0**-1000

# The float integrands carry rounding that grows with the order: the
# integrand is exp(q ln(density)), and ln(density) has an absolute rounding
# of some ulps of its largest term.  Against the exact integrals at integer
# q (D = 2..6, n <= 20) and the extended-precision ones at real q up to
# 1000, the worst relative error was 9.3e-15 * max(1, q); no segment reports
# a relative error below this floor times max(1, q).
_FLOAT_REL_FLOOR = 2.0**-45

# Breakpoints closer than this, relatively, are one point: the segment between
# them would be a few ulps wide and can stall every level of the rule.
_MERGE_REL = 1e-12


@functools.lru_cache(maxsize=32)
def _level_nodes(level: int, limit: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Complements 1 - x and weights w of the positive tanh-sinh nodes that
    this level adds, down to 1 - x > limit.

    The node is x = tanh(s) with s = pi/2 sinh(t), for t = 1/2, 1, 3/2, ...
    at level 1 (whose centre x = 0 the rule adds) and for the odd multiples
    of 2^-level above it.  The complement is 2e^(-2s)/(1+e^(-2s)), which
    keeps nodes next to an endpoint at full relative precision (Takahasi &
    Mori, Publ. RIMS 9, 1974); the weight is pi/2 cosh(t) / cosh(s)^2.
    """
    comps: list[float] = []
    weights: list[float] = []
    j, step = 1, (1 if level == 1 else 2)
    while True:
        t = math.ldexp(j, -level)
        e = math.exp(-math.pi * math.sinh(t))
        comp = 2 * e / (1 + e)
        if comp <= limit:
            return tuple(comps), tuple(weights)
        comps.append(comp)
        weights.append(2 * math.pi * math.cosh(t) * e / (1 + e) ** 2)
        j += step


def _relative_error(results: list[float]) -> float:
    """The Borwein-Bailey-Girgensohn extrapolation of mpmath's rule, applied
    to the differences |I_k - I_j| / |I_k| of the last levels.

    A difference that rounds to zero counts as one ulp, the resolution of a
    float, so that levels that agree to the last bit still extrapolate.
    """
    scale = abs(results[-1])
    if scale == 0:
        return 0.0 if results[-2] == 0 else math.inf
    eps = sys.float_info.epsilon
    d1 = max(abs(results[-1] - results[-2]) / scale, eps)
    if len(results) == 2:
        return d1
    d2 = max(abs(results[-1] - results[-3]) / scale, eps)
    if not (d1 < 1 and d2 < 1):
        # no digit-doubling to extrapolate from (or a NaN, which propagates)
        return max(d1, d2)
    D1, D2 = math.log10(d1), math.log10(d2)
    return 10.0 ** int(max(D1 * D1 / D2, 2 * D1, -_QUADRATURE_PREC))


class _FloatTanhSinh:
    """Tanh-sinh quadrature in floats, in the shape of an mpmath rule so that
    mpmath.quad drives it (mpmath.quad calls only its summation).

    Each segment stops once the estimated relative error of its last levels
    is <= _SEGMENT_REL_TARGET, and reports that estimate, but not less than
    rel_floor, times |I_seg|.  Every integrand here is non-negative, so a
    relative bound on each segment bounds the sum too.  With deep_tail the
    nodes of an [a, inf) segment run towards infinity down to
    _DEEP_NODE_LIMIT instead of _NODE_LIMIT.
    """

    def __init__(self, rel_floor: float = _FLOAT_REL_FLOOR, deep_tail: bool = False):
        self.rel_floor = rel_floor
        self.tail_limit = _DEEP_NODE_LIMIT if deep_tail else _NODE_LIMIT

    def _terms(self, f, a: float, b: float, level: int) -> list[float]:
        """w f(x) for the nodes this level adds on [a, b]."""
        comps, weights = _level_nodes(level, _NODE_LIMIT)
        if b == math.inf:
            # x -> a - 1 + 2/(1+x), with weight 2/(1+x)^2
            terms = [
                w * 2 / (2 - c) ** 2 * f(a + c / (2 - c)) for c, w in zip(comps, weights)
            ]
            tail = _level_nodes(level, self.tail_limit)
            terms += [w / c * (2 / c) * f(a + (2 - c) / c) for c, w in zip(*tail)]
            if level == 1:
                terms.append(math.pi * f(a + 1))
            return terms
        half = 0.5 * (b - a)
        terms = []
        for c, w in zip(comps, weights):
            terms.append(half * w * f(b - half * c))
            terms.append(half * w * f(a + half * c))
        if level == 1:
            terms.append(half * math.pi / 2 * f(a + half))
        return terms

    def _segment(self, f, a: float, b: float, max_degree: int) -> tuple[float, float]:
        level_sums: list[float] = []
        results: list[float] = []
        rel = math.inf
        for level in range(1, max_degree + 1):
            level_sums.append(math.fsum(self._terms(f, a, b, level)))
            results.append(math.ldexp(math.fsum(level_sums), -level))
            if level > 1:
                rel = _relative_error(results)
                if rel <= _SEGMENT_REL_TARGET:
                    break
        return results[-1], rel

    def summation(self, f, points, prec, epsilon, max_degree, verbose=False):
        values, errors = [], []
        for a, b in zip(points, points[1:]):
            value, rel = self._segment(f, float(a), float(b), max_degree)
            values.append(value)
            errors.append(max(rel, self.rel_floor) * abs(value))
        return math.fsum(values), math.fsum(errors)


# The momentum integrand decays as p^-e.  Cut at p ~ 2/_NODE_LIMIT ~ 2e34,
# the tail beyond holds about p^(1-e)/(e-1) of it, below 1e-16 for e >= 1.5;
# slower tails get the deep nodes, which reach p ~ 2^1001.
_DEEP_TAIL_DECAY = 1.5


def _quad(f, points, rule: _FloatTanhSinh = _FloatTanhSinh()) -> tuple[float, float]:
    # mpmath.quad builds its rule by calling method(ctx)
    value, err = mpmath.quad(
        f, points, error=True, maxdegree=9, method=lambda ctx: rule
    )
    return value, err


def _breakpoints(points: list[float]) -> list[float]:
    """Sorted, with points closer than _MERGE_REL (relatively) merged."""
    out: list[float] = []
    for p in sorted(points):
        if not out or p - out[-1] > _MERGE_REL * abs(p):
            out.append(p)
    return out


class _ShiftTooLow(Exception):
    """An integrand value exp(log_f - shift) would overflow a float."""

    def __init__(self, log_value: float):
        super().__init__(log_value)
        self.log_value = log_value


def _quad_log(
    log_f, points: list[float], q: float, deep_tail: bool = False
) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Integral of exp(log_f) over the breakpoints, with its error estimate.

    The float integrand is exp(log_f - shift), with shift the largest log_f
    at the midpoints of the finite segments, so that its values stay near 1
    whatever the scale of the integral; the scale comes back at
    QUADRATURE_DPS.  A peak that the midpoints miss by more than the float
    range (orders in the hundreds) raises the shift to it and starts again.
    """
    rule = _FloatTanhSinh(_FLOAT_REL_FLOOR * max(1.0, q), deep_tail)
    finite = [p for p in points if p != math.inf]
    shift = max(log_f(0.5 * (a + b)) for a, b in zip(finite, finite[1:]))
    while True:

        def integrand(x: float, shift: float = shift) -> float:
            log_value = log_f(x)
            if log_value - shift > 700:
                raise _ShiftTooLow(log_value)
            return math.exp(log_value - shift)

        try:
            value, err = _quad(integrand, points, rule)
            break
        except _ShiftTooLow as exc:
            shift = exc.log_value
    with mpmath.workdps(QUADRATURE_DPS):
        scale = mpmath.exp(shift)
        return value * scale, err * scale


def position_radial_power_integral(
    state: HydrogenicState, q: float
) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Integral of the q-th power of the radial position density against
    r^(D-1) dr, with its quadrature error estimate."""
    d = validate(state)
    l, D = d.l, state.D
    k, alpha = state.n - l - 1, 2 * l + D - 2
    lam = float(d.lam)
    with mpmath.workdps(QUADRATURE_DPS):
        # ln N^2 for the density as a function of r / lam
        norm = radial_norm_squared(state) / d.lam**D
        log_norm = float(mpmath.log(mpmath.mpf(norm.numerator) / norm.denominator))
    log_poly = laguerre_log_abs(k, alpha)
    q = float(q)

    def log_integrand(r: float) -> float:
        rt = r / lam
        log_density = log_norm + 2 * l * math.log(rt) - rt + 2 * log_poly(rt)
        return q * log_density + (D - 1) * math.log(r)

    scale = lam * float(2 * d.eta)
    points = (
        [0.0]
        + [lam * r for r in _laguerre_nodes(k, Fraction(alpha))]
        + [scale, 4 * scale]
    )
    return _quad_log(log_integrand, _breakpoints(points) + [math.inf], q)


def momentum_radial_power_integral(
    state: HydrogenicState, q: float
) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Integral of the q-th power of the radial momentum density against
    p^(D-1) dp, with its quadrature error estimate."""
    d = validate(state)
    l, D = d.l, state.D
    k = state.n - l - 1
    log_density = radial_momentum_log_density(state, d)
    q = float(q)

    def log_integrand(p: float) -> float:
        return q * log_density(p) + (D - 1) * math.log(p)

    scale = float(state.Z / d.eta)
    points = [0.0]
    for y0 in _gegenbauer_nodes(k, d.L + 1):
        points.append(scale * math.sqrt((1 - y0) / (1 + y0)))
    points += [scale, 4 * scale]
    deep_tail = (2 * l + 2 * D + 2) * q - D + 1 < _DEEP_TAIL_DECAY
    return _quad_log(log_integrand, _breakpoints(points) + [math.inf], q, deep_tail)


def angular_power_integral(
    D: int, mu: tuple[int, ...], q: float
) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Integral of |harmonic|^(2q) over the sphere for real q, with error
    estimate.  Axes with equal chain entries use closed Beta factors; the
    others get adaptive quadrature split at the polynomial roots."""
    chain = tuple(mu[:-1]) + (abs(mu[-1]),)
    q = float(q)
    with mpmath.workdps(QUADRATURE_DPS):
        qm = mpmath.mpf(q)
        value = 2 * mpmath.pi
        err_rel = mpmath.mpf(0)
        norm2 = 1 / (2 * mpmath.pi)
        for j in range(1, D - 1):
            alpha = Fraction(D - j - 1, 2)
            alpha_m = mpmath.mpf(alpha.numerator) / alpha.denominator
            mu_j, mu_j1 = chain[j - 1], chain[j]
            k = mu_j - mu_j1
            norm2 *= (
                (alpha_m + mu_j)
                * math.factorial(k)
                * mpmath.gamma(alpha_m + mu_j1) ** 2
                / (
                    mpmath.pi
                    * mpmath.mpf(2) ** (1 - 2 * alpha_m - 2 * mu_j1)
                    * mpmath.gamma(2 * alpha_m + mu_j + mu_j1)
                )
            )
            s = qm * mu_j1 + alpha_m - mpmath.mpf(1) / 2
            if k == 0:
                value *= mpmath.beta(mpmath.mpf(1) / 2, s + 1)
                continue
            log_poly = gegenbauer_log_abs(k, float(alpha + mu_j1))
            s_float = float(s)

            def log_integrand(t: float) -> float:
                g = (1 - t) * (1 + t)
                if g == 0:  # a node that rounded onto t = +-1
                    return 2 * q * log_poly(t) if s_float == 0 else -math.inf
                return 2 * q * log_poly(t) + s_float * math.log(g)

            points = [-1.0] + _gegenbauer_nodes(k, alpha + mu_j1) + [1.0]
            part, err = _quad_log(log_integrand, points, q)
            value *= part
            if part != 0:
                err_rel += abs(err / part)
        value *= norm2**qm
        return value, abs(value) * err_rel


class FloatEntropy(NamedTuple):
    value: float
    error: float


def renyi_float(state: HydrogenicState, q, space: Space) -> FloatEntropy:
    """Renyi entropy of any real order q > 0, q != 1, by quadrature of the
    density power, with a propagated error estimate.

    In momentum space the entropy is infinite for q <= D/(2l+2D+2) (see
    states.check_momentum_order); such orders raise ValueError.
    """
    order, q = q, float(q)
    if q <= 0 or q == 1:
        raise ValueError(f"need real q > 0, q != 1, got {q}")
    d = validate(state)
    if space == "momentum":
        check_momentum_order(state.D, d.l, order)
    if space == "position":
        radial, radial_err = position_radial_power_integral(state, q)
    elif space == "momentum":
        radial, radial_err = momentum_radial_power_integral(state, q)
    else:
        raise ValueError(f"unknown space {space!r}")
    with mpmath.workdps(QUADRATURE_DPS):
        chain = state.canonical_mu()
        if all(m == chain[0] for m in chain):
            # Gamma-closed angular factor, exact for any real order.
            l = abs(chain[0])
            D = state.D
            log_angular = (1 - q) * (
                mpmath.log(2) + mpmath.mpf(D) / 2 * mpmath.log(mpmath.pi)
            ) + (
                q * mpmath.loggamma(l + mpmath.mpf(D) / 2)
                + mpmath.loggamma(q * l + 1)
                - q * mpmath.loggamma(l + 1)
                - mpmath.loggamma(q * l + mpmath.mpf(D) / 2)
            )
            angular_rel_err = mpmath.mpf(0)
        else:
            angular, angular_err = angular_power_integral(state.D, state.mu, q)
            log_angular = mpmath.log(angular)
            angular_rel_err = abs(angular_err / angular)
        rel = abs(radial_err / radial) + angular_rel_err
        entropy_value = (mpmath.log(radial) + log_angular) / (1 - q)
        err = float(rel / abs(1 - q))
        result = FloatEntropy(float(entropy_value), err)
    if not rel <= QUADRATURE_REL_TARGET:  # a NaN estimate fails too
        raise QuadratureError(
            f"quadrature reached relative error {float(rel):.2e} "
            f"(target {QUADRATURE_REL_TARGET:.0e})",
            result.value,
            result.error,
        )
    return result


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    closed: str
    oracle: str
    equal: bool
    residual: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "closed": self.closed,
            "oracle": self.oracle,
            "equal": self.equal,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class StateVerdict:
    state: str
    q: int
    checks: tuple[CheckResult, ...]
    elapsed_ms: float

    @property
    def all_equal(self) -> bool:
        return all(check.equal for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "state": self.state,
            "q": self.q,
            "all_equal": self.all_equal,
            "elapsed_ms": self.elapsed_ms,
            "checks": [check.to_dict() for check in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _compare(name: str, closed: ExactScalar, oracle: ExactScalar) -> CheckResult:
    equal = closed == oracle
    if equal:
        residual = 0.0
    else:
        a, b = to_float(closed), to_float(oracle)
        residual = abs(a - b) / max(abs(a), abs(b), 1e-300)
    return CheckResult(name, closed.render(), oracle.render(), equal, residual)


def verify_state(state: HydrogenicState, q: int) -> StateVerdict:
    """Compare every closed-form entropy argument against its brute-force
    oracle for one state and order."""
    q = _check_order(q, minimum=2)
    started = time.perf_counter()
    closed_radial_pos = entropy.radial_position_entropy(state, q).w
    closed_angular = entropy.angular_entropy(state.D, state.mu, q).w
    closed_radial_mom = entropy.radial_momentum_entropy(state, q).w
    oracle_radial_pos = radial_position_w_exact(state, q)
    oracle_angular = angular_w_exact(state.D, state.mu, q)
    oracle_radial_mom = radial_momentum_w_exact(state, q)
    checks = (
        _compare("radial_position", closed_radial_pos, oracle_radial_pos),
        _compare("angular", closed_angular, oracle_angular),
        _compare("radial_momentum", closed_radial_mom, oracle_radial_mom),
        _compare(
            "position_total",
            closed_radial_pos * closed_angular,
            oracle_radial_pos * oracle_angular,
        ),
        _compare(
            "momentum_total",
            closed_radial_mom * closed_angular,
            oracle_radial_mom * oracle_angular,
        ),
    )
    elapsed = (time.perf_counter() - started) * 1000
    return StateVerdict(state.literal(), q, checks, elapsed)
