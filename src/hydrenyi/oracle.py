"""Brute-force evaluation of the entropy arguments, independent of the
closed forms.

For integer order q every integral reduces to exact factorial or Beta
moments of polynomial expansions, so closed form and oracle can be compared
structurally with zero tolerance.  For real q an adaptive tanh-sinh
quadrature in floats evaluates the same integrals numerically, except the
radial ones at k = n - l - 1 = 0, which are Gamma and Beta functions at any
order and are summed in closed form.

What stays independent: the oracle takes its polynomials from the explicit
coefficient sums of ``laguerre`` and ``gegenbauer`` and its moments from the
weight, while the closed forms take their terms from ``rising_steps`` and
the Pochhammer factor g(s).  Both raise a polynomial to a power by the same
recurrence, written twice on purpose (``polynomials.poly_pow`` here) and
each tested against repeated convolution.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, NamedTuple

from hydrenyi import entropy
from hydrenyi.exactnum import (
    ExactScalar,
    exact_rational,
    gamma_integers,
    log_float,
    log_float_parts,
)
from hydrenyi.polynomials import (
    gegenbauer, gegenbauer_log_abs, laguerre, laguerre_log_abs, poly_pow,
)
from hydrenyi.states import (
    HydrogenicState,
    brief,
    canonical_chain,
    check_chain,
    check_momentum_order,
    radial_momentum_norm_squared,
    radial_norm_squared,
    validate,
)

Space = Literal["position", "momentum"]

QUADRATURE_REL_TARGET = 1e-10

# The largest principal number the float path takes.  Its cost grows about
# as n^2: the nodes come from Sturm counts of length n, and the integrand runs
# a degree-n recurrence on each of n segments.  At n = 800 the slowest call
# over D in {3, 5}, l in {0, n-1} and both spaces took about 10 s on a 2-vCPU
# Xeon VM (position, l = 0, q = 0.7: 7.3 to 10.0 s at D = 3, whose speed
# varies from run to run, and 8.2 s at D = 5, about 70,900 integrand
# evaluations each).  Only those two l were timed; D = 3, n = 742, l = 323,
# q = 0.7 took 3.0 to 3.1 s there.
MAX_FLOAT_N = 800


class FloatCapExceeded(RuntimeError):
    """The state's n is past MAX_FLOAT_N; refused before any work."""


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the relative error target.  value and
    estimate are the entropy and its error estimate, or None when an
    integral came out zero or not a number and there is no entropy to
    report."""

    def __init__(self, message: str, value: float | None = None, estimate: float | None = None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


class _Monomial:
    """A running product num/den * pi^(half/2) in integers.

    Each exact oracle folds its norms, Gamma values and integrals into one
    of these and makes a single ExactScalar of it at the end.
    """

    __slots__ = ("num", "den", "half")

    def __init__(self, num: int = 1, den: int = 1, half: int = 0):
        self.num, self.den, self.half = num, den, half

    def times(self, num: int, den: int = 1, power: int = 1, half: int = 0) -> None:
        """Multiply by (num/den * pi^(half/2))^power; a negative power divides."""
        if power < 0:
            num, den, half, power = den, num, -half, -power
        self.num *= num**power
        self.den *= den**power
        self.half += half * power

    def times_gamma(self, twice: int, power: int = 1) -> None:
        """Multiply by Gamma(twice/2)^power, from gamma_integers."""
        num, den, half = gamma_integers(twice)
        self.times(num, den, power, half)

    def scalar(self) -> ExactScalar:
        return ExactScalar.pi_power(self.half, Fraction(self.num, self.den))


def _moment_sum(
    nums: tuple[int, ...], den: int, ratios: list[tuple[int, int]]
) -> tuple[int, int]:
    """sum_k nums[k]/den * m_k/m_0 as an integer numerator and denominator,
    not reduced, for the moments m_k of a weight with m_(k+1)/m_k = a_k/b_k,
    (a_k, b_k) = ratios[k].

    With m_k = m_0 * prod_{j<k} a_j/b_j, the numerators are summed in
    integers over den * prod_j b_j: term k carries the prefix product of the
    a_j and the suffix product of the b_j.
    """
    if not nums:
        return 0, 1
    suffix = [1] * len(nums)
    for j in range(len(nums) - 2, -1, -1):
        suffix[j] = suffix[j + 1] * ratios[j][1]
    total, prefix = 0, 1
    for k, c in enumerate(nums):
        if c:
            total += c * prefix * suffix[k]
        if k < len(nums) - 1:
            prefix *= ratios[k][0]
    return total, den * suffix[0]


def _check_order(q, minimum: int = 1) -> int:
    q = exact_rational(q)
    if q.denominator != 1 or q < minimum:
        raise ValueError(f"oracle needs integer q >= {minimum}, got {brief(q)}")
    return q.numerator


def radial_position_w_exact(state: HydrogenicState, q: int) -> ExactScalar:
    """Entropic moment of the radial position density by termwise factorial
    moments of the expanded Laguerre power:
    lambda^(D(1-q)) (lambda^D N^2)^q q^-(2lq+D) times the integral."""
    q = _check_order(q)
    validate(state)
    l, D = state.l, state.D
    # scaled after powering, the recurrence runs on smaller numerators
    poly = (
        poly_pow(laguerre(state.n - l - 1, 2 * l + D - 2), 2 * q)
        .scale_arg(Fraction(1, q))
        .shift_degree(2 * l * q + D - 1)
    )
    # the weight x^k e^-x has moments k!, with 0! = 1
    w = _Monomial(*_moment_sum(poly.nums, poly.den, [(k + 1, 1) for k in range(poly.degree)]))
    # lambda = eta / (2Z) = (2n+D-3) / (4Z)
    w.times((2 * state.n + D - 3) * state.Z.denominator, 4 * state.Z.numerator, D * (1 - q))
    norm = radial_norm_squared(state)
    w.times(norm.numerator, norm.denominator, q)
    w.times(1, q, 2 * l * q + D)
    return w.scalar()


def _angular_norm_squared(D: int, chain: tuple[int, ...]) -> _Monomial:
    """The squared norm of the harmonic of a canonical chain: 1/(2 pi) times,
    per segment, (alpha + mu_j) k! 2^(2 alpha + 2 mu_j1 - 1)
    Gamma(alpha + mu_j1)^2 / (pi Gamma(2 alpha + mu_j + mu_j1)), k = mu_j - mu_j1."""
    norm = _Monomial(1, 2, -2)  # the 1/(2 pi) phi factor
    for j in range(1, D - 1):
        two_alpha = D - j - 1
        mu_j, mu_j1 = chain[j - 1], chain[j]
        norm.times(
            (two_alpha + 2 * mu_j) * math.factorial(mu_j - mu_j1) << (two_alpha + 2 * mu_j1 - 1),
            2,
            half=-2,
        )
        norm.times_gamma(two_alpha + 2 * mu_j1, 2)
        norm.times_gamma(2 * (two_alpha + mu_j + mu_j1), -1)
    return norm


def angular_w_exact(D: int, mu: tuple[int, ...], q: int) -> ExactScalar:
    """Entropic moment of a hyperspherical harmonic by even Beta moments of
    the expanded Gegenbauer powers: 2 pi times, per chain segment, its
    integral, and the squared norm to the power q."""
    q = _check_order(q)
    check_chain(D, mu)
    chain = canonical_chain(mu)
    w = _Monomial(2, 1, 2)  # the 2*pi from the phi integral
    for j in range(1, D - 1):
        two_alpha = D - j - 1
        mu_j, mu_j1 = chain[j - 1], chain[j]
        power = poly_pow(gegenbauer(mu_j - mu_j1, Fraction(two_alpha + 2 * mu_j1, 2)), 2 * q)
        assert not any(power.nums[1::2]), "odd moments of an even power must vanish"
        # the weight (1-t^2)^s, s = q mu_j1 + alpha - 1/2, has vanishing odd
        # moments and even moments t^(2k) in the ratio (2k+1)/(2k+2s+3), from
        # Gamma(1/2) Gamma(s+1) / Gamma(s+3/2) at k = 0
        twice_s = 2 * q * mu_j1 + two_alpha - 1
        w.times_gamma(1)
        w.times_gamma(twice_s + 2)
        w.times_gamma(twice_s + 3, -1)
        even = power.nums[::2]
        ratios = [(2 * k + 1, 2 * k + twice_s + 3) for k in range(len(even) - 1)]
        w.times(*_moment_sum(even, power.den, ratios))
    norm = _angular_norm_squared(D, chain)
    w.times(norm.num, norm.den, q, norm.half)
    return w.scalar()


def radial_momentum_w_exact(state: HydrogenicState, q: int) -> ExactScalar:
    """Entropic moment of the radial momentum density by Beta moments in the
    shifted (1+y)^k basis: the Gegenbauer polynomial P(y) is written as
    Q(1+y) with Q(z) = P(z-1) before it is raised to the power 2q."""
    q = _check_order(q)
    validate(state)
    l, D = state.l, state.D
    # L + 1 = l + (D-1)/2
    power = poly_pow(gegenbauer(state.n - l - 1, Fraction(2 * l + D - 1, 2)).translate(-1), 2 * q)
    # the weight (1-y)^a (1+y)^(b+k), a = lq + D/2 - 1 and
    # b = D(q - 1/2) + q(l+1) - 1, has moments in the ratio
    # 2(b+k+1)/(a+b+k+2), from 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2)
    # at k = 0; a + b is an integer
    twice_a, twice_b = 2 * l * q + D - 2, 2 * D * q - D + 2 * q * (l + 1) - 2
    a_plus_b = (twice_a + twice_b) // 2
    w = _Monomial()
    w.times(2, 1, a_plus_b + 1)
    w.times_gamma(twice_a + 2)
    w.times_gamma(twice_b + 2)
    w.times_gamma(2 * a_plus_b + 4, -1)
    ratios = [(twice_b + 2 * k + 2, a_plus_b + k + 2) for k in range(power.degree)]
    w.times(*_moment_sum(power.nums, power.den, ratios))
    k_squared, half = radial_momentum_norm_squared(state).monomial()
    w.times(k_squared.numerator, k_squared.denominator, q, half)
    # (Z/eta)^D = (2Z / (2n+D-3))^D, and 2^-(q(2l+D+1))
    w.times(2 * state.Z.numerator, state.Z.denominator * (2 * state.n + D - 3), D)
    w.times(1, 1 << (q * (2 * l + D + 1)))
    return w.scalar()


# -- floating-point path for real orders -------------------------------------
#
# The integrands run in floats and in the log domain: the polynomials by their
# three-term recurrences, the radial norms once per call by log_float.  A
# tanh-sinh rule sums in floats.  Each integral comes back as (ln I, relative
# error) in floats, and the entropy is assembled from those logs in floats
# too: the Gamma and Beta factors by _log_gamma_ratio, the exact constants
# (the angular norm, Z) by log_float.  The radial integrals at k = 0, and the
# whole entropy of a quasi-spherical state, take the closed forms below
# instead (_LogSum).


def _jacobi_eigenvalues(diag: list[float], off_squared: list[float]) -> list[float]:
    """Ascending eigenvalues of the symmetric tridiagonal matrix with this
    diagonal and these squared off-diagonal entries, by bisection.

    The number of eigenvalues below x is the number of negative pivots in the
    LDL^T factorization of the matrix minus x (a Sturm count), so each
    eigenvalue is bracketed and halved until the bracket reaches the float
    resolution of the matrix, about eps times its norm.  The bisection needs
    only whether that count passes the eigenvalue's index, so the
    factorization stops at the pivot that decides it.
    """
    if not diag:
        return []
    radii = [0.0] + [math.sqrt(b) for b in off_squared] + [0.0]
    lo = min(a - radii[j] - radii[j + 1] for j, a in enumerate(diag))
    hi = max(a + radii[j] + radii[j + 1] for j, a in enumerate(diag))
    resolution = sys.float_info.epsilon * max(abs(lo), abs(hi))
    rows = list(zip(diag, [0.0] + off_squared))

    out: list[float] = []
    for index in range(len(diag)):
        a, b = (out[-1] if out else lo), hi
        while b - a > resolution:
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            negatives, pivot = 0, 1.0
            for diagonal, coupling in rows:
                pivot = diagonal - mid - coupling / pivot
                if pivot <= 0.0:
                    if pivot == 0.0:
                        pivot = -sys.float_info.min
                    negatives += 1
                    if negatives > index:
                        b = mid
                        break
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

# The rule runs at most _LEVELS levels, each halving the node spacing of the last.
# mpmath's tanh-sinh rule at 30 digits (103 bits) ends a level where 1 - |x| falls
# to 2^-(103+10); every segment here has that node set, but evaluates the nodes
# of the endpoint region only while their terms still count.
_LEVELS, _NODE_LIMIT = 9, 2.0**-113

# The endpoint region is 1 - |x| <= _ENDPOINT_REGION.  There every integrand
# here is monotone (bounded at a finite endpoint, decaying in a tail) while
# the weights fall double-exponentially, so once a term is <= _NEGLIGIBLE
# times the sum of its side so far, the terms beyond it add less than a
# rounding of that sum (Bailey, Jeyabalan & Li, Experimental Math. 14, 2005).
_ENDPOINT_REGION = 2.0**-20
_NEGLIGIBLE = 2.0**-64

# The float integrands carry rounding that grows with the order: the
# integrand is exp(q ln(density)), and ln(density) has an absolute rounding
# of some ulps of its largest term.  Against the exact integrals at integer
# q (D = 2..6, n <= 20) and the extended-precision ones at real q up to
# 1000, the worst relative error was 9.3e-15 * max(1, q); no segment reports
# a relative error below this floor times max(1, q).
_FLOAT_REL_FLOOR = 2.0**-45


@functools.lru_cache(maxsize=None)
def _level_nodes(level: int) -> tuple[tuple[float, float], ...]:
    """(1 - x, w) for the positive tanh-sinh nodes x, with weights w, that
    this level adds, down to 1 - x > _NODE_LIMIT.

    The node is x = tanh(s) with s = pi/2 sinh(t), for t = 1/2, 1, 3/2, ...
    at level 1 (whose centre x = 0 the rule adds) and for the odd multiples
    of 2^-level above it.  The complement is 2e^(-2s)/(1+e^(-2s)), which
    keeps nodes next to an endpoint at full relative precision (Takahasi &
    Mori, Publ. RIMS 9, 1974); the weight is pi/2 cosh(t) / cosh(s)^2.
    """
    nodes: list[tuple[float, float]] = []
    j, step = 1, (1 if level == 1 else 2)
    while True:
        t = math.ldexp(j, -level)
        e = math.exp(-math.pi * math.sinh(t))
        comp = 2 * e / (1 + e)
        if comp <= _NODE_LIMIT:
            return tuple(nodes)
        nodes.append((comp, 2 * math.pi * math.cosh(t) * e / (1 + e) ** 2))
        j += step


# The (node, weight) pairs of one side of a segment, in the order the side
# runs: complements 1 - |x| on a finite segment, offsets x - a on [a, inf).
_Side = tuple[tuple[float, float], ...]


@functools.lru_cache(maxsize=None)
def _sides(level: int, tail: bool) -> tuple[tuple[_Side, _Side], ...]:
    """The two sides of a segment at this level, each as its pairs outside
    the endpoint region and those inside it.

    A finite segment runs the (complement, weight) pairs on both sides.  An
    [a, inf) segment, whose map is x -> a - 1 + 2/(1+x) with weight
    2/(1+x)^2, runs them as offsets from a: the side towards a at x = 1 - c,
    the side towards infinity at x = c - 1.
    """
    nodes = _level_nodes(level)
    if tail:
        sides = [
            tuple((c / (2 - c), w * 2 / (2 - c) ** 2) for c, w in nodes),
            tuple(((2 - c) / c, w / c * (2 / c)) for c, w in nodes),
        ]
    else:
        sides = [nodes, nodes]
    cut = sum(c > _ENDPOINT_REGION for c, _ in nodes)
    return tuple((side[:cut], side[cut:]) for side in sides)


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
    return 10.0 ** int(max(D1 * D1 / D2, 2 * D1))


class _FloatTanhSinh:
    """Tanh-sinh quadrature in floats, over _LEVELS levels at most.

    Each level walks each side of a segment outward from the centre and
    stops that side in the endpoint region once its terms no longer count
    (see _terms).  Each segment stops once the estimated relative error of
    its last levels is <= _SEGMENT_REL_TARGET, and reports that estimate, but
    not less than rel_floor, times |I_seg|.  Every integrand here is
    non-negative, so a relative bound on each segment bounds the sum too.
    Every segment has mpmath's nodes: each integrand here is bounded on its
    finite segments and decays exponentially on an [a, inf) one.
    """

    def __init__(self, rel_floor: float = _FLOAT_REL_FLOOR):
        self.rel_floor = rel_floor

    def _terms(self, f, a: float, b: float, level: int) -> list[float]:
        """w f(x) for the nodes this level adds on [a, b].

        Each side runs every node outside the endpoint region and stops at
        its first node inside whose term is <= _NEGLIGIBLE times the side's
        sum so far on this level.  A side whose sum is still 0 does not stop,
        so mass right against an endpoint is still found at every level.
        The side's sum runs left to right, as the nodes come.  A side's
        term is scale w f(end + step x) for its (x, w) pairs from _sides; on
        a tail scale and step are 1.0, so the products are exact.
        """
        terms: list[float] = []
        if b == math.inf:
            if level == 1:
                terms.append(math.pi * f(a + 1))
            ends = ((a, 1.0, 1.0), (a, 1.0, 1.0))
        else:
            half = 0.5 * (b - a)
            if level == 1:
                terms.append(half * math.pi / 2 * f(a + half))
            ends = ((b, -half, half), (a, half, half))
        for (end, step, scale), (outside, inside) in zip(ends, _sides(level, b == math.inf)):
            side = [scale * w * f(end + step * x) for x, w in outside]
            running = functools.reduce(operator.add, side, 0.0)
            terms += side
            for x, w in inside:
                term = scale * w * f(end + step * x)
                terms.append(term)
                if 0 < running and term <= _NEGLIGIBLE * running:
                    break
                running += term
        return terms

    def _segment(self, f, a: float, b: float) -> tuple[float, float]:
        """The segment's integral and relative error estimate; NaN for both
        at the first level whose sum is not a number, which no later level
        mends."""
        level_sums: list[float] = []
        results: list[float] = []
        rel = math.inf
        for level in range(1, _LEVELS + 1):
            level_sums.append(math.fsum(self._terms(f, a, b, level)))
            if math.isnan(level_sums[-1]):
                return math.nan, math.nan
            results.append(math.ldexp(math.fsum(level_sums), -level))
            if level > 1:
                rel = _relative_error(results)
                if rel <= _SEGMENT_REL_TARGET:
                    break
        return results[-1], rel

    def summation(self, f, points) -> tuple[float, float]:
        values, errors = [], []
        for a, b in zip(points, points[1:]):
            value, rel = self._segment(f, float(a), float(b))
            if math.isnan(value):
                return math.nan, math.nan
            values.append(value)
            errors.append(max(rel, self.rel_floor) * abs(value))
        return math.fsum(values), math.fsum(errors)


def _quad(f, points, rule: _FloatTanhSinh = _FloatTanhSinh()) -> tuple[float, float]:
    return rule.summation(f, points)


# ln 2 = _LN2_HI + _LN2_LO with the leading part in 32 bits (fdlibm's split),
# so that e * _LN2_HI is exact for every float exponent e.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_LN2 = math.log(2)


class _ShiftTooLow(Exception):
    """An integrand value exp(log_f - shift) would overflow a float."""

    def __init__(self, log_value: float):
        super().__init__(log_value)
        self.log_value = log_value


def _quad_log(log_f, points: list[float], q: float) -> tuple[float, float]:
    """Integral I of exp(log_f) over the breakpoints in log form, as
    (ln I, relative error estimate), by _quad_log_shifted with the shift
    at the largest log_f at the segments' centres (a + 1 on [a, inf)), so
    that the integrand's values stay near 1 whatever the scale of the
    integral."""
    shift = max(
        (log_f(a + 1 if b == math.inf else 0.5 * (a + b)) for a, b in zip(points, points[1:])),
        default=0.0,
    )
    return _quad_log_shifted(log_f, points, q, shift)


def _quad_log_shifted(log_f, points: list[float], q: float, shift: float) -> tuple[float, float]:
    """Integral I of exp(log_f) over the breakpoints in log form, as
    (ln I, relative error estimate), from the float integrand
    exp(log_f - shift): ln I is ln(value) + shift.  A peak that passes the
    shift by more than the float range (orders in the hundreds) raises the
    shift to it and starts again.  An integral that came out zero, or has
    no segment, has ln I = -inf, one that is not a number ln I = NaN.
    """
    rule = _FloatTanhSinh(_FLOAT_REL_FLOOR * max(1.0, q))
    while True:

        def integrand(x: float, shift: float = shift) -> float:
            log_value = log_f(x)
            shifted = log_value - shift
            if shifted > 700:
                raise _ShiftTooLow(log_value)
            return math.exp(shifted)

        try:
            value, err = _quad(integrand, points, rule)
            break
        except _ShiftTooLow as exc:
            shift = exc.log_value
    if value > 0:
        # ln value = ln m + e ln 2 for value = m 2^e: the shift and e ln 2
        # may nearly cancel, and e * _LN2_HI is exact
        m, e = math.frexp(value)
        return (shift + e * _LN2_HI) + (math.log(m) + e * _LN2_LO), err / value
    return (-math.inf if value == 0 else math.nan), math.nan


def _log_add(first: tuple[float, float], second: tuple[float, float]) -> tuple[float, float]:
    """(ln(I1 + I2), relative error) from two integrals given as (ln I,
    relative error).  An integral that came out zero adds nothing; a NaN
    makes the sum NaN."""
    (hi, hi_rel), (lo, lo_rel) = first, second
    if math.isnan(hi) or math.isnan(lo):
        return math.nan, math.nan
    if lo > hi:
        (hi, hi_rel), (lo, lo_rel) = (lo, lo_rel), (hi, hi_rel)
    if lo == -math.inf:
        return hi, hi_rel
    ratio = math.exp(lo - hi)
    return hi + math.log1p(ratio), (hi_rel + lo_rel * ratio) / (1 + ratio)


def _radial_quad(log_f, points: list[float], tail, q: float) -> tuple[float, float]:
    """A radial integral by quadrature, as (ln I, relative error estimate):
    exp(log_f) over the breakpoints from 0 to the last zero, plus the tail
    past it, a (log integrand, breakpoints) pair in a variable of its own.

    The tail's integrand is taken relative to the first part's integral, so
    that a tail too small to count underflows to 0 and ends at the second
    level, as a segment of the first part would.
    """
    head = _quad_log(log_f, points, q)
    if math.isnan(head[0]):
        return head
    if head[0] == -math.inf:
        return _quad_log(*tail, q)
    return _log_add(head, _quad_log_shifted(*tail, q, head[0]))


def _position_integrand(state: HydrogenicState, q: float):
    """The log of the position integrand, q ln(density) + (D-1) ln r, its
    breakpoints 0 and the zeros, and its tail past the last breakpoint x_k.

    Past x_k the integrand is at most a multiple of the envelope
    r^(2(n-1)q+D-1) e^(-qr/lam), which peaks at r = scale, and it decays
    exponentially: the tail runs in s = (r - x_k) / scale over [0, inf).
    """
    l, D = state.l, state.D
    k, alpha, lam = state.n - l - 1, 2 * l + D - 2, float(state.lam)
    log_norm = log_float(ExactScalar(radial_norm_squared(state) / state.lam**D))
    log_poly = laguerre_log_abs(k, alpha)
    two_l, dim, q = 2 * l, D - 1, float(q)

    def log_integrand(r: float) -> float:
        """q ln of the density N^2 x^(2l) e^-x L_k^(alpha)(x)^2, x = r / lam,
        times r^(D-1)."""
        rt = r / lam
        log_density = log_norm + two_l * math.log(rt) - rt + 2 * log_poly(rt)
        return q * log_density + dim * math.log(r)

    points = [0.0] + [lam * r for r in _laguerre_nodes(k, Fraction(alpha))]
    last, scale = points[-1], lam * (2 * (state.n - 1) + dim / q)
    log_scale = math.log(scale)

    def log_tail(s: float) -> float:
        return log_integrand(last + scale * s) + log_scale

    return log_integrand, points, (log_tail, [0.0, math.inf])


def position_radial_power_integral(state: HydrogenicState, q: float) -> tuple[float, float]:
    """Integral of the q-th power of the radial position density against
    r^(D-1) dr, as (ln I, relative error estimate): in closed form at
    k = n - l - 1 = 0 (_add_position_closed_form), by quadrature above."""
    validate(state)
    if state.n == state.l + 1:
        total = _LogSum(float(q))
        _add_position_closed_form(total, state)
        return total.rounded()
    return _radial_quad(*_position_integrand(state, q), float(q))


def _momentum_integrand(state: HydrogenicState, q: float):
    """The log of the momentum integrand, q ln(density) + (D-1) ln p, its
    breakpoints 0 and the zeros (at k = 0, which has none, v = 1), and its
    tail past the last breakpoint p_k.

    Past p_k the integrand decays as p^-e, e = 2 sigma_0 + 1 with
    sigma_0 = (l+D+1) q - D/2 > 0 above the divergence threshold.  In
    t = (Z / (eta p))^2 it is t^(sigma_0 - 1) times a factor bounded near
    t = 0, and in w = t^sigma, sigma = min(sigma_0, 1), it is bounded on the
    finite segment [0, w_k]; log_tail forms it from ln w, never from p.
    """
    l, D, L = state.l, state.D, state.L
    k = state.n - l - 1
    log_k2 = log_float(radial_momentum_norm_squared(state))
    v_per_p = float(state.eta / state.Z)
    decay = float(2 * L + 4)
    log_poly = gegenbauer_log_abs(k, float(L + 1))
    two_l, dim, q = 2 * l, D - 1, float(q)

    def log_integrand(p: float) -> float:
        """q ln of the density times p^(D-1).  With v = eta p / Z, u = v^2
        and y = (1-u)/(1+u) the density is K^2 u^l (1+u)^-(2L+4) C(y)^2, C
        the Gegenbauer polynomial of degree k and parameter L+1.  Past v = 1
        it is formed from 1/v^2, so that u cannot overflow."""
        v = v_per_p * p
        log_v = math.log(v)
        if v <= 1.0:
            u = v * v
            y, log_1pu = (1 - u) / (1 + u), math.log1p(u)
        else:
            w = (1 / v) ** 2
            y, log_1pu = (w - 1) / (w + 1), 2 * log_v + math.log1p(w)
        log_density = log_k2 + two_l * log_v - decay * log_1pu + 2 * log_poly(y)
        return q * log_density + dim * math.log(p)

    zeros = _gegenbauer_nodes(k, state.L + 1) or [0.0]
    scale = float(state.Z / state.eta)
    points = [0.0] + [scale * math.sqrt((1 - y) / (1 + y)) for y in reversed(zeros)]
    # sigma_0 exactly, q being a dyadic rational; sigma rounded once, and
    # excess = sigma_0 / sigma - 1 the power of w that t^sigma_0 / w leaves,
    # in floats at sigma = 1 so that it goes to inf past the float range
    q_num, q_den = q.as_integer_ratio()
    sigma_0 = Fraction(2 * (l + D + 1) * q_num - D * q_den, 2 * q_den)
    if sigma_0 <= 0:
        check_momentum_order(D, l, Fraction(q_num, q_den))
    if sigma_0 < 1:
        sigma = float(sigma_0)
        excess = float(sigma_0 / Fraction(sigma) - 1)
    else:
        sigma, excess = 1.0, (l + D + 1) * q - (D + 2) / 2
    # p^(D-1) dp = (Z/eta)^D / (2 sigma) t^(-D/2) dw / w
    log_const = log_float(ExactScalar((state.Z / state.eta) ** D / 2)) - math.log(sigma)
    y_last = zeros[0]
    w_last = ((1 + y_last) / (1 - y_last)) ** sigma

    def log_tail(w: float) -> float:
        """The integrand in w: q ln of K^2 (1+t)^-(2L+4) C(y)^2, y =
        (t-1)/(t+1), plus excess ln w and log_const."""
        log_w = math.log(w)
        t = math.exp(log_w / sigma)
        log_density = log_k2 - decay * math.log1p(t) + 2 * log_poly((t - 1) / (t + 1))
        return q * log_density + excess * log_w + log_const

    return log_integrand, points, (log_tail, [0.0, w_last])


def momentum_radial_power_integral(state: HydrogenicState, q: float) -> tuple[float, float]:
    """Integral of the q-th power of the radial momentum density against
    p^(D-1) dp, as (ln I, relative error estimate): in closed form at
    k = n - l - 1 = 0 (_add_momentum_closed_form), by quadrature above."""
    validate(state)
    if state.n == state.l + 1:
        total = _LogSum(float(q))
        _add_momentum_closed_form(total, state)
        return total.rounded()
    return _radial_quad(*_momentum_integrand(state, q), float(q))


# The Bernoulli numbers B_2, B_4, ..., B_22.
_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
)

# ln Gamma(z + 1/2) - ln Gamma(z) = ln(z)/2 + sum over odd n of c_n z^-n, with
# c_n = (2^-n - 2) B_(n+1) / (n (n+1)) from the Bernoulli polynomials at 1/2
# and 0 (DLMF 5.11.8).  From z = 10 on, the terms through z^-15 leave an
# error below 4e-18.
_HALF_STEP_SERIES = tuple(
    float((Fraction(1, 2**n) - 2) * bernoulli / (n * (n + 1)))
    for n, bernoulli in zip(range(1, 16, 2), _BERNOULLI)
)
_HALF_STEP_SERIES_FROM = 9.0


def _log_gamma_ratio(x: float, twice_a: int) -> float:
    """ln Gamma(x + 1 + a) - ln Gamma(x + 1) for x >= 0 and a = twice_a / 2,
    twice_a >= 0, without forming either ln Gamma, so that no large value
    cancels.

    The whole steps are the logs of the factors x + a, x + a - 1, ... down
    to x + 1 + a - floor(a).  The half step ln Gamma(z + 1/2) - ln Gamma(z),
    z = x + 1, steps z up by its recurrence until x >= _HALF_STEP_SERIES_FROM
    and takes the asymptotic series there.  fsum adds the parts.
    """
    whole, half = divmod(twice_a, 2)
    base = x + 0.5 * half
    parts = [math.log(base + i) for i in range(1, whole + 1)]
    if half:
        # ln Gamma(z + 1/2) - ln Gamma(z) = that at z + 1 - ln(1 + 1/(2z))
        while x < _HALF_STEP_SERIES_FROM:
            parts.append(-math.log1p(0.5 / (x + 1)))
            x += 1.0
        w = 1.0 / (x + 1)
        w2, series = w * w, 0.0
        for c in reversed(_HALF_STEP_SERIES):
            series = series * w2 + c
        parts += [0.5 * math.log(x + 1), series * w]
    return math.fsum(parts)


_HALF_LOG_PI = log_float(ExactScalar.pi_power(1))


@functools.lru_cache(maxsize=None)
def _log_sphere_measure(D: int) -> float:
    """ln(2 pi^(D/2)), which is ln of the sphere's area times Gamma(D/2)."""
    return log_float(ExactScalar.pi_power(D, 2))


# -- closed forms at k = 0 ----------------------------------------------------
#
# At k = n - l - 1 = 0 the radial density is a single monomial term, and the
# integral of its q-th power is a Gamma function in position space and a Beta
# function in momentum space, at any real q; the angular factor of an
# all-equal chain is a ratio of Gamma functions too.  A float q is an exact
# dyadic rational, and so is every Gamma argument formed from it.  Each log
# is summed exactly, up to a bounded error, from dyadic multiples of the logs
# of exact scalars, and rounded once: at large l the terms of ln Gamma are
# many orders larger than their sum, and a sum of rounded terms (such as
# math.lgamma values) loses their roundings.

# _LogSum's fixed point: integers in units of 2^-_FIXED_BITS.
_FIXED_BITS = 128


def _fixed(num: int, den: int) -> int:
    """num / den in units of 2^-_FIXED_BITS, rounded down: less than one unit
    below."""
    return (num << _FIXED_BITS) // den


def _fixed_times(num: int, den: int, x: float) -> int:
    """_fixed of num / den * x."""
    x_num, x_den = x.as_integer_ratio()
    return _fixed(num * x_num, den * x_den)


def _from_fixed(units: int) -> float:
    """units * 2^-_FIXED_BITS rounded to a float, inf past the float range."""
    try:
        return units / (1 << _FIXED_BITS)
    except OverflowError:
        return math.copysign(math.inf, units)


# Stirling's series (DLMF 5.11.1): ln Gamma(w) = (w - 1/2) ln w - w +
# ln(2 pi)/2 + sum over k = 1..10 of B_2k / (2k (2k-1) w^(2k-1)) + R.  For
# real w > 0, |R| is at most the first term left out (DLMF 5.11(ii)), which
# from w = _STIRLING_FROM = 32 on is below 3.5e-31.  _STIRLING_ERROR adds 8
# units for the floors of the fixed-point series (about 4 at most).
_STIRLING_FROM = 32
_STIRLING_SERIES = tuple(
    _fixed(b.numerator, b.denominator * 2 * k * (2 * k - 1))
    for k, b in enumerate(_BERNOULLI[:10], 1)
)
_STIRLING_ERROR = 8 + _fixed(
    abs(_BERNOULLI[10].numerator), _BERNOULLI[10].denominator * 22 * 21 * _STIRLING_FROM**21
)
# _LogSum.total takes the log of a product in lowest terms up to this many
# bits of numerator and denominator together, and of the two apart past it,
# where reducing them (a gcd of 4,000 bits, say) costs more than a second log.
_REDUCE_BITS = 2000


class _LogSum:
    """A sum of terms (c / den) ln a and of dyadic rationals, for integers c
    and positive monomials a, kept exact but for a bounded error.

    den is twice the denominator of the order q, so that q, 1/2 and every
    Gamma argument formed from them are integers over it; q_units is q in
    units of 1/den.  The logs are held as one running product (_Monomial)
    per coefficient, and total() takes each by log_float_parts; the rest is
    an integer in units of 2^-_FIXED_BITS.
    """

    __slots__ = ("den", "q_units", "logs", "fixed", "error")

    def __init__(self, q: float) -> None:
        num, den = q.as_integer_ratio()
        self.den, self.q_units = 2 * den, 2 * num
        self.logs: dict[int, _Monomial] = {}
        self.fixed = 0
        self.error = 0  # a bound on the error of fixed, in the same units

    def add_log(self, c: int, num: int, den: int = 1, half: int = 0) -> None:
        """Add (c / self.den) ln(num/den pi^(half/2))."""
        if c < 0:
            c, num, den, half = -c, den, num, -half
        held = self.logs.get(c)
        if held is None:
            self.logs[c] = _Monomial(num, den, half)
        else:
            held.times(num, den, half=half)

    def add_log_gamma(self, z: int, sign: int = 1) -> None:
        """Add sign ln Gamma(z / self.den), z > 0.  Below _STIRLING_FROM an
        integer or half-integer argument takes gamma_integers; any other
        argument, Stirling's series at w = z / den + m >= _STIRLING_FROM, less
        ln of the rising product (z/den) (z/den + 1) ... (z/den + m - 1)."""
        den = self.den
        twice, rest = divmod(2 * z, den)
        if not rest and twice < 2 * _STIRLING_FROM:
            num, gamma_den, half = gamma_integers(twice)
            self.add_log(sign * den, num, gamma_den, half)
            return
        m = max(0, _STIRLING_FROM - z // den)
        if m:
            self.add_log(-sign * den, math.prod(range(z, z + m * den, den)), den**m)
            z += m * den
        self.add_log(sign * (z - den // 2), z, den)
        self.add_log(sign * den // 2, 2, 1, 2)  # ln(2 pi) / 2
        inverse = (den << _FIXED_BITS) // z
        inverse_squared = inverse * inverse >> _FIXED_BITS
        series = 0
        for c in reversed(_STIRLING_SERIES):
            series = (series * inverse_squared >> _FIXED_BITS) + c
        part = (series * inverse >> _FIXED_BITS) - _fixed(z, den)
        self.fixed += part if sign > 0 else -part
        self.error += _STIRLING_ERROR

    def total(self) -> tuple[int, int]:
        """The sum and a bound on its error, in units of 2^-_FIXED_BITS.

        log_float_parts gives ln a as hi + lo, lo the float nearest ln a - hi,
        so off by at most ulp(lo)/2; the bound counts ulp(lo) per unit of c,
        and a unit for each floor.
        """
        fixed, error, den = self.fixed, self.error, self.den
        for c, a in self.logs.items():
            if a.num.bit_length() + a.den.bit_length() <= _REDUCE_BITS:
                parts = [(c, a.scalar())]
            else:
                parts = [(c, ExactScalar.pi_power(a.half, a.num)), (-c, ExactScalar(a.den))]
            for coef, scalar in parts:
                if scalar == 1:
                    continue
                hi, lo = log_float_parts(scalar)
                fixed += _fixed_times(coef, den, hi) + _fixed_times(coef, den, lo)
                error += _fixed_times(abs(coef), den, math.ulp(lo)) + 3
        return fixed, error

    def rounded(self) -> tuple[float, float]:
        """The sum rounded once to a float, and a bound on the error of that
        float: the sum's own, plus half an ulp of the float."""
        fixed, error = self.total()
        value = _from_fixed(fixed)
        return value, _from_fixed(error) + 0.5 * math.ulp(value)


def _add_position_closed_form(total: _LogSum, state: HydrogenicState) -> None:
    """Add ln I of the position integral at k = 0.  The density is
    N^2 x^(2l) e^-x, x = r / lam, N^2 = radial_norm_squared / lam^D, so
    I = N^(2q) lam^D Gamma(z) q^-z with z = 2lq + D."""
    D, den, q = state.D, total.den, total.q_units
    lam_d = state.lam**D
    norm = radial_norm_squared(state) / lam_d
    total.add_log(q, norm.numerator, norm.denominator)
    total.add_log(den, lam_d.numerator, lam_d.denominator)
    z = 2 * state.l * q + D * den
    total.add_log_gamma(z)
    total.add_log(-z, q, den)


def _add_momentum_closed_form(total: _LogSum, state: HydrogenicState) -> None:
    """Add ln I of the momentum integral at k = 0.  The density is
    K^2 v^(2l) (1 + v^2)^-(2l+D+1), v = eta p / Z, so t = v^2 gives
    I = K^(2q) (Z/eta)^D B(a, b) / 2 with a = lq + D/2 and
    b = (l+D+1) q - D/2; b > 0 is q > D/(2l+2D+2), check_momentum_order's
    condition."""
    l, D, den, q = state.l, state.D, total.den, total.q_units
    a = l * q + D * den // 2
    b = (l + D + 1) * q - D * den // 2
    if b <= 0:
        check_momentum_order(D, l, Fraction(q, den))
    k_squared, half = radial_momentum_norm_squared(state).monomial()
    total.add_log(q, k_squared.numerator, k_squared.denominator, half)
    scale = (state.Z / state.eta) ** D
    total.add_log(den, scale.numerator, 2 * scale.denominator)
    total.add_log_gamma(a)
    total.add_log_gamma(b)
    total.add_log_gamma(a + b, -1)


def _add_equal_chain_angular(total: _LogSum, D: int, l: int) -> None:
    """Add ln of the angular integral of a chain whose entries all equal l,
    for any real order: 2^(1-q) pi^(D(1-q)/2) Gamma(l + D/2)^q Gamma(ql + 1)
    / (Gamma(l + 1)^q Gamma(ql + D/2))."""
    den, q = total.den, total.q_units
    num, gamma_den, half = gamma_integers(2 * l + D)
    total.add_log(den - q, 2, 1, D)  # 2 pi^(D/2)
    total.add_log(q, num, gamma_den * math.factorial(l), half)
    if D > 2:
        total.add_log_gamma(q * l + den)
        total.add_log_gamma(q * l + D * den // 2, -1)


def _closed_form_entropy(state: HydrogenicState, q: float, space: Space) -> tuple[float, float]:
    """(value, rel) of a quasi-spherical state (k = 0, all-equal chain): its
    radial and angular logs and D ln Z in one _LogSum, over 1 - q, rounded
    once.  rel bounds the error of ln(I_radial I_angular): the sum's, plus
    the rounding of the entropy at unit charge in those units,
    |1 - q| ulp / 2."""
    total = _LogSum(q)
    unit = state.unit_charge()
    if space == "position":
        _add_position_closed_form(total, unit)
    else:
        _add_momentum_closed_form(total, unit)
    _add_equal_chain_angular(total, state.D, state.l)
    fixed, error = total.total()
    # 1 - q = (den - q_units) / den
    one_minus_q = total.den - total.q_units
    unit_value = fixed * total.den / (one_minus_q << _FIXED_BITS)
    value = unit_value
    if state.Z != 1:
        hi, lo = log_float_parts(ExactScalar(state.Z**state.D))
        shift = _fixed_times(1, 1, hi) + _fixed_times(1, 1, lo)
        if space == "position":
            shift = -shift
        value = (fixed * total.den + shift * one_minus_q) / (one_minus_q << _FIXED_BITS)
    return value, _from_fixed(error) + 0.5 * abs(1 - q) * math.ulp(unit_value)


def angular_power_integral(D: int, mu: tuple[int, ...], q: float) -> tuple[float, float]:
    """Integral I of |harmonic|^(2q) over the sphere for real q, as
    (ln I, relative error estimate): ln(2 pi), the sum of the logs of the
    chain segments' integrals and q times the log of the exact oracle's
    squared norm (by log_float).  A segment with equal chain entries is the
    Beta factor B(1/2, s + 1), from _log_gamma_ratio; the others get
    adaptive quadrature over [0, 1], their integrands being even, split at
    the polynomial roots, whose relative errors add."""
    chain = canonical_chain(mu)
    q = float(q)
    num, den = q.as_integer_ratio()
    log_value = _log_sphere_measure(2)
    rel = 0.0
    for j in range(1, D - 1):
        two_alpha = D - j - 1
        mu_j, mu_j1 = chain[j - 1], chain[j]
        k = mu_j - mu_j1
        # s = q mu_j1 + alpha - 1/2, rounded once
        try:
            s = (2 * num * mu_j1 + (two_alpha - 1) * den) / (2 * den)
        except OverflowError:
            s = math.inf
        if k == 0:
            # B(1/2, s + 1) = Gamma(1/2) Gamma(s + 1) / Gamma(s + 3/2)
            log_value += _HALF_LOG_PI - _log_gamma_ratio(s, 1)
            continue
        lam = Fraction(two_alpha, 2) + mu_j1
        log_poly = gegenbauer_log_abs(k, float(lam))

        def log_integrand(t: float) -> float:
            g = (1 - t) * (1 + t)
            if g == 0:  # a node that rounded onto t = +-1
                return 2 * q * log_poly(t) if s == 0 else -math.inf
            return 2 * q * log_poly(t) + s * math.log(g)

        # the integrand is even in t: twice its integral over [0, 1], split
        # at the zeros above 0 (at odd k, 0 is the middle one)
        points = [0.0] + _gegenbauer_nodes(k, lam)[(k + 1) // 2 :] + [1.0]
        log_part, part_rel = _quad_log(log_integrand, points, q)
        log_value += log_part + _LN2
        rel += part_rel
    log_value += q * log_float(_angular_norm_squared(D, chain).scalar())
    return log_value, rel


def _plus_log_power(value: float, power: int, Z: Fraction) -> float:
    """value + power * ln Z, rounded once: power * ln Z is +-ln(Z^|power|)
    from log_float_parts, and the rounding error of the leading sum is
    carried exactly (Knuth's two-sum) into the trailing one."""
    hi, lo = log_float_parts(ExactScalar(Z ** abs(power)))
    if power < 0:
        hi, lo = -hi, -lo
    total = value + hi
    back = total - value
    carried = (value - (total - back)) + (hi - back)
    return total + (carried + lo)


class FloatEntropy(NamedTuple):
    value: float
    error: float


def _check_positive(log_integral: float, name: str) -> None:
    """The integral of a positive density's power is positive, so its log is
    finite; the rule answers 0 (ln = -inf) when every node misses a peak
    narrower than its spacing, and NaN when the integrand was not finite at
    some node."""
    if math.isnan(log_integral):
        raise QuadratureError(
            f"the {name} integral is not a number (the integrand was not finite "
            "at some quadrature node); no finite entropy follows from it"
        )
    if log_integral == -math.inf:
        raise QuadratureError(
            f"the {name} integral came out zero (the quadrature nodes missed "
            "the density's mass); no finite entropy follows from it"
        )


def renyi_float(state: HydrogenicState, q, space: Space) -> FloatEntropy:
    """Renyi entropy of any real order q > 0, q != 1, from the integrals of
    the density power, with a propagated error estimate: for a
    quasi-spherical state (k = n - l - 1 = 0, all chain entries equal) by
    _closed_form_entropy, otherwise by quadrature wherever no closed form
    applies.

    In momentum space the entropy is infinite for q <= D/(2l+2D+2) (see
    states.check_momentum_order); such orders raise ValueError, as do orders
    too large or too small for a float.  A state with n > MAX_FLOAT_N raises
    FloatCapExceeded.

    The integrals run on the state at Z = 1, whose density lives at r ~ 1:
    the density at charge Z is Z^D rho(Z r) in position space and
    Z^-D gamma(p / Z) in momentum space, so the entropy is the one at Z = 1
    minus (position) or plus (momentum) D ln Z.
    """
    order = q
    try:
        q = float(order)
    except OverflowError:
        raise ValueError("q is too large for the float path (above 1.8e308)") from None
    if q == 0 and order > 0:
        raise ValueError("q is too small for the float path (below 4.9e-324)")
    if q <= 0 or q == 1:
        raise ValueError(f"need real q > 0, q != 1, got {q}")
    if space not in ("position", "momentum"):
        raise ValueError(f"unknown space {space!r}")
    validate(state)
    if space == "momentum":
        check_momentum_order(state.D, state.l, order)
    if state.n > MAX_FLOAT_N:
        raise FloatCapExceeded(
            f"the float path takes n <= {MAX_FLOAT_N}, got n={brief(state.n)}"
        )
    if state.is_ns():
        value, rel = _closed_form_entropy(state, q, space)
    else:
        D, chain, unit = state.D, state.canonical_mu(), state.unit_charge()
        if space == "position":
            log_radial, radial_rel = position_radial_power_integral(unit, q)
        else:
            log_radial, radial_rel = momentum_radial_power_integral(unit, q)
        _check_positive(log_radial, f"radial {space}")
        if all(m == chain[0] for m in chain):
            # Gamma-closed angular factor, as in _add_equal_chain_angular; the
            # radial quadrature's floor covers its rounding
            l = abs(chain[0])
            log_angular = (
                (1 - q) * _log_sphere_measure(D)
                + q * _log_gamma_ratio(l, D - 2)
                - _log_gamma_ratio(q * l, D - 2)
            )
            angular_rel = 0.0
        else:
            log_angular, angular_rel = angular_power_integral(D, state.mu, q)
            _check_positive(log_angular, "angular")
        rel = float(radial_rel + angular_rel)
        value = (log_radial + log_angular) / (1 - q)
        if state.Z != 1:
            value = _plus_log_power(value, (1 if space == "momentum" else -1) * D, state.Z)
    # the rounding of the value itself is part of its error
    result = FloatEntropy(value, max(rel / abs(1 - q), math.ulp(value)))
    if not rel <= QUADRATURE_REL_TARGET:  # a NaN estimate fails too
        # a value that is not finite (q l past the float range) is no entropy
        value, error = result if math.isfinite(value) else (None, None)
        raise QuadratureError(
            f"the integrals' relative error {rel:.2e} misses the quadrature target "
            f"{QUADRATURE_REL_TARGET:.0e} (the entropy's error is that over |1 - q|)",
            value,
            error,
        )
    return result


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One comparison of a closed-form W with the oracle's W.  The two
    scalars are kept, and ``closed`` and ``oracle`` render them when read:
    a passing sweep without --full never reads them."""

    name: str
    closed_w: ExactScalar
    oracle_w: ExactScalar
    equal: bool
    residual: float

    @property
    def closed(self) -> str:
        return self.closed_w.render()

    @property
    def oracle(self) -> str:
        return self.oracle_w.render()

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


def _log_abs(w: ExactScalar) -> float:
    """ln |w| of a nonzero monomial."""
    r, half = w.monomial()
    return log_float(ExactScalar.pi_power(half, abs(r)))


def _compare(name: str, closed: ExactScalar, oracle: ExactScalar) -> CheckResult:
    equal = closed == oracle
    if equal:
        residual = 0.0
    elif not (closed and oracle):
        residual = 1.0
    else:
        # |a - b| / max(|a|, |b|) is 1 - e^-gap for equal signs and 1 + e^-gap
        # for opposite ones, with gap = |ln|a| - ln|b||, from logs that stay
        # finite where a or b is past the float range
        gap = abs(_log_abs(closed) - _log_abs(oracle))
        if closed.is_positive_monomial == oracle.is_positive_monomial:
            residual = -math.expm1(-gap)
        else:
            residual = 1 + math.exp(-gap)
    return CheckResult(name, closed, oracle, equal, residual)


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
