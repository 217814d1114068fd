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
from hydrenyi.exactnum import ExactScalar, HalfInt, exact_rational, gamma_integers, to_float
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
    check_chain,
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
    """Quadrature failed to reach the relative error target.  value and
    estimate are the entropy and its error estimate, or None when an
    integral came out zero and there is no entropy to report."""

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

    def times_rational(self, r: Fraction, power: int = 1) -> None:
        self.times(r.numerator, r.denominator, power)

    def times_gamma(self, twice: int, power: int = 1) -> None:
        """Multiply by Gamma(twice/2)^power, from gamma_integers."""
        num, den, half = gamma_integers(twice)
        self.times(num, den, power, half)

    def scalar(self) -> ExactScalar:
        return ExactScalar.pi_power(self.half, Fraction(self.num, self.den))


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

    def times_moment(self, out: _Monomial, k: int) -> None:
        """Multiply out by moment(k); k even for gegenbauer."""
        if self.kind == "laguerre":
            out.times(math.factorial(k))
        elif self.kind == "gegenbauer":
            twice_s = HalfInt.from_value(self.params[0]).twice_value
            out.times_gamma(k + 1)
            out.times_gamma(twice_s + 2)
            out.times_gamma(k + twice_s + 3, -1)
        elif self.kind == "jacobi-shifted":
            a, b = self.params
            twice_a = HalfInt.from_value(a).twice_value
            twice_b = HalfInt.from_value(b).twice_value
            if (twice_a + twice_b) % 2:
                raise ValueError("shifted moment needs an integer total 2-power")
            out.times(2, 1, (twice_a + twice_b) // 2 + k + 1)
            out.times_gamma(twice_a + 2)
            out.times_gamma(twice_b + 2 * k + 2)
            out.times_gamma(twice_a + twice_b + 2 * k + 4, -1)
        else:
            raise ValueError(f"unknown moment basis {self.kind!r}")

    def moment(self, k: int) -> ExactScalar:
        if self.kind == "gegenbauer" and k % 2 == 1:
            return ExactScalar(0)
        out = _Monomial()
        self.times_moment(out, k)
        return out.scalar()

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

    def integrate(self, poly: PolyExact) -> Fraction:
        """sum_k [x^k]poly * moment(k) / moment(0), as one rational.

        With moment(k) = moment(0) * prod_{j<k} num_j/den_j, the numerators
        of poly are summed in integers over den * prod_j den_j: term k
        carries the prefix product of the ratio numerators and the suffix
        product of their denominators.  For gegenbauer only the even
        coefficients count.
        """
        nums = poly.nums[::2] if self.kind == "gegenbauer" else poly.nums
        ratios = self._ratios(len(nums) - 1)
        if not nums:
            return Fraction(0)
        suffix = [1] * len(nums)
        for j in range(len(ratios) - 1, -1, -1):
            suffix[j] = suffix[j + 1] * ratios[j][1]
        total, prefix = 0, 1
        for k, c in enumerate(nums):
            if c:
                total += c * prefix * suffix[k]
            if k < len(ratios):
                prefix *= ratios[k][0]
        return Fraction(total, poly.den * suffix[0])


def _check_order(q, minimum: int = 1) -> int:
    q = exact_rational(q)
    if q.denominator != 1 or q < minimum:
        raise ValueError(f"oracle needs integer q >= {minimum}, got {q}")
    return q.numerator


def radial_position_w_exact(state: HydrogenicState, q: int) -> ExactScalar:
    """Entropic moment of the radial position density by termwise factorial
    moments of the expanded Laguerre power:
    lambda^(D(1-q)) (lambda^D N^2)^q q^-(2lq+D) times the integral."""
    q = _check_order(q)
    d = validate(state)
    l, D = d.l, state.D
    # scaled after powering, the convolution runs on smaller numerators
    poly = (
        poly_pow(laguerre(state.n - l - 1, 2 * l + D - 2), 2 * q)
        .scale_arg(Fraction(1, q))
        .shift_degree(2 * l * q + D - 1)
    )
    basis = MomentBasis("laguerre")
    w = _Monomial()
    basis.times_moment(w, 0)
    w.times_rational(basis.integrate(poly))
    # lambda = eta / (2Z) = (2n+D-3) / (4Z)
    w.times((2 * state.n + D - 3) * state.Z.denominator, 4 * state.Z.numerator, D * (1 - q))
    w.times_rational(radial_norm_squared(state, d), q)
    w.times(1, q, 2 * l * q + D)
    return w.scalar()


def angular_w_exact(D: int, mu: tuple[int, ...], q: int) -> ExactScalar:
    """Entropic moment of a hyperspherical harmonic by even Beta moments of
    the expanded Gegenbauer powers: 2 pi times, per chain segment, its
    integral and its squared norm to the power q."""
    q = _check_order(q)
    check_chain(D, mu)
    chain = tuple(mu[:-1]) + (abs(mu[-1]),)
    w = _Monomial(2, 1, 2)  # the 2*pi from the phi integral
    norm = _Monomial(1, 2, -2)  # the 1/(2 pi) phi factor
    for j in range(1, D - 1):
        two_alpha = D - j - 1
        mu_j, mu_j1 = chain[j - 1], chain[j]
        k = mu_j - mu_j1
        # (alpha + mu_j) k! 2^(2 alpha + 2 mu_j1 - 1) Gamma(alpha + mu_j1)^2
        #   / (pi Gamma(2 alpha + mu_j + mu_j1))
        norm.times(
            (two_alpha + 2 * mu_j) * math.factorial(k) << (two_alpha + 2 * mu_j1 - 1),
            2,
            half=-2,
        )
        norm.times_gamma(two_alpha + 2 * mu_j1, 2)
        norm.times_gamma(2 * (two_alpha + mu_j + mu_j1), -1)
        power = poly_pow(gegenbauer(k, Fraction(two_alpha + 2 * mu_j1, 2)), 2 * q)
        assert not any(power.nums[1::2]), "odd moments of an even power must vanish"
        basis = MomentBasis("gegenbauer", (Fraction(2 * q * mu_j1 + two_alpha - 1, 2),))
        basis.times_moment(w, 0)
        w.times_rational(basis.integrate(power))
    w.times(norm.num, norm.den, q, norm.half)
    return w.scalar()


def radial_momentum_w_exact(state: HydrogenicState, q: int) -> ExactScalar:
    """Entropic moment of the radial momentum density by Beta moments in the
    shifted (1+y)^k basis: the Gegenbauer polynomial P(y) is written as
    Q(1+y) with Q(z) = P(z-1) before it is raised to the power 2q."""
    q = _check_order(q)
    d = validate(state)
    l, D = d.l, state.D
    # L + 1 = l + (D-1)/2
    power = poly_pow(gegenbauer(state.n - l - 1, Fraction(2 * l + D - 1, 2)).translate(-1), 2 * q)
    basis = MomentBasis(
        "jacobi-shifted",
        (  # a = lq + D/2 - 1, b = D(q - 1/2) + q(l+1) - 1
            Fraction(2 * l * q + D - 2, 2),
            Fraction(2 * D * q - D + 2 * q * (l + 1) - 2, 2),
        ),
    )
    w = _Monomial()
    basis.times_moment(w, 0)
    w.times_rational(basis.integrate(power))
    k_squared, half = radial_momentum_norm_squared(state, d).monomial()
    w.times(k_squared.numerator, k_squared.denominator, q, half)
    # (Z/eta)^D = (2Z / (2n+D-3))^D, and 2^-(q(2l+D+1))
    w.times(2 * state.Z.numerator, state.Z.denominator * (2 * state.n + D - 3), D)
    w.times(1, 1 << (q * (2 * l + D + 1)))
    return w.scalar()


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
# 2^-(prec+10); the float rule's levels have that node set, but it evaluates
# the nodes of the endpoint region only while their terms still count.
_QUADRATURE_PREC = mpmath.libmp.dps_to_prec(QUADRATURE_DPS)
_NODE_LIMIT = 2.0 ** -(_QUADRATURE_PREC + 10)

# The endpoint region is 1 - |x| <= _ENDPOINT_REGION.  There every integrand
# here is monotone (bounded at a finite endpoint, decaying in a tail) while
# the weights fall double-exponentially, so once a term is <= _NEGLIGIBLE
# times the sum of its side so far, the terms beyond it add less than a
# rounding of that sum (Bailey, Jeyabalan & Li, Experimental Math. 14, 2005).
_ENDPOINT_REGION = 2.0**-20
_NEGLIGIBLE = 2.0**-64

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

    Each level walks each side of a segment outward from the centre and
    stops that side in the endpoint region once its terms no longer count
    (see _terms).  Each segment stops once the estimated relative error of
    its last levels is <= _SEGMENT_REL_TARGET, and reports that estimate, but
    not less than rel_floor, times |I_seg|.  Every integrand here is
    non-negative, so a relative bound on each segment bounds the sum too.
    With deep_tail the nodes of an [a, inf) segment run towards infinity down
    to _DEEP_NODE_LIMIT instead of _NODE_LIMIT.
    """

    def __init__(self, rel_floor: float = _FLOAT_REL_FLOOR, deep_tail: bool = False):
        self.rel_floor = rel_floor
        self.tail_limit = _DEEP_NODE_LIMIT if deep_tail else _NODE_LIMIT

    def _terms(self, f, a: float, b: float, level: int) -> list[float]:
        """w f(x) for the nodes this level adds on [a, b].

        Each side runs every node outside the endpoint region and stops at
        its first node inside whose term is <= _NEGLIGIBLE times the side's
        sum so far on this level.  A side whose sum is still 0 does not stop,
        so mass right against an endpoint is still found at every level.
        """
        comps, weights = _level_nodes(level, _NODE_LIMIT)
        terms = []
        if b == math.inf:
            if level == 1:
                terms.append(math.pi * f(a + 1))
            # x -> a - 1 + 2/(1+x), with weight 2/(1+x)^2
            running = 0.0
            for c, w in zip(comps, weights):
                term = w * 2 / (2 - c) ** 2 * f(a + c / (2 - c))
                terms.append(term)
                if c <= _ENDPOINT_REGION and 0 < running and term <= _NEGLIGIBLE * running:
                    break
                running += term
            running = 0.0
            for c, w in zip(*_level_nodes(level, self.tail_limit)):
                term = w / c * (2 / c) * f(a + (2 - c) / c)
                terms.append(term)
                if c <= _ENDPOINT_REGION and 0 < running and term <= _NEGLIGIBLE * running:
                    break
                running += term
            return terms
        half = 0.5 * (b - a)
        if level == 1:
            terms.append(half * math.pi / 2 * f(a + half))
        for end, step in ((b, -half), (a, half)):
            running = 0.0
            for c, w in zip(comps, weights):
                term = half * w * f(end + step * c)
                terms.append(term)
                if c <= _ENDPOINT_REGION and 0 < running and term <= _NEGLIGIBLE * running:
                    break
                running += term
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
        norm = radial_norm_squared(state, d) / d.lam**D
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


def _check_positive(integral: mpmath.mpf, name: str) -> None:
    """The integral of a positive density's power is positive; the rule
    answers 0 when every node misses a peak narrower than its spacing."""
    if not integral > 0:  # a NaN fails too
        raise QuadratureError(
            f"the {name} integral came out zero (the quadrature nodes missed "
            "the density's mass); no finite entropy follows from it"
        )


def renyi_float(state: HydrogenicState, q, space: Space) -> FloatEntropy:
    """Renyi entropy of any real order q > 0, q != 1, by quadrature of the
    density power, with a propagated error estimate.

    In momentum space the entropy is infinite for q <= D/(2l+2D+2) (see
    states.check_momentum_order); such orders raise ValueError, as do orders
    too large for a float.
    """
    order = q
    try:
        q = float(order)
    except OverflowError:
        raise ValueError("q is too large for the float path (above 1.8e308)") from None
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
    _check_positive(radial, f"radial {space}")
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
            _check_positive(angular, "angular")
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _compare(name: str, closed: ExactScalar, oracle: ExactScalar) -> CheckResult:
    equal = closed == oracle
    if equal:
        residual = 0.0
    else:
        a, b = to_float(closed), to_float(oracle)
        residual = abs(a - b) / max(abs(a), abs(b), 1e-300)
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
