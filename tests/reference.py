"""Reference code that only the tests call.

The brute-force box sum that the hypergeometric kernel is checked against,
the mpf value of a scalar, the moments of the oracle's weights, the
pointwise densities and the energy of a state, the float path's log
integrands composed from separate polynomial evaluators, its eigenvalue
bisection with full Sturm counts and its entropy assembled at
QUADRATURE_DPS digits with the radial tails integrated by mpmath, the Gamma
and Beta forms of the k = 0 radial integrals and of quasi-spherical
entropies at any precision, the radial integrals of any k at any precision
in variables of their own, the ground-state and quasi-spherical
uncertainty shortcuts, and the paper's own
power linearizations of Laguerre and Jacobi polynomials.  The library and
the CLI call none of it.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from typing import Callable, Sequence

import mpmath

from hydrenyi import kernels, oracle
from hydrenyi.entropy import (
    UNCERTAINTY_TOLERANCE,
    UncertaintySum,
    _check_integer_order,
    _log_charge,
    _require_ns_inputs,
    conjugate_order,
    ns_momentum_entropy,
    ns_position_entropy,
    uncertainty_bound,
)
from hydrenyi.exactnum import (
    ExactScalar,
    RationalLike,
    gamma_exact,
    log_float,
    pochhammer,
)
from hydrenyi.hyperfun import LauricellaSpec, lauricella_fa
from hydrenyi.polynomials import PolyExact, gegenbauer, gegenbauer_log_abs, laguerre
from hydrenyi.states import (
    HydrogenicState,
    check_momentum_order,
    radial_momentum_norm_squared,
    radial_norm_squared,
    validate,
)

# The working precision of the references to the float path, in digits; the
# float rule's finite segments stop at mpmath's node set for it.
QUADRATURE_DPS = 30

# -- sums -----------------------------------------------------------------------


def multi_index_sum(
    bounds: Sequence[int], term: Callable[[tuple[int, ...]], Fraction]
) -> Fraction:
    """Exact sum of term(j) over the multi-index box prod [0, bounds[i]].

    Iterates in lexicographic order; the result is order-independent because
    the arithmetic is exact.  The empty box has exactly one point.
    """
    acc = Fraction(0)
    for idx in itertools.product(*(range(bound + 1) for bound in bounds)):
        acc += term(idx)
    return acc


# -- scalars --------------------------------------------------------------------


def to_mpf(a: ExactScalar, precision_bits: int = 128) -> mpmath.mpf:
    """Evaluate at the requested binary precision; result keeps its mantissa."""
    if precision_bits < 53:
        raise ValueError("precision must be at least 53 bits")
    r, k = a.monomial()
    with mpmath.workprec(precision_bits):
        value = mpmath.mpf(r.numerator) / mpmath.mpf(r.denominator)
        if k:
            value *= mpmath.pi ** (mpmath.mpf(k) / 2)
    return value


def to_float(a: ExactScalar, precision_bits: int = 128) -> float:
    return float(to_mpf(a, precision_bits))


# -- weight moments ---------------------------------------------------------------
#
# The moments of the three weights that the exact oracles integrate against,
# one at a time from their definitions; the oracles sum them from the ratios
# of consecutive moments instead.


def laguerre_moment(k: int) -> ExactScalar:
    """int_0^inf x^k e^-x dx = k!."""
    return ExactScalar(math.factorial(k))


def gegenbauer_moment(k: int, s: Fraction) -> ExactScalar:
    """int_-1^1 t^k (1-t^2)^s dt: 0 for odd k, else the Beta value
    B((k+1)/2, s+1)."""
    if k % 2:
        return ExactScalar(0)
    half_k = Fraction(k + 1, 2)
    return gamma_exact(half_k) * gamma_exact(s + 1) / gamma_exact(half_k + s + 1)


def shifted_moment(k: int, a: Fraction, b: Fraction) -> ExactScalar:
    """int_-1^1 (1-y)^a (1+y)^(b+k) dy = 2^(a+b+k+1) B(a+1, b+k+1), for an
    integer a + b."""
    power = a + b + k + 1
    assert power.denominator == 1
    beta = gamma_exact(a + 1) * gamma_exact(b + k + 1) / gamma_exact(power + 1)
    return beta * Fraction(2) ** int(power)


# -- the float path, one function per step --------------------------------------
#
# The oracle's radial integrands are one closure each, and its Laguerre and
# Gegenbauer evaluators are prescaled, the Laguerre one rescaled past x = 1
# too.  These separate, unscaled evaluators, composed as the integrands once
# were, are the reference that the closures must match bit for bit wherever
# the prescale is 2^0 and no rescale happens.


def laguerre_log_abs_unscaled(n: int, alpha: float) -> Callable[[float], float]:
    """The function x -> ln|L_n^(alpha)(x)|, by the recurrence
    (j+1) L_{j+1} = (2j+1+alpha-x) L_j - (j+alpha) L_{j-1} started at 1.

    The recurrence runs on L_j(x) / s^j with s = max(1, |x|), which stays
    bounded, so arguments up to the float range do not overflow.  Where the
    values pass the float range, or where they decay below the normal floats
    in the oscillating region past x = 1, mpmath evaluates the polynomial.
    """
    steps = [
        ((2 * j + 1 + alpha) / (j + 1), 1.0 / (j + 1), (j + alpha) / (j + 1))
        for j in range(n)
    ]

    def log_abs(x: float) -> float:
        s = max(1.0, abs(x))
        inv = 1.0 / s
        x_scaled, inv2 = x * inv, inv * inv
        prev, cur = 0.0, 1.0
        for a, b, c in steps:
            prev, cur = cur, (a * inv - b * x_scaled) * cur - c * inv2 * prev
        if not math.isfinite(cur) or max(abs(prev), abs(cur)) < sys.float_info.min:
            # past the float range, or underflowed: mpmath's hypergeometric form
            with mpmath.workdps(QUADRATURE_DPS):
                return float(mpmath.log(abs(mpmath.laguerre(n, alpha, x))))
        return math.log(abs(cur)) + n * math.log(s) if cur else -math.inf

    return log_abs


def gegenbauer_log_abs_unscaled(n: int, lam: float) -> Callable[[float], float]:
    """The function x -> ln|C_n^(lam)(x)| on [-1, 1], by the recurrence
    (j+1) C_{j+1} = 2(j+lam) x C_j - (j+2lam-1) C_{j-1} started at 1.  It
    reaches inf - inf once ln C_n^(lam)(1) passes the float range."""
    steps = [(2 * (j + lam) / (j + 1), (j + 2 * lam - 1) / (j + 1)) for j in range(n)]

    def log_abs(x: float) -> float:
        prev, cur = 0.0, 1.0
        for a, c in steps:
            prev, cur = cur, a * x * cur - c * prev
        return math.log(abs(cur)) if cur else -math.inf

    return log_abs


def radial_momentum_log_density(state: HydrogenicState) -> Callable[[float], float]:
    """The function p -> ln of the radial momentum density factor, for a
    validated state.

    With v = eta p / Z, u = v^2 and y = (1-u)/(1+u) the density is
    K^2 u^l (1+u)^-(2L+4) C(y)^2, C the Gegenbauer polynomial of degree
    n-l-1 and parameter L+1.  Past v = 1 it is formed from 1/v^2, so that u
    cannot overflow.
    """
    l, L = state.l, state.L
    log_k2 = log_float(radial_momentum_norm_squared(state))
    v_per_p = float(state.eta / state.Z)
    decay = float(2 * L + 4)
    log_poly = gegenbauer_log_abs_unscaled(state.n - l - 1, float(L + 1))

    def log_density(p: float) -> float:
        v = v_per_p * p
        log_v = math.log(v)
        if v <= 1.0:
            u = v * v
            y, log_1pu = (1 - u) / (1 + u), math.log1p(u)
        else:
            w = (1 / v) ** 2
            y, log_1pu = (w - 1) / (w + 1), 2 * log_v + math.log1p(w)
        return log_k2 + 2 * l * log_v - decay * log_1pu + 2 * log_poly(y)

    return log_density


def position_log_integrand(state: HydrogenicState, q: float) -> Callable[[float], float]:
    """r -> q ln(radial position density) + (D-1) ln r, the density taken as
    a function of r / lam with its norm read at QUADRATURE_DPS digits."""
    l, D = state.l, state.D
    lam = float(state.lam)
    with mpmath.workdps(QUADRATURE_DPS):
        norm = radial_norm_squared(state) / state.lam**D
        log_norm = float(mpmath.log(mpmath.mpf(norm.numerator) / norm.denominator))
    log_poly = laguerre_log_abs_unscaled(state.n - l - 1, 2 * l + D - 2)
    q = float(q)

    def log_integrand(r: float) -> float:
        rt = r / lam
        log_density = log_norm + 2 * l * math.log(rt) - rt + 2 * log_poly(rt)
        return q * log_density + (D - 1) * math.log(r)

    return log_integrand


def momentum_log_integrand(state: HydrogenicState, q: float) -> Callable[[float], float]:
    """p -> q ln(radial momentum density) + (D-1) ln p."""
    log_density = radial_momentum_log_density(state)
    D, q = state.D, float(q)

    def log_integrand(p: float) -> float:
        return q * log_density(p) + (D - 1) * math.log(p)

    return log_integrand


def angular_log_integrand(k: int, lam: float, s: float, q: float) -> Callable[[float], float]:
    """t -> 2q ln|C_k^(lam)(t)| + s ln(1 - t^2), one chain segment's
    integrand of the angular power integral."""
    log_poly = gegenbauer_log_abs_unscaled(k, lam)

    def log_integrand(t: float) -> float:
        g = (1 - t) * (1 + t)
        if g == 0:
            return 2 * q * log_poly(t) if s == 0 else -math.inf
        return 2 * q * log_poly(t) + s * math.log(g)

    return log_integrand


def jacobi_eigenvalues(diag: list[float], off_squared: list[float]) -> list[float]:
    """Ascending eigenvalues of a symmetric tridiagonal matrix by bisection,
    each step taking the full Sturm count of negative pivots over the whole
    LDL^T factorization of the matrix minus x."""
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


# -- the float path's assembly at QUADRATURE_DPS digits -------------------------


def quad_log_at_dps(log_f, points, q):
    """The integral of exp(log_f) and its error estimate as mpf: the same
    rule and shift as oracle._quad_log, with the scale exp(shift) put back
    at QUADRATURE_DPS digits."""
    rule = oracle._FloatTanhSinh(oracle._FLOAT_REL_FLOOR * max(1.0, q))
    shift = max(log_f(0.5 * (a + b)) for a, b in zip(points, points[1:]))
    while True:

        def integrand(x: float, shift: float = shift) -> float:
            log_value = log_f(x)
            shifted = log_value - shift
            if shifted > 700:
                raise oracle._ShiftTooLow(log_value)
            return math.exp(shifted)

        try:
            value, err = oracle._quad(integrand, points, rule)
            break
        except oracle._ShiftTooLow as exc:
            shift = exc.log_value
    with mpmath.workdps(QUADRATURE_DPS):
        scale = mpmath.exp(shift)
        return value * scale, err * scale


def radial_integral_at_dps(state: HydrogenicState, q: float, space: str):
    """The radial power integral of a state with k = n - l - 1 >= 1 and its
    error estimate as mpf: from 0 to the last zero by the float path's rule
    on its own log integrand (quad_log_at_dps), and the tail past the last
    zero by mpmath.quad at QUADRATURE_DPS digits in r or p itself, not in
    the float path's tail variables."""
    integrand = {"position": oracle._position_integrand, "momentum": oracle._momentum_integrand}
    log_f, points, _ = integrand[space](state, q)
    head, head_err = quad_log_at_dps(log_f, points, q)
    # mpmath's error estimate is absolute: the tail is scaled as the head
    # is, so that its values do not sink below the working precision
    shift = max(log_f(0.5 * (a + b)) for a, b in zip(points, points[1:]))
    with mpmath.workdps(QUADRATURE_DPS):
        tail, tail_err = mpmath.quad(
            lambda x: mpmath.exp(log_f(float(x)) - shift), [points[-1], mpmath.inf], error=True
        )
        scale = mpmath.exp(shift)
        return head + tail * scale, head_err + tail_err * scale


def angular_power_integral_at_dps(D: int, mu: tuple[int, ...], q: float):
    """The angular power integral and its error estimate as mpf: the float
    path's quadrature segments scaled back, Beta factors by mpmath.beta and
    the squared norm to the power q, all at QUADRATURE_DPS digits."""
    chain = tuple(mu[:-1]) + (abs(mu[-1]),)
    q = float(q)
    with mpmath.workdps(QUADRATURE_DPS):
        qm = mpmath.mpf(q)
        value = 2 * mpmath.pi
        err_rel = mpmath.mpf(0)
        norm = oracle._angular_norm_squared(D, chain)
        norm2 = mpmath.mpf(norm.num) / norm.den * mpmath.pi ** (mpmath.mpf(norm.half) / 2)
        for j in range(1, D - 1):
            alpha = Fraction(D - j - 1, 2)
            alpha_m = mpmath.mpf(alpha.numerator) / alpha.denominator
            mu_j, mu_j1 = chain[j - 1], chain[j]
            k = mu_j - mu_j1
            s = qm * mu_j1 + alpha_m - mpmath.mpf(1) / 2
            if k == 0:
                value *= mpmath.beta(mpmath.mpf(1) / 2, s + 1)
                continue
            log_poly = gegenbauer_log_abs(k, float(alpha + mu_j1))
            s_float = float(s)

            def log_integrand(t: float) -> float:
                g = (1 - t) * (1 + t)
                if g == 0:
                    return 2 * q * log_poly(t) if s_float == 0 else -math.inf
                return 2 * q * log_poly(t) + s_float * math.log(g)

            # the float path's segments: [0, 1] split at the zeros above 0,
            # twice, the integrand being even
            points = [0.0] + oracle._gegenbauer_nodes(k, alpha + mu_j1)[(k + 1) // 2 :] + [1.0]
            part, err = quad_log_at_dps(log_integrand, points, q)
            value *= 2 * part
            if part != 0:
                err_rel += abs(err / part)
        value *= norm2**qm
        return value, abs(value) * err_rel


def closed_radial_log_integral(state: HydrogenicState, q: float, space: str) -> mpmath.mpf:
    """ln of the radial power integral of a state with k = n - l - 1 = 0, at
    the working precision, from mpmath's loggamma and beta:
    N^(2q) lam^D Gamma(z) q^-z, z = 2lq + D, in position space, N^2 the
    squared norm over lam^D, and K^(2q) (Z/eta)^D B(a, b) / 2,
    a = lq + D/2, b = (l+D+1) q - D/2, in momentum space."""
    assert state.n == state.l + 1, "the closed forms hold at k = 0"
    q, l, D = mpmath.mpf(q), state.l, state.D
    prec = mpmath.mp.prec
    if space == "position":
        lam = to_mpf(ExactScalar(state.lam), prec)
        norm = to_mpf(ExactScalar(radial_norm_squared(state)), prec) / lam**D
        z = 2 * l * q + D
        return q * mpmath.log(norm) + D * mpmath.log(lam) + mpmath.loggamma(z) - z * mpmath.log(q)
    k_squared = to_mpf(radial_momentum_norm_squared(state), prec)
    a = l * q + mpmath.mpf(D) / 2
    b = (l + D + 1) * q - mpmath.mpf(D) / 2
    scale = to_mpf(ExactScalar(state.Z / state.eta), prec) ** D / 2
    return q * mpmath.log(k_squared) + mpmath.log(scale * mpmath.beta(a, b))


def position_radial_log_integral(state: HydrogenicState, q: float) -> mpmath.mpf:
    """ln of the radial position power integral at the working precision, for
    any k = n - l - 1: in s = q r / lam it is lam^D N^(2q) q^-(2lq+D) times
    the integral of s^(2lq+D-1) e^-s |L(s/q)|^(2q) over [0, inf), N^2 the
    squared norm over lam^D and L the Laguerre polynomial of degree k and
    parameter 2l+D-2, split at the zeros of L.  q is taken as the float it
    is."""
    q, l, D = mpmath.mpf(float(q)), state.l, state.D
    prec = mpmath.mp.prec
    poly = laguerre(state.n - l - 1, 2 * l + D - 2)
    coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(poly.coeffs)]
    zeros = _real_roots(coeffs)
    power = 2 * l * q + D

    def in_s(s):
        return s ** (power - 1) * mpmath.exp(-s) * abs(mpmath.polyval(coeffs, s / q)) ** (2 * q)

    points = [mpmath.mpf(0)] + [q * x for x in zeros] + [mpmath.inf]
    lam = to_mpf(ExactScalar(state.lam), prec)
    norm = to_mpf(ExactScalar(radial_norm_squared(state)), prec) / lam**D
    return (
        D * mpmath.log(lam) + q * mpmath.log(norm) - power * mpmath.log(q)
        + mpmath.log(mpmath.quad(in_s, points))
    )


def _real_roots(coeffs: list) -> list:
    """The real zeros, ascending, of a polynomial with real zeros only, from
    its coefficients (highest first) at the working precision."""
    if len(coeffs) < 2:
        return []
    roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=2 * mpmath.mp.prec)
    return sorted(mpmath.re(root) for root in roots)


def momentum_radial_log_integral(state: HydrogenicState, q: float) -> mpmath.mpf:
    """ln of the radial momentum power integral at the working precision, for
    any k = n - l - 1, in y = (1-u)/(1+u), u = (eta p / Z)^2:
    K^(2q) (Z/eta)^D 2^(-q(2l+D+1)) times the integral over [-1, 1] of
    (1-y)^A (1+y)^B |C(y)|^(2q), A = lq + D/2 - 1, B = (l+D+1) q - D/2 - 1
    and C the Gegenbauer polynomial of degree k and parameter L+1.

    Next to the divergence threshold B + 1 falls to 0 and (1+y)^B nearly
    fails to be integrable; z = (1+y)^(B+1), y = -1 + z^(1/(B+1)), takes it
    out: the integral is 1/(B+1) times that of (1-y)^A |C(y)|^(2q) over
    [0, 2^(B+1)] in z, split at the zeros of C.  q is taken as the float
    it is, so that the reference integrates the order the float path does.
    """
    q, l, D = mpmath.mpf(float(q)), state.l, state.D
    prec = mpmath.mp.prec
    lam = state.L + 1
    poly = gegenbauer(state.n - l - 1, lam)
    coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(poly.coeffs)]
    a = l * q + mpmath.mpf(D) / 2 - 1
    b_plus_1 = (l + D + 1) * q - mpmath.mpf(D) / 2
    zeros = _real_roots(coeffs)

    def in_z(z):
        y = -1 + z ** (1 / b_plus_1)
        # |1 - y|: at z = 2^(B+1) y may round past 1
        return abs(1 - y) ** a * abs(mpmath.polyval(coeffs, y)) ** (2 * q)

    points = [mpmath.mpf(0)] + [(1 + y) ** b_plus_1 for y in zeros] + [2**b_plus_1]
    integral = mpmath.quad(in_z, points) / b_plus_1
    k_squared = to_mpf(radial_momentum_norm_squared(state), prec)
    scale = to_mpf(ExactScalar(state.Z / state.eta), prec) ** D
    return (
        q * mpmath.log(k_squared)
        + mpmath.log(scale)
        - q * (2 * l + D + 1) * mpmath.log(2)
        + mpmath.log(integral)
    )


def equal_chain_log_angular(D: int, l: int, q: float) -> mpmath.mpf:
    """ln of the angular integral of a chain whose entries all equal l, at the
    working precision: 2^(1-q) pi^(D(1-q)/2) Gamma(l + D/2)^q Gamma(ql + 1)
    / (Gamma(l + 1)^q Gamma(ql + D/2))."""
    q, half_d = mpmath.mpf(q), mpmath.mpf(D) / 2
    return (1 - q) * (mpmath.log(2) + half_d * mpmath.log(mpmath.pi)) + (
        q * mpmath.loggamma(l + half_d)
        + mpmath.loggamma(q * l + 1)
        - q * mpmath.loggamma(l + 1)
        - mpmath.loggamma(q * l + half_d)
    )


def _log_charge_term(state: HydrogenicState, space: str) -> mpmath.mpf:
    """-D ln Z in position space, +D ln Z in momentum space."""
    sign = -1 if space == "position" else 1
    Z = state.Z
    return sign * state.D * (mpmath.log(Z.numerator) - mpmath.log(Z.denominator))


def quasi_spherical_entropy(state: HydrogenicState, q: float, space: str) -> mpmath.mpf:
    """The entropy of a quasi-spherical state (k = 0, all entries of the
    chain equal) at the working precision, from the Gamma and Beta forms of
    its integrals."""
    log_radial = closed_radial_log_integral(state.unit_charge(), q, space)
    log_angular = equal_chain_log_angular(state.D, state.l, q)
    return (log_radial + log_angular) / (1 - mpmath.mpf(q)) + _log_charge_term(state, space)


def renyi_float_at_dps(state: HydrogenicState, q, space: str) -> oracle.FloatEntropy:
    """oracle.renyi_float at QUADRATURE_DPS digits: the radial integral by
    radial_integral_at_dps, or at k = 0 by closed_radial_log_integral,
    combined with the angular factors, ln Z and
    each other: loggamma for the Gamma-closed angular factor, mpmath.beta for
    the equal-entry segments.  Raises QuadratureError where the quadrature
    misses or comes out zero, and ValueError for a divergent momentum order;
    the other inputs that renyi_float refuses are the caller's to avoid."""
    order, q = q, float(q)
    if space == "momentum":
        check_momentum_order(state.D, state.l, order)
    unit = state.unit_charge()
    with mpmath.workdps(QUADRATURE_DPS):
        if state.n == state.l + 1:
            radial, radial_err = mpmath.exp(closed_radial_log_integral(unit, q, space)), 0
        else:
            radial, radial_err = radial_integral_at_dps(unit, q, space)
        _check_positive_at_dps(radial, f"radial {space}")
        chain = state.canonical_mu()
        if all(m == chain[0] for m in chain):
            log_angular = equal_chain_log_angular(state.D, abs(chain[0]), q)
            angular_rel_err = mpmath.mpf(0)
        else:
            angular, angular_err = angular_power_integral_at_dps(state.D, state.mu, q)
            _check_positive_at_dps(angular, "angular")
            log_angular = mpmath.log(angular)
            angular_rel_err = abs(angular_err / angular)
        rel = abs(radial_err / radial) + angular_rel_err
        entropy_value = (mpmath.log(radial) + log_angular) / (1 - q) + _log_charge_term(
            state, space
        )
        result = oracle.FloatEntropy(float(entropy_value), float(rel / abs(1 - q)))
    if not rel <= oracle.QUADRATURE_REL_TARGET:
        raise oracle.QuadratureError("target missed", result.value, result.error)
    return result


def _check_positive_at_dps(integral, name: str) -> None:
    if mpmath.isnan(integral):
        raise oracle.QuadratureError(f"the {name} integral is not a number")
    if not integral > 0:
        raise oracle.QuadratureError(f"the {name} integral came out zero")


# -- states ---------------------------------------------------------------------


def energy(state: HydrogenicState) -> Fraction:
    """Bound-state energy -Z^2 / (2 eta^2); depends on (D, n, Z) only."""
    validate(state)
    return -state.Z**2 / (2 * state.eta**2)


def alphas(D: int) -> tuple[Fraction, ...]:
    """The Gegenbauer offsets (D-j-1)/2 of the angular segments j = 1..D-2."""
    return tuple(Fraction(D - j - 1, 2) for j in range(1, D - 1))


def radial_density_position(state: HydrogenicState, r: float) -> float:
    """Radial position density factor; integrates to 1 against r**(D-1) dr."""
    if r <= 0:
        raise ValueError("r must be positive")
    validate(state)
    l, lam = state.l, float(state.lam)
    rt = r / lam
    log_poly = laguerre_log_abs_unscaled(state.n - l - 1, 2 * l + state.D - 2)
    norm2 = float(radial_norm_squared(state)) / lam**state.D
    return norm2 * rt ** (2 * l) * math.exp(2 * log_poly(rt) - rt)


def radial_density_momentum(state: HydrogenicState, p: float) -> float:
    """Radial momentum density factor; integrates to 1 against p**(D-1) dp."""
    if p <= 0:
        raise ValueError("p must be positive")
    validate(state)
    return math.exp(radial_momentum_log_density(state)(p))


def angular_density(state: HydrogenicState, angles: "list[float] | tuple[float, ...]") -> float:
    """Squared modulus of the hyperspherical harmonic at the given angles.

    angles holds theta_1..theta_{D-2} in [0, pi) and phi last; the modulus is
    phi-independent.  For D = 2 the value is the uniform 1/(2 pi).
    """
    validate(state)
    if len(angles) != state.D - 1:
        raise ValueError(f"need D-1={state.D - 1} angles, got {len(angles)}")
    chain = state.canonical_mu()
    # the norms overflow floats at large degree (Gamma(100.5)^2 ~ 1e315), so
    # the value is formed as a logarithm and exponentiated once
    log_value = -math.log(2 * math.pi)
    for j, alpha in enumerate(alphas(state.D), start=1):
        alpha_f = float(alpha)
        mu_j, mu_j1 = chain[j - 1], chain[j]
        theta = angles[j - 1]
        sin_theta = abs(math.sin(theta))
        if mu_j1 and not sin_theta:
            return 0.0
        log_poly = gegenbauer_log_abs(mu_j - mu_j1, float(alpha + mu_j1))
        log_value += (
            math.log(alpha_f + mu_j)
            + math.lgamma(mu_j - mu_j1 + 1)
            + 2 * math.lgamma(alpha_f + mu_j1)
            - math.log(math.pi)
            - (1 - 2 * alpha_f - 2 * mu_j1) * math.log(2.0)
            - math.lgamma(2 * alpha_f + mu_j + mu_j1)
            + 2 * log_poly(math.cos(theta))
            + (2 * mu_j1 * math.log(sin_theta) if mu_j1 else 0.0)
        )
    return math.exp(log_value)


# -- ground-state and quasi-spherical shortcuts ---------------------------------


def ground_state_radial_position_entropy(D: int, Z, q: float) -> float:
    """Radial position entropy of the ground state.

    The leading term is ln Gamma(D); substituting n = 1 into the
    quasi-spherical formula confirms the logarithm belongs there.
    """
    q = float(q)
    if q <= 0 or q == 1:
        raise ValueError("need q > 0, q != 1")
    _, Z = _require_ns_inputs(1, D, Z)
    return math.lgamma(D) + D * (
        math.log((D - 1) / 4) - math.log(q) / (1 - q)
    ) - D * _log_charge(Z)


def ground_state_radial_position_w(D: int, Z, q: int) -> ExactScalar:
    """Exact entropy argument matching ground_state_radial_position_entropy."""
    q = _check_integer_order(q)
    _, Z = _require_ns_inputs(1, D, Z)
    lam = Fraction(D - 1) / (4 * Z)
    return ExactScalar.from_rational(
        lam ** (D * (1 - q))
        * Fraction(1, math.factorial(D - 1) ** (q - 1))
        * Fraction(1, q**D)
    )


def ground_state_radial_momentum_entropy(D: int, Z, q: float) -> float:
    """Radial momentum entropy of the ground state, Gamma-only form;
    infinite, so a ValueError, for q <= D/(2D+2)."""
    order, q = q, float(q)
    if q <= 0 or q == 1:
        raise ValueError("need q > 0, q != 1")
    _, Z = _require_ns_inputs(1, D, Z)
    check_momentum_order(D, 0, order)
    return (
        D * math.log(2 / (D - 1))
        + q / (1 - q) * (math.log(4.0) + math.lgamma(D))
        + (
            (1 - 2 * q) * math.lgamma(D / 2.0)
            + math.lgamma(D * (q - 0.5) + q)
            - math.log(2.0)
            - math.lgamma(D * q + q)
        )
        / (1 - q)
    ) + D * _log_charge(Z)


def ns_uncertainty_sum(n: int, D: int, Z, q) -> UncertaintySum:
    """Uncertainty sum for a quasi-spherical state from the Gamma-only
    shortcuts; usable at any D without quadrature.  Like uncertainty_sum,
    both sides are taken at Z = 1."""
    q = Fraction(q)
    p = conjugate_order(q)
    _require_ns_inputs(n, D, Z)
    total = ns_position_entropy(n, D, 1, float(q)) + ns_momentum_entropy(
        n, D, 1, float(p)
    )
    bound = uncertainty_bound(D, q)
    return UncertaintySum(total, bound, total >= bound - UNCERTAINTY_TOLERANCE)


# -- Jacobi polynomials and the power linearizations ----------------------------


def jacobi(n: int, alpha: RationalLike, beta: RationalLike) -> PolyExact:
    """Jacobi polynomial via the three-term recurrence, which keeps every
    intermediate Gamma away from nonpositive arguments."""
    a = Fraction(alpha)
    b = Fraction(beta)
    if a <= -1 or b <= -1:
        raise ValueError("jacobi requires alpha, beta > -1")
    prev = PolyExact([1])
    if n == 0:
        return prev
    cur = PolyExact([Fraction(a - b, 2), Fraction(a + b + 2, 2)])
    for k in range(2, n + 1):
        c1 = 2 * k * (k + a + b) * (2 * k + a + b - 2)
        c2 = (2 * k + a + b - 1) * (a * a - b * b)
        c3 = (2 * k + a + b - 1) * (2 * k + a + b) * (2 * k + a + b - 2)
        c4 = 2 * (k + a - 1) * (k + b - 1) * (2 * k + a + b)
        nxt = (PolyExact([c2, c3]) * cur - PolyExact([c4]) * prev) * (Fraction(1) / c1)
        prev, cur = cur, nxt
    return cur


def gegenbauer_as_jacobi(kappa: int, lam: RationalLike) -> tuple[Fraction, PolyExact]:
    """Rational scale s and Jacobi polynomial P such that s*P = gegenbauer.

    The Gamma-ratio prefactor collapses to the rational (2 lam)_kappa /
    (lam + 1/2)_kappa because the sqrt(pi) parts cancel.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("gegenbauer_as_jacobi requires lambda > 0")
    scale = pochhammer(2 * lam, kappa) / pochhammer(lam + Fraction(1, 2), kappa)
    return scale, jacobi(kappa, lam - Fraction(1, 2), lam - Fraction(1, 2))


def laguerre_power_linearization(
    a: int,
    r: int,
    t: RationalLike,
    k: int,
    alpha: RationalLike,
    gamma: RationalLike,
    i_max: int,
) -> list[Fraction]:
    """Coefficients c_i expanding y**a * laguerre(k, alpha)(t*y)**r in the
    laguerre(i, gamma) basis, for i = 0..i_max.

    Each coefficient is one terminating Lauricella sum with r identical
    axes of order k for the power and one axis of order i for the target
    index.  With A = gamma + a + 1 the index axis is summed out term by
    term, (A)_(s+m) = (A)_m (A+m)_s:
    c_i = prefactor * sum_m (-i)_m (A)_m / ((gamma+1)_m m!) F_A(A+m),
    F_A over the r power axes alone.
    """
    if a < 0:
        raise ValueError("the monomial degree a must be a nonnegative integer")
    t = Fraction(t)
    alpha = Fraction(alpha)
    gamma = Fraction(gamma)
    ratio = pochhammer(alpha + 1, k) / math.factorial(k)
    prefactor = pochhammer(gamma + 1, a) * ratio**r
    top = gamma + a + 1
    powers = [
        lauricella_fa(LauricellaSpec(top + m, -k, alpha + 1, t, r)) if r else Fraction(1)
        for m in range(i_max + 1)
    ]
    out = []
    for i in range(i_max + 1):
        total = sum(
            pochhammer(-i, m)
            * pochhammer(top, m)
            / (pochhammer(gamma + 1, m) * math.factorial(m))
            * powers[m]
            for m in range(i + 1)
        )
        out.append(prefactor * total)
    return out


def jacobi_power_linearization(
    kappa: int,
    q: int,
    alpha: RationalLike,
    beta: RationalLike,
    gamma: RationalLike,
    delta: RationalLike,
    i_max: int,
) -> list[Fraction]:
    """Coefficients expanding jacobi(kappa, alpha, beta)**(2q) in the
    jacobi(i, gamma, delta) basis, for i = 0..i_max."""
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    gamma = Fraction(gamma)
    delta = Fraction(delta)
    r = 2 * q
    base = (pochhammer(alpha + 1, kappa) / math.factorial(kappa)) ** r

    # The r power axes share one term table and enter the coupled factor only
    # through their sum s, so they collapse into one polynomial power.
    terms, den = kernels.hypergeometric_terms(
        kernels.rising_steps(
            (Fraction(-kappa), alpha + beta + kappa + 1),
            (alpha + 1, Fraction(1)),
            Fraction(1),
            kappa,
        )
    )
    power = [Fraction(c, den**r) for c in kernels.power(terms, r)]

    out = []
    for i in range(i_max + 1):
        head = Fraction(gamma + delta + 2 * i + 1) / (gamma + delta + i + 1)
        last = [
            pochhammer(-i, j) / (pochhammer(gamma + 1, j) * math.factorial(j))
            for j in range(i + 1)
        ]
        top = [pochhammer(gamma + 1, s) for s in range(r * kappa + i + 1)]
        total = sum(
            power[s]
            / pochhammer(gamma + delta + i + 2, s)
            * sum(last[j] * top[s + j] for j in range(i + 1))
            for s in range(r * kappa + 1)
        )
        out.append(base * head * total)
    return out
