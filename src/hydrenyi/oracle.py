"""Brute-force evaluation of the entropy arguments, independent of the
closed forms.

For integer order q every integral reduces to exact factorial or Beta
moments of polynomial expansions, so closed form and oracle can be compared
structurally with zero tolerance.  For real q an adaptive extended-precision
quadrature evaluates the same integrals numerically.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, NamedTuple

import mpmath
from mpmath.calculus.quadrature import TanhSinh

from hydrenyi import entropy
from hydrenyi.exactnum import ExactScalar, gamma_exact, to_float
from hydrenyi.polynomials import PolyExact, gegenbauer, laguerre, poly_pow
from hydrenyi.states import HydrogenicState, radial_norm_squared, validate

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
    basis = MomentBasis("laguerre")
    integral = ExactScalar(0)
    for k, coeff in enumerate(poly.coeffs):
        if coeff:
            integral = integral + basis.moment(k) * coeff
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
        basis = MomentBasis("gegenbauer", (q * mu_j1 + alpha - Fraction(1, 2),))
        integral = ExactScalar(0)
        for m, coeff in enumerate(power.coeffs):
            if m % 2 == 1:
                assert coeff == 0, "odd moments of an even power must vanish"
                continue
            if coeff:
                integral = integral + basis.moment(m) * coeff
        value = value * integral
    return value * norm2**q


def _shifted_basis_coeffs(poly: PolyExact) -> list[Fraction]:
    """Rewrite sum a_m y^m as sum s_k (1+y)^k."""
    out = [Fraction(0)] * (poly.degree + 1 if poly.coeffs else 1)
    for m, a in enumerate(poly.coeffs):
        if a == 0:
            continue
        for k in range(m + 1):
            out[k] += a * math.comb(m, k) * Fraction(-1) ** (m - k)
    return out


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
    basis = MomentBasis("jacobi-shifted", (a_exp, b_exp))
    integral = ExactScalar(0)
    for k, coeff in enumerate(shifted):
        if coeff:
            integral = integral + basis.moment(k) * coeff
    k_squared = (
        ExactScalar.pi_power(-2, Fraction(1, 2))
        * Fraction(
            2 ** (4 * l + 2 * D) * math.factorial(state.n - l - 1),
            math.factorial(state.n + l + D - 3),
        )
        * gamma_exact(Fraction(2 * l + D - 1, 2)) ** 2
        * d.eta ** (D + 1)
        * state.Z ** (-D)
    )
    two_power = Fraction(1, 2 ** (q * (2 * l + D + 1)))
    scale = ExactScalar.from_rational((state.Z / d.eta) ** D * two_power)
    return k_squared**q * scale * integral


# -- floating-point path for real orders -------------------------------------


def _poly_mpf(poly: PolyExact) -> list[mpmath.mpf]:
    """Coefficients, highest degree first, as mpmath.polyval takes them."""
    return [mpmath.mpf(c.numerator) / c.denominator for c in reversed(poly.coeffs)]


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


class _RelativeTanhSinh(TanhSinh):
    """Tanh-sinh quadrature that stops each segment at a relative error.

    mpmath's own rule iterates every segment towards an absolute error of
    eps/8, and clamps its error estimate at 1 in absolute terms, so for a
    large integral it reports too small an error.  Every integrand here is
    non-negative, so a relative bound on each segment bounds the sum too.
    """

    def _relative_error(self, results: list, prec: int):
        """The Borwein-Bailey-Girgensohn extrapolation of the parent rule,
        applied to the differences |I_k - I_j| / |I_k| of the last levels."""
        ctx = self.ctx
        scale = abs(results[-1])
        if scale == 0:
            return ctx.zero if results[-2] == 0 else ctx.inf
        d1 = abs(results[-1] - results[-2]) / scale
        if len(results) == 2:
            return d1
        if results[-1] == results[-2] == results[-3]:
            return ctx.zero
        d2 = abs(results[-1] - results[-3]) / scale
        if not (0 < d1 < 1 and 0 < d2 < 1):
            # no digit-doubling to extrapolate from
            return max(d1, d2)
        D1, D2 = ctx.log(d1, 10), ctx.log(d2, 10)
        return ctx.mpf(10) ** int(max(D1 * D1 / D2, 2 * D1, -prec))

    def summation(self, f, points, prec, epsilon, max_degree, verbose=False):
        ctx = self.ctx
        total = total_err = ctx.zero
        for a, b in zip(points, points[1:]):
            results: list = []
            rel = ctx.inf
            for degree in range(1, max_degree + 1):
                nodes = self.get_nodes(a, b, degree, prec)
                results.append(self.sum_next(f, nodes, degree, prec, results))
                if degree > 1:
                    rel = self._relative_error(results, prec)
                    if rel <= _SEGMENT_REL_TARGET:
                        break
            total += results[-1]
            total_err += rel * abs(results[-1])
        return total, total_err


# mpmath.quad builds its rule by calling method(ctx) on every call; handing
# back one instance keeps its node caches across calls.
_RULE = _RelativeTanhSinh(mpmath.mp)


def _quad(f, points) -> tuple[mpmath.mpf, mpmath.mpf]:
    value, err = mpmath.quad(
        f, points, error=True, maxdegree=9, method=lambda ctx: _RULE
    )
    return value, err


def position_radial_power_integral(
    state: HydrogenicState, q: float
) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Integral of the q-th power of the radial position density against
    r^(D-1) dr, with its quadrature error estimate."""
    d = validate(state)
    l, D = d.l, state.D
    with mpmath.workdps(QUADRATURE_DPS):
        lam = mpmath.mpf(d.lam.numerator) / d.lam.denominator
        norm = radial_norm_squared(state)
        norm2 = (mpmath.mpf(norm.numerator) / norm.denominator) / lam**D
        k, alpha = state.n - l - 1, Fraction(2 * l + D - 2)
        coeffs = _poly_mpf(laguerre(k, alpha))
        qm = mpmath.mpf(q)

        def integrand(r):
            rt = r / lam
            poly = mpmath.polyval(coeffs, rt)
            density = norm2 * rt ** (2 * l) * mpmath.exp(-rt) * poly**2
            return density**qm * r ** (D - 1)

        scale = float(lam) * float(2 * d.eta)
        points = (
            [0.0]
            + [float(lam) * r for r in _laguerre_nodes(k, alpha)]
            + [scale, 4 * scale]
        )
        return _quad(integrand, sorted(set(points)) + [mpmath.inf])


def momentum_radial_power_integral(
    state: HydrogenicState, q: float
) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Integral of the q-th power of the radial momentum density against
    p^(D-1) dp, with its quadrature error estimate."""
    d = validate(state)
    l, D = d.l, state.D
    with mpmath.workdps(QUADRATURE_DPS):
        z = mpmath.mpf(state.Z.numerator) / state.Z.denominator
        eta = mpmath.mpf(d.eta.numerator) / d.eta.denominator
        k = state.n - l - 1
        coeffs = _poly_mpf(gegenbauer(k, d.L + 1))
        k2 = (
            z ** (-D)
            * mpmath.mpf(2) ** (4 * l + 2 * D)
            * math.factorial(state.n - l - 1)
            * (mpmath.gamma(mpmath.mpf(2 * l + D - 1) / 2)) ** 2
            * eta ** (D + 1)
            / (2 * mpmath.pi * math.factorial(state.n + l + D - 3))
        )
        qm = mpmath.mpf(q)
        two_l_plus_4 = 2 * d.L + 4
        exp_decay = mpmath.mpf(two_l_plus_4.numerator) / two_l_plus_4.denominator

        def integrand(p):
            pt = p / z
            u = (eta * pt) ** 2
            y = (1 - u) / (1 + u)
            poly = mpmath.polyval(coeffs, y)
            density = k2 * u**l * (1 + u) ** (-exp_decay) * poly**2
            return density**qm * p ** (D - 1)

        scale = float(z / eta)
        points = [0.0]
        for y0 in _gegenbauer_nodes(k, d.L + 1):
            points.append(scale * math.sqrt((1 - y0) / (1 + y0)))
        points += [scale, 4 * scale]
        return _quad(integrand, sorted(set(points)) + [mpmath.inf])


def angular_power_integral(
    D: int, mu: tuple[int, ...], q: float
) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Integral of |harmonic|^(2q) over the sphere for real q, with error
    estimate.  Axes with equal chain entries use closed Beta factors; the
    others get adaptive quadrature split at the polynomial roots."""
    chain = tuple(mu[:-1]) + (abs(mu[-1]),)
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
            coeffs = _poly_mpf(gegenbauer(k, alpha + mu_j1))

            def integrand(t):
                return abs(mpmath.polyval(coeffs, t)) ** (2 * qm) * (1 - t * t) ** s

            points = [-1.0] + _gegenbauer_nodes(k, alpha + mu_j1) + [1.0]
            part, err = _quad(integrand, points)
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

    The momentum density decays as p^-(2l+2D+2), so in momentum space the
    entropy is infinite for q <= D/(2l+2D+2); such orders raise ValueError.
    """
    exact_q = Fraction(q) if isinstance(q, (int, Fraction)) else Fraction(float(q))
    q = float(q)
    if q <= 0 or q == 1:
        raise ValueError(f"need real q > 0, q != 1, got {q}")
    d = validate(state)
    if space == "momentum":
        decay = 2 * d.l + 2 * state.D + 2
        threshold = Fraction(state.D, decay)
        if exact_q <= threshold:
            raise ValueError(
                f"momentum entropy diverges for q <= {threshold} at D={state.D}, "
                f"l={d.l} (the density decays as p^-{decay}); got q={q:g}"
            )
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
