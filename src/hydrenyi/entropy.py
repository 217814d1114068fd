"""Closed-form Renyi entropies of D-dimensional hydrogenic states.

Each entropy is assembled as an exact argument W of a single logarithm,
R_q = ln(W) / (1 - q), instead of summing floating log terms.  That makes
the published table values reproducible bit for bit and lets the integration
oracle compare arguments structurally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from hydrenyi.exactnum import (
    DEFAULT_PRECISION_BITS,
    ExactScalar,
    gamma_exact,
    log_float,
    pochhammer,  # unused here; perfbench/tracing.py wraps entropy.pochhammer
    rising_product,
)
from hydrenyi.hyperfun import (
    LauricellaSpec,
    SrivastavaDaoustSpec,
    lauricella_fa,
    srivastava_daoust,
)
from hydrenyi.states import (
    HydrogenicState,
    ValidationError,
    check_momentum_order,
    validate,
)


@dataclass(frozen=True)
class EntropyValue:
    """A value coef * ln(w) with rational coef and exact positive monomial w."""

    coef: Fraction
    w: ExactScalar
    q: Fraction

    def __post_init__(self):
        if not self.w.is_positive_monomial:
            raise ValueError(f"entropy argument must be a positive monomial, got {self.w.render()}")

    @property
    def value(self) -> float:
        return self.value_at()

    def value_at(self, precision_bits: int = DEFAULT_PRECISION_BITS) -> float:
        return float(self.coef) * log_float(self.w, precision_bits)

    def exact_str(self) -> str:
        """Canonical display; with coef = -1 this is ln of the reciprocal."""
        if self.coef == -1:
            return f"ln({self.w.inverse().render()})"
        if self.coef == 1:
            return f"ln({self.w.render()})"
        if self.coef < 0:
            return f"{-self.coef}*ln({self.w.inverse().render()})"
        return f"{self.coef}*ln({self.w.render()})"

    def __add__(self, other: "EntropyValue") -> "EntropyValue":
        if not isinstance(other, EntropyValue):
            return NotImplemented
        if self.coef != other.coef or self.q != other.q:
            raise ValueError("can only add entropy parts sharing coef and q")
        return EntropyValue(self.coef, self.w * other.w, self.q)


@dataclass(frozen=True)
class RenyiBreakdown:
    radial: EntropyValue
    angular: EntropyValue
    total: EntropyValue


def _check_integer_order(q) -> int:
    q = Fraction(q)
    if q.denominator != 1 or q < 2:
        raise ValueError(f"closed forms need an integer order q >= 2, got {q}")
    return q.numerator


def _entropy_coef(q: int) -> Fraction:
    return Fraction(1, 1 - q)


# -- prefactors in integers --------------------------------------------------
#
# Each closed form folds its Gamma values, Pochhammer symbols and rational
# powers into one integer numerator, one integer denominator and one pi
# half-exponent, and makes one ExactScalar of them at the end.  The oracle
# builds the same factors from exactnum.gamma_exact instead, so a wrong
# Gamma on either side shows up as a mismatch.


def _gamma_parts(twice: int) -> tuple[int, int, int]:
    """Gamma(twice/2) at a positive integer or half-integer as (num, den, k),
    Gamma = num/den * pi^(k/2), via Gamma(m + 1/2) = (2m)!/(4^m m!) sqrt(pi)."""
    if twice < 1:
        raise ValueError(f"Gamma needs a positive argument, got {Fraction(twice, 2)}")
    if twice % 2 == 0:
        return math.factorial(twice // 2 - 1), 1, 0
    m = twice // 2
    return math.factorial(2 * m), 4**m * math.factorial(m), 1


def _gamma_product(*factors: tuple[int, int]) -> tuple[int, int, int]:
    """prod Gamma(twice/2)^power over (twice, power) pairs, as (num, den, k)
    like _gamma_parts; a negative power divides."""
    num = den = 1
    half = 0
    for twice, power in factors:
        g_num, g_den, g_half = _gamma_parts(twice)
        if power < 0:
            g_num, g_den, g_half, power = g_den, g_num, -g_half, -power
        num *= g_num**power
        den *= g_den**power
        half += g_half * power
    return num, den, half


def radial_lauricella_factor(D: int, n: int, l: int, q: int) -> Fraction:
    """The terminating 2q-axis Lauricella sum entering the radial position
    entropy; equals 1 when l = n - 1.  Its 2q axes are identical: one group."""
    if l == n - 1:
        return Fraction(1)
    spec = LauricellaSpec(
        a=2 * l * q + D,
        groups=((-(n - l - 1), 2 * l + D - 1, Fraction(1, q), 2 * q),),
    )
    return lauricella_fa(spec)


def radial_position_entropy(state: HydrogenicState, q: int) -> EntropyValue:
    """Radial part of the position-space Renyi entropy, exact.

    W = lambda^(D(1-q)) ((eta-L)_(2l+D-2) / (2 eta))^q F_A
        Gamma(D+2lq) / (q^(D+2lq) Gamma(2l+D-1)^(2q)),
    with lambda = eta/(2Z), eta - L = n - l and 2 eta = 2n+D-3.
    """
    q = _check_integer_order(q)
    l = validate(state).l
    D, n, Z = state.D, state.n, state.Z
    two_eta = 2 * n + D - 3
    lam_power = D * (q - 1)  # lambda^(D(1-q)) = (4Z / 2eta)^(D(q-1))
    hyper = radial_lauricella_factor(D, n, l, q)
    g_num, g_den, _ = _gamma_product(
        (2 * (D + 2 * l * q), 1), (2 * (2 * l + D - 1), -2 * q)
    )
    num = (
        (4 * Z.numerator) ** lam_power
        * rising_product(n - l, 1, 2 * l + D - 2) ** q
        * hyper.numerator
        * g_num
    )
    den = (
        (two_eta * Z.denominator) ** lam_power
        * two_eta**q
        * hyper.denominator
        * q ** (D + 2 * l * q)
        * g_den
    )
    w = ExactScalar.from_rational(Fraction(num, den))
    return EntropyValue(_entropy_coef(q), w, Fraction(q))


def _chain_segments(D: int, mu: tuple[int, ...]):
    """Yield (alpha_j, mu_j, mu_{j+1}) for j = 1..D-2 on the canonical chain."""
    chain = mu[:-1] + (abs(mu[-1]),)
    for j in range(1, D - 1):
        alpha = Fraction(D - j - 1, 2)
        yield alpha, chain[j - 1], chain[j]


def angular_pochhammer_factor(alpha: Fraction, mu_j: int, mu_j1: int, q: int) -> Fraction:
    """The rational Pochhammer block attached to one angular degree of
    freedom; equals 1 when the two chain entries coincide:

    (2a+2mu'+1)_(2k)^q (q mu'+a+1)_(qk)
      / (k!^q (2a+mu+mu')_k^q (a+mu'+1)_k^q),  a = alpha, k = mu - mu'.
    """
    k = mu_j - mu_j1
    if k == 0:
        return Fraction(1)
    a2 = 2 * alpha.numerator // alpha.denominator
    # the last two symbols are each over 2^(qk), which cancels
    num = rising_product(a2 + 2 * mu_j1 + 1, 1, 2 * k) ** q * rising_product(
        2 * q * mu_j1 + a2 + 2, 2, q * k
    )
    den = (
        math.factorial(k)
        * rising_product(a2 + mu_j + mu_j1, 1, k)
        * rising_product(a2 + 2 * mu_j1 + 2, 2, k)
    ) ** q
    return Fraction(num, den)


def angular_daoust_factor(alpha: Fraction, mu_j: int, mu_j1: int, q: int) -> Fraction:
    """The terminating Srivastava-Daoust sum attached to one angular degree
    of freedom; equals 1 when the two chain entries coincide.  Its 2q axes
    are identical: one group."""
    k = mu_j - mu_j1
    if k == 0:
        return Fraction(1)
    a2 = 2 * alpha.numerator // alpha.denominator
    spec = SrivastavaDaoustSpec(
        a0=Fraction(a2 + 2 * q * mu_j1 + 1, 2),
        d0=2 * q * mu_j1 + a2 + 1,
        groups=((-k, a2 + mu_j1 + mu_j, Fraction(a2 + 2 * mu_j1 + 1, 2), 1, 2 * q),),
    )
    return srivastava_daoust(spec)


def angular_entropy(D: int, mu: tuple[int, ...], q: int) -> EntropyValue:
    """Renyi entropy of a hyperspherical harmonic, exact.

    Shared by position and momentum space; depends on the chain only through
    the canonical (|m|) form.  W = (2 pi^(D/2))^(1-q) Gamma(l+D/2)^q (qm)!
    / (Gamma(ql+D/2) m!^q) times each chain segment's Pochhammer block and
    sum.
    """
    q = _check_integer_order(q)
    if D == 2:
        l = abs(mu[0])
    else:
        l = mu[0]
    m = abs(mu[-1])
    num, den, half = _gamma_product((2 * l + D, q), (2 * q * l + D, -1))
    num *= math.factorial(q * m)
    den *= 2 ** (q - 1) * math.factorial(m) ** q
    for alpha, mu_j, mu_j1 in _chain_segments(D, tuple(mu)):
        for factor in (
            angular_pochhammer_factor(alpha, mu_j, mu_j1, q),
            angular_daoust_factor(alpha, mu_j, mu_j1, q),
        ):
            num *= factor.numerator
            den *= factor.denominator
    w = ExactScalar.pi_power(half + D * (1 - q), Fraction(num, den))
    return EntropyValue(_entropy_coef(q), w, Fraction(q))


def position_entropy(state: HydrogenicState, q: int) -> RenyiBreakdown:
    """Total position-space Renyi entropy split into radial and angular parts."""
    radial = radial_position_entropy(state, q)
    angular = angular_entropy(state.D, state.mu, q)
    return RenyiBreakdown(radial=radial, angular=angular, total=radial + angular)


def momentum_daoust_factor(D: int, n: int, l: int, q: int) -> Fraction:
    """The terminating Srivastava-Daoust sum entering the radial momentum
    entropy; equals 1 when l = n - 1.  Its 2q axes are identical: one group.

    With eta = n + (D-3)/2 and L = l + (D-3)/2 the parameters are
    a0 = (L + 3/2) q + D(1-q)/2, d0 = q (2L + 4), c = eta + L + 1 and
    e = L + 3/2, written below in n, l and D.
    """
    if l == n - 1:
        return Fraction(1)
    spec = SrivastavaDaoustSpec(
        a0=Fraction(2 * l * q + D, 2),
        d0=q * (2 * l + D + 1),
        groups=((-(n - l - 1), n + l + D - 2, Fraction(2 * l + D, 2), 1, 2 * q),),
    )
    return srivastava_daoust(spec)


def radial_momentum_entropy(state: HydrogenicState, q: int) -> EntropyValue:
    """Radial part of the momentum-space Renyi entropy, exact.

    W = (Z/eta)^(D(1-q)) (2 eta (eta-L)_(2l+D-2))^q S 2^(2q-1)
        Gamma(D/2+ql) Gamma(q(D+l+1)-D/2) / (Gamma(l+D/2)^(2q) Gamma(q(D+2l+1))),
    with eta - L = n - l and 2 eta = 2n+D-3.
    """
    q = _check_integer_order(q)
    l = validate(state).l
    D, n, Z = state.D, state.n, state.Z
    two_eta = 2 * n + D - 3
    scale_power = D * (q - 1)  # (Z/eta)^(D(1-q)) = (2eta / 2Z)^(D(q-1))
    hyper = momentum_daoust_factor(D, n, l, q)
    g_num, g_den, half = _gamma_product(
        (D + 2 * q * l, 1),
        (2 * q * (D + l + 1) - D, 1),
        (D + 2 * l, -2 * q),
        (2 * q * (D + 2 * l + 1), -1),
    )
    num = (
        (two_eta * Z.denominator) ** scale_power
        * (two_eta * rising_product(n - l, 1, 2 * l + D - 2)) ** q
        * hyper.numerator
        * 2 ** (2 * q - 1)
        * g_num
    )
    den = (2 * Z.numerator) ** scale_power * hyper.denominator * g_den
    w = ExactScalar.pi_power(half, Fraction(num, den))
    return EntropyValue(_entropy_coef(q), w, Fraction(q))


def momentum_entropy(state: HydrogenicState, q: int) -> RenyiBreakdown:
    """Total momentum-space Renyi entropy; the angular part is the same as
    in position space."""
    radial = radial_momentum_entropy(state, q)
    angular = angular_entropy(state.D, state.mu, q)
    return RenyiBreakdown(radial=radial, angular=angular, total=radial + angular)


# -- quasi-spherical shortcuts (l = n-1, whole chain equal) ------------------


def _require_ns_inputs(n: int, D: int, Z) -> tuple[Fraction, Fraction]:
    if n < 1 or D < 2:
        raise ValidationError("ns shortcut needs n >= 1 and D >= 2")
    Z = Fraction(Z)
    if Z <= 0:
        raise ValidationError("ns shortcut needs Z > 0")
    eta = n + Fraction(D - 3, 2)
    return eta, Z


def ns_radial_position_w(n: int, D: int, Z, q: int) -> ExactScalar:
    q = _check_integer_order(q)
    eta, Z = _require_ns_inputs(n, D, Z)
    lam = eta / (2 * Z)
    return (
        ExactScalar.from_rational(lam ** (D * (1 - q)))
        * Fraction(1, math.factorial(2 * n + D - 3) ** q)
        * Fraction(math.factorial(D + 2 * n * q - 2 * q - 1), q ** (D + 2 * n * q - 2 * q))
    )


def ns_angular_w(n: int, D: int, q: int) -> ExactScalar:
    q = _check_integer_order(q)
    l = n - 1
    return (
        ExactScalar.pi_power(D, 2) ** (1 - q)
        * gamma_exact(Fraction(2 * l + D, 2)) ** q
        * Fraction(math.factorial(q * l), math.factorial(l) ** q)
        / gamma_exact(Fraction(2 * q * l + D, 2))
    )


def ns_radial_momentum_w(n: int, D: int, Z, q: int) -> ExactScalar:
    q = _check_integer_order(q)
    eta, Z = _require_ns_inputs(n, D, Z)
    return (
        ExactScalar.from_rational((Z / eta) ** (D * (1 - q)))
        * Fraction(4 ** q * math.factorial(2 * n + D - 3) ** q, 2)
        * gamma_exact(Fraction(D + 2 * q * (n - 1), 2))
        * gamma_exact(Fraction(2 * q * (D + n) - D, 2))
        / (
            gamma_exact(Fraction(2 * n + D - 2, 2)) ** (2 * q)
            * gamma_exact(q * (D + 2 * n - 1))
        )
    )


def ns_position_entropy_exact(n: int, D: int, Z, q: int) -> EntropyValue:
    """Total position entropy of a quasi-spherical state, exact integer q."""
    q = _check_integer_order(q)
    w = ns_radial_position_w(n, D, Z, q) * ns_angular_w(n, D, q)
    return EntropyValue(_entropy_coef(q), w, Fraction(q))


def ns_momentum_entropy_exact(n: int, D: int, Z, q: int) -> EntropyValue:
    """Total momentum entropy of a quasi-spherical state, exact integer q."""
    q = _check_integer_order(q)
    w = ns_radial_momentum_w(n, D, Z, q) * ns_angular_w(n, D, q)
    return EntropyValue(_entropy_coef(q), w, Fraction(q))


def _ns_angular_float(n: int, D: int, q: float) -> float:
    l = n - 1
    return math.log(2.0) + (D / 2.0) * math.log(math.pi) + (
        q * math.lgamma(l + D / 2.0)
        + math.lgamma(q * l + 1.0)
        - q * math.lgamma(l + 1.0)
        - math.lgamma(q * l + D / 2.0)
    ) / (1.0 - q)


def ns_position_entropy(n: int, D: int, Z, q: float) -> float:
    """Total position entropy of a quasi-spherical state, any real q > 0,
    q != 1.  These shortcuts are Gamma-only, so no terminating sums restrict
    the order."""
    q = float(q)
    if q <= 0 or q == 1:
        raise ValueError("need q > 0, q != 1")
    eta, Z = _require_ns_inputs(n, D, Z)
    radial = (
        D * math.log(float(eta) / (2 * float(Z)))
        - q / (1 - q) * math.lgamma(2 * float(eta) + 1)
        + (math.lgamma(D + 2 * n * q - 2 * q) - (D + 2 * n * q - 2 * q) * math.log(q))
        / (1 - q)
    )
    return radial + _ns_angular_float(n, D, q)


def ns_momentum_entropy(n: int, D: int, Z, q: float) -> float:
    """Total momentum entropy of a quasi-spherical state, any real q > 0,
    q != 1; infinite, so a ValueError, for q <= D/(2n+2D) (see
    states.check_momentum_order)."""
    order, q = q, float(q)
    if q <= 0 or q == 1:
        raise ValueError("need q > 0, q != 1")
    eta, Z = _require_ns_inputs(n, D, Z)
    check_momentum_order(D, n - 1, order)
    radial = (
        D * math.log(float(Z) / float(eta))
        + q / (1 - q) * (math.log(4.0) + math.lgamma(2 * float(eta) + 1))
        + (
            math.lgamma(D / 2.0 + q * n - q)
            + math.lgamma(q * (D + n) - D / 2.0)
            - math.log(2.0)
            - 2 * q * math.lgamma(n + D / 2.0 - 1)
            - math.lgamma(q * (D + 2 * n - 1))
        )
        / (1 - q)
    )
    return radial + _ns_angular_float(n, D, q)


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
        math.log((D - 1) / (4 * float(Z))) - math.log(q) / (1 - q)
    )


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
        D * math.log(2 * float(Z) / (D - 1))
        + q / (1 - q) * (math.log(4.0) + math.lgamma(D))
        + (
            (1 - 2 * q) * math.lgamma(D / 2.0)
            + math.lgamma(D * (q - 0.5) + q)
            - math.log(2.0)
            - math.lgamma(D * q + q)
        )
        / (1 - q)
    )


# -- position-momentum uncertainty sum ---------------------------------------


class UncertaintySum(NamedTuple):
    total: float
    bound: float
    satisfied: bool


UNCERTAINTY_TOLERANCE = 1e-9


def conjugate_order(q: Fraction) -> Fraction:
    """The order p with 1/p + 1/q = 2."""
    q = Fraction(q)
    if q <= Fraction(1, 2):
        raise ValueError(f"conjugate order undefined for q <= 1/2, got {q}")
    if q == 1:
        raise ValueError("q = 1 is excluded")
    return q / (2 * q - 1)


def uncertainty_bound(D: int, q: Fraction) -> float:
    q = Fraction(q)
    p = conjugate_order(q)
    return D * (
        math.log(2 * math.pi)
        + math.log(2 * float(q)) / (2 - 2 * float(q))
        + math.log(2 * float(p)) / (2 - 2 * float(p))
    )


def uncertainty_sum(state: HydrogenicState, q) -> UncertaintySum:
    """Joint position-momentum Renyi sum against its dimensional lower bound.

    Exact closed forms serve integer orders >= 2; the conjugate side falls
    back to the floating integration oracle otherwise.
    """
    from hydrenyi import oracle

    q = Fraction(q)
    p = conjugate_order(q)
    validate(state)
    if q.denominator == 1 and q >= 2:
        position = position_entropy(state, int(q)).total.value
    else:
        position = oracle.renyi_float(state, q, "position").value
    if p.denominator == 1 and p >= 2:
        momentum = momentum_entropy(state, int(p)).total.value
    else:
        momentum = oracle.renyi_float(state, p, "momentum").value
    total = position + momentum
    bound = uncertainty_bound(state.D, q)
    return UncertaintySum(total, bound, total >= bound - UNCERTAINTY_TOLERANCE)


def ns_uncertainty_sum(n: int, D: int, Z, q) -> UncertaintySum:
    """Uncertainty sum for a quasi-spherical state from the Gamma-only
    shortcuts; usable at any D without quadrature."""
    q = Fraction(q)
    p = conjugate_order(q)
    total = ns_position_entropy(n, D, Z, float(q)) + ns_momentum_entropy(
        n, D, Z, float(p)
    )
    bound = uncertainty_bound(D, q)
    return UncertaintySum(total, bound, total >= bound - UNCERTAINTY_TOLERANCE)
