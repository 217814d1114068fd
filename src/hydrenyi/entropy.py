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

from hydrenyi import hyperfun
from hydrenyi.exactnum import (
    ExactScalar,
    exact_rational,
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
    brief,
    canonical_chain,
    check_chain,
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

    def value_at(self) -> float:
        return float(self.coef) * log_float(self.w)

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
    q = exact_rational(q)
    if q.denominator != 1 or q < 2:
        raise ValueError(f"closed forms need an integer order q >= 2, got {brief(q)}")
    return q.numerator


def _entropy_coef(q: int) -> Fraction:
    return Fraction(1, 1 - q)


# -- the terminating sums ----------------------------------------------------


def radial_lauricella_factor(D: int, n: int, l: int, q: int) -> Fraction:
    """The terminating 2q-axis Lauricella sum entering the radial position
    entropy; equals 1 when l = n - 1.  Its 2q axes are identical."""
    if l == n - 1:
        return Fraction(1)
    spec = LauricellaSpec(
        a=2 * l * q + D, b=-(n - l - 1), c=2 * l + D - 1, x=Fraction(1, q), mult=2 * q
    )
    return lauricella_fa(spec)


def momentum_daoust_factor(D: int, n: int, l: int, q: int) -> Fraction:
    """The terminating Srivastava-Daoust sum entering the radial momentum
    entropy; equals 1 when l = n - 1.  Its 2q axes are identical.

    With eta = n + (D-3)/2 and L = l + (D-3)/2 the parameters are
    a0 = (L + 3/2) q + D(1-q)/2, d0 = q (2L + 4), c = eta + L + 1 and
    e = L + 3/2, written below in n, l and D.
    """
    if l == n - 1:
        return Fraction(1)
    spec = SrivastavaDaoustSpec(
        a0=Fraction(2 * l * q + D, 2),
        d0=q * (2 * l + D + 1),
        b=-(n - l - 1),
        c=n + l + D - 2,
        e=Fraction(2 * l + D, 2),
        x=1,
        mult=2 * q,
    )
    return srivastava_daoust(spec)


def angular_daoust_factor(alpha: Fraction, mu_j: int, mu_j1: int, q: int) -> Fraction:
    """The terminating Srivastava-Daoust sum attached to one angular degree
    of freedom; equals 1 when the two chain entries coincide.  Its 2q axes
    are identical."""
    k = mu_j - mu_j1
    if k == 0:
        return Fraction(1)
    a2 = 2 * alpha.numerator // alpha.denominator
    spec = SrivastavaDaoustSpec(
        a0=Fraction(a2 + 2 * q * mu_j1 + 1, 2),
        d0=2 * q * mu_j1 + a2 + 1,
        b=-k,
        c=a2 + mu_j1 + mu_j,
        e=Fraction(a2 + 2 * mu_j1 + 1, 2),
        x=1,
        mult=2 * q,
    )
    return srivastava_daoust(spec)


# -- the factors of each W ---------------------------------------------------
#
# Each W is written once, as a list of calls on a ledger: factorial, integer
# and rising-product powers, Gamma values, the powers of the charge and the
# terminating sums.  _ExactLedger multiplies them out into the closed forms.
# The oracle builds its factors from exactnum.gamma_integers instead, so a
# wrong Gamma on either side shows up as a mismatch.


def _radial_factors(out, state: HydrogenicState, q: int, space: str, l: int):
    """The factors of the radial W of a space, entered in out."""
    D, n, Z = state.D, state.n, state.Z
    two_eta, scale_power = 2 * n + D - 3, D * (q - 1)
    out.rising(n - l, 1, 2 * l + D - 2, q)
    out.integer(two_eta, -q if space == "position" else q)
    if space == "position":
        # (4Z / 2eta)^(D(q-1)) Gamma(D+2lq) / (q^(D+2lq) Gamma(2l+D-1)^(2q))
        out.integer(4, scale_power)
        out.integer(two_eta, -scale_power)
        out.integer(q, -(D + 2 * l * q))
        out.gamma(2 * (D + 2 * l * q), 1)
        out.gamma(2 * (2 * l + D - 1), -2 * q)
        out.charge(Z.numerator, Z.denominator, scale_power)
    else:
        # (2eta / 2Z)^(D(q-1)) 2^(2q-1) Gamma(D/2+ql) Gamma(q(D+l+1)-D/2)
        #   / (Gamma(l+D/2)^(2q) Gamma(q(D+2l+1)))
        out.integer(two_eta, scale_power)
        out.integer(2, 2 * q - 1 - scale_power)
        out.gamma(D + 2 * q * l, 1)
        out.gamma(2 * q * (D + l + 1) - D, 1)
        out.gamma(D + 2 * l, -2 * q)
        out.gamma(2 * q * (D + 2 * l + 1), -1)
        out.charge(Z.denominator, Z.numerator, scale_power)
    out.radial_sum(space, D, n, l, q)
    return out


def _pochhammer_block(out, a2: int, mu_j: int, mu_j1: int, q: int):
    """angular_pochhammer_factor of a = a2/2, entered in out."""
    k = mu_j - mu_j1
    # the last two symbols of its docstring are each over 2^(qk), which cancels
    out.rising(a2 + 2 * mu_j1 + 1, 1, 2 * k, q)
    out.rising(2 * q * mu_j1 + a2 + 2, 2, q * k, 1)
    out.fact(k, -q)
    out.rising(a2 + mu_j + mu_j1, 1, k, -q)
    out.rising(a2 + 2 * mu_j1 + 2, 2, k, -q)
    return out


def _angular_factors(out, D: int, mu: tuple[int, ...], q: int, l: int):
    """The factors of the angular W but its pi^(D(1-q)/2), entered in out."""
    chain = canonical_chain(mu)
    m = chain[-1]
    # Gamma(l+D/2)^q (qm)! / (2^(q-1) Gamma(ql+D/2) m!^q)
    out.gamma(2 * l + D, q)
    out.gamma(2 * q * l + D, -1)
    out.fact(q * m, 1)
    out.fact(m, -q)
    out.integer(2, 1 - q)
    for j in range(1, D - 1):  # segment j has alpha_j = (D-j-1)/2
        mu_j, mu_j1 = chain[j - 1], chain[j]
        if mu_j != mu_j1:  # both factors of the segment are 1 otherwise
            _pochhammer_block(out, D - j - 1, mu_j, mu_j1, q)
            out.angular_sum(D - j - 1, mu_j, mu_j1, q)
    return out


class _ExactLedger:
    """The value num/den * pi^(half/2) of a factor list, in integers; a
    negative power divides.  Before each integer is formed, a bound on its
    bits is added to a running count; the work of the whole product is the
    square of that count in 32-bit words (CPython's digits hold 30 bits),
    since reducing num/den at the end is about quadratic in their size, and
    hyperfun.check_work refuses it once the count passes the bits that
    hyperfun.WORK_CAP allows.  The sums are looked up in this module when
    called, so a wrapper set on it sees them."""

    __slots__ = ("num", "den", "half", "bits", "free_bits")

    def __init__(self):
        self.num = self.den = 1
        self.half = self.bits = 0
        # (bits >> 5)^2 <= WORK_CAP for every count up to this one
        self.free_bits = 32 * math.isqrt(hyperfun.WORK_CAP) + 31

    def _refuse(self) -> None:
        words = self.bits >> 5
        hyperfun.check_work(words * words)

    def _times(self, a: int, e: int) -> None:
        if e >= 0:
            self.num *= a**e
        else:
            self.den *= a**-e

    def integer(self, a: int, e: int) -> None:
        self.bits += abs(e) * a.bit_length()
        if self.bits > self.free_bits:
            self._refuse()
        self._times(a, e)

    def fact(self, m: int, e: int) -> None:
        self.bits += abs(e) * m * m.bit_length()
        if self.bits > self.free_bits:
            self._refuse()
        self._times(math.factorial(m), e)

    def rising(self, p: int, d: int, k: int, e: int) -> None:
        self.bits += abs(e) * k * (p + k * d).bit_length()
        if self.bits > self.free_bits:
            self._refuse()
        self._times(rising_product(p, d, k), e)

    def gamma(self, twice: int, e: int) -> None:
        """Gamma(twice/2)^e, via Gamma(m) = (m-1)! and
        Gamma(m + 1/2) = (2m)! / (4^m m!) sqrt(pi), for twice >= 1."""
        m = twice // 2
        if twice % 2 == 0:
            self.fact(m - 1, e)
        else:
            self.fact(2 * m, e)
            self.fact(m, -e)
            self.integer(2, -2 * m * e)
            self.half += e

    def charge(self, top: int, bottom: int, e: int) -> None:
        self.integer(top, e)
        self.integer(bottom, -e)

    def _sum(self, value: Fraction) -> None:
        self.bits += value.numerator.bit_length() + value.denominator.bit_length()
        if self.bits > self.free_bits:
            self._refuse()
        self.num, self.den = self.num * value.numerator, self.den * value.denominator

    def radial_sum(self, space: str, D: int, n: int, l: int, q: int) -> None:
        factor = radial_lauricella_factor if space == "position" else momentum_daoust_factor
        self._sum(factor(D, n, l, q))

    def angular_sum(self, a2: int, mu_j: int, mu_j1: int, q: int) -> None:
        self._sum(angular_daoust_factor(Fraction(a2, 2), mu_j, mu_j1, q))

    def scalar(self, half: int = 0) -> ExactScalar:
        """The value times pi^(half/2)."""
        return ExactScalar.pi_power(self.half + half, Fraction(self.num, self.den))


# -- the closed forms --------------------------------------------------------


def radial_position_entropy(state: HydrogenicState, q: int) -> EntropyValue:
    """Radial part of the position-space Renyi entropy, exact.

    W = lambda^(D(1-q)) ((eta-L)_(2l+D-2) / (2 eta))^q F_A
        Gamma(D+2lq) / (q^(D+2lq) Gamma(2l+D-1)^(2q)),
    with lambda = eta/(2Z), eta - L = n - l and 2 eta = 2n+D-3.
    """
    q = _check_integer_order(q)
    validate(state)
    w = _radial_factors(_ExactLedger(), state, q, "position", state.l).scalar()
    return EntropyValue(_entropy_coef(q), w, Fraction(q))


def radial_momentum_entropy(state: HydrogenicState, q: int) -> EntropyValue:
    """Radial part of the momentum-space Renyi entropy, exact.

    W = (Z/eta)^(D(1-q)) (2 eta (eta-L)_(2l+D-2))^q S 2^(2q-1)
        Gamma(D/2+ql) Gamma(q(D+l+1)-D/2) / (Gamma(l+D/2)^(2q) Gamma(q(D+2l+1))),
    with eta - L = n - l and 2 eta = 2n+D-3.
    """
    q = _check_integer_order(q)
    validate(state)
    w = _radial_factors(_ExactLedger(), state, q, "momentum", state.l).scalar()
    return EntropyValue(_entropy_coef(q), w, Fraction(q))


def angular_pochhammer_factor(alpha: Fraction, mu_j: int, mu_j1: int, q: int) -> Fraction:
    """The rational Pochhammer block attached to one angular degree of
    freedom; equals 1 when the two chain entries coincide:

    (2a+2mu'+1)_(2k)^q (q mu'+a+1)_(qk)
      / (k!^q (2a+mu+mu')_k^q (a+mu'+1)_k^q),  a = alpha, k = mu - mu'.
    """
    a2 = 2 * alpha.numerator // alpha.denominator
    out = _pochhammer_block(_ExactLedger(), a2, mu_j, mu_j1, q)
    return Fraction(out.num, out.den)


def angular_entropy(D: int, mu: tuple[int, ...], q: int) -> EntropyValue:
    """Renyi entropy of a hyperspherical harmonic, exact.

    Shared by position and momentum space; depends on the chain only through
    the canonical (|m|) form.  W = (2 pi^(D/2))^(1-q) Gamma(l+D/2)^q (qm)!
    / (Gamma(ql+D/2) m!^q) times each chain segment's Pochhammer block and
    sum.
    """
    q = _check_integer_order(q)
    check_chain(D, mu)
    l = canonical_chain(mu)[0]
    w = _angular_factors(_ExactLedger(), D, mu, q, l).scalar(D * (1 - q))
    return EntropyValue(_entropy_coef(q), w, Fraction(q))


def position_entropy(state: HydrogenicState, q: int) -> RenyiBreakdown:
    """Total position-space Renyi entropy split into radial and angular parts."""
    radial = radial_position_entropy(state, q)
    angular = angular_entropy(state.D, state.mu, q)
    return RenyiBreakdown(radial=radial, angular=angular, total=radial + angular)


def momentum_entropy(state: HydrogenicState, q: int) -> RenyiBreakdown:
    """Total momentum-space Renyi entropy; the angular part is the same as
    in position space."""
    radial = radial_momentum_entropy(state, q)
    angular = angular_entropy(state.D, state.mu, q)
    return RenyiBreakdown(radial=radial, angular=angular, total=radial + angular)


# -- quasi-spherical shortcuts (l = n-1, whole chain equal) ------------------


def _log_charge(Z: Fraction) -> float:
    """ln Z from the integers of Z, so any positive charge has a logarithm;
    exactly 0.0 at Z = 1."""
    return math.log(Z.numerator) - math.log(Z.denominator)


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
        D * math.log(float(eta) / 2)
        - q / (1 - q) * math.lgamma(2 * float(eta) + 1)
        + (math.lgamma(D + 2 * n * q - 2 * q) - (D + 2 * n * q - 2 * q) * math.log(q))
        / (1 - q)
    )
    return radial + _ns_angular_float(n, D, q) - D * _log_charge(Z)


def _order_affine(q: float, times: int, twice_plus: int) -> float:
    """The Gamma argument q * times + twice_plus / 2 from q's integer ratio,
    rounded once: next to the momentum threshold it cancels, and a float sum
    of its terms loses their roundings."""
    num, den = q.as_integer_ratio()
    return (2 * times * num + twice_plus * den) / (2 * den)


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
        D * math.log(1 / float(eta))
        + q / (1 - q) * (math.log(4.0) + math.lgamma(2 * float(eta) + 1))
        + (
            math.lgamma(_order_affine(q, n - 1, D))
            + math.lgamma(_order_affine(q, D + n, -D))
            - math.log(2.0)
            - 2 * q * math.lgamma(n + D / 2.0 - 1)
            - math.lgamma(_order_affine(q, D + 2 * n - 1, 0))
        )
        / (1 - q)
    )
    return radial + _ns_angular_float(n, D, q) + D * _log_charge(Z)


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
        raise ValueError(f"conjugate order undefined for q <= 1/2, got {brief(q)}")
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
    back to the floating integration oracle otherwise.  The sum does not
    depend on Z (position loses D ln Z, momentum gains it), so both sides
    are computed at Z = 1, where nothing cancels.
    """
    from hydrenyi import oracle

    q = Fraction(q)
    p = conjugate_order(q)
    validate(state)
    unit = state.unit_charge()
    if q.denominator == 1 and q >= 2:
        position = position_entropy(unit, int(q)).total.value
    else:
        position = oracle.renyi_float(unit, q, "position").value
    if p.denominator == 1 and p >= 2:
        momentum = momentum_entropy(unit, int(p)).total.value
    else:
        momentum = oracle.renyi_float(unit, p, "momentum").value
    total = position + momentum
    bound = uncertainty_bound(state.D, q)
    return UncertaintySum(total, bound, total >= bound - UNCERTAINTY_TOLERANCE)
