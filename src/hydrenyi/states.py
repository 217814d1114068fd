"""Quantum-number model for D-dimensional hydrogenic bound states.

A state is (D, n, mu-chain, Z) with l = mu[0] and the chain constraint
mu1 >= mu2 >= ... >= mu[D-3] >= |mu[D-2]| >= 0.  For D = 2 the chain is the
single entry mu1 and l = |mu1|.  The pointwise density evaluators here are
plain floats and evaluate the polynomials by their three-term recurrences,
as the oracle's real-order integrands do; the radial momentum density and
its normalization are shared with the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from hydrenyi.exactnum import ExactScalar, RationalLike, gamma_integers, log_float
from hydrenyi.polynomials import gegenbauer_log_abs, laguerre_log_abs


class ValidationError(ValueError):
    """A quantum-number constraint is violated; the message names it."""


@dataclass(frozen=True)
class HydrogenicState:
    D: int
    n: int
    mu: tuple[int, ...]
    Z: Fraction = Fraction(1)

    def __init__(self, D: int, n: int, mu, Z: RationalLike = 1):
        object.__setattr__(self, "D", int(D))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "mu", tuple(int(m) for m in mu))
        object.__setattr__(self, "Z", Fraction(Z))

    @property
    def l(self) -> int:
        if self.D == 2:
            return abs(self.mu[0])
        return self.mu[0]

    @property
    def m_abs(self) -> int:
        return abs(self.mu[-1])

    def canonical_mu(self) -> tuple[int, ...]:
        """The chain with the last (magnetic) entry replaced by its modulus;
        every density and entropy depends on the chain only through this."""
        return self.mu[:-1] + (abs(self.mu[-1]),)

    def is_ns(self) -> bool:
        """Quasi-spherical: l = n-1 and the whole chain equal."""
        chain = self.canonical_mu()
        return self.l == self.n - 1 and all(m == chain[0] for m in chain)

    def literal(self) -> str:
        mu_text = ",".join(str(m) for m in self.mu)
        return f"D={self.D},n={self.n},mu={mu_text},Z={self.Z}"

    @classmethod
    def parse(cls, text: str) -> "HydrogenicState":
        """Parse the CLI literal, e.g. "D=3,n=3,mu=2,1,Z=1"."""
        fields: dict[str, list[str]] = {}
        current: str | None = None
        for token in text.split(","):
            token = token.strip()
            if "=" in token:
                key, _, value = token.partition("=")
                key = key.strip()
                if key not in ("D", "n", "mu", "Z"):
                    raise ValidationError(
                        f"unknown key {key!r} in state literal (keys are D, n, mu, Z)"
                    )
                if key in fields:
                    raise ValidationError(f"repeated key {key!r} in state literal")
                current = key
                fields[key] = [value.strip()]
            elif current == "mu":
                fields["mu"].append(token)
            else:
                raise ValidationError(f"unexpected token {token!r} in state literal")
        missing = {"D", "n", "mu"} - set(fields)
        if missing:
            raise ValidationError(f"state literal missing {sorted(missing)}")
        try:
            D = int(fields["D"][0])
            n = int(fields["n"][0])
            mu = tuple(int(m) for m in fields["mu"])
            Z = Fraction(fields["Z"][0]) if "Z" in fields else Fraction(1)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad state literal value: {exc}") from exc
        return cls(D, n, mu, Z)

    def __str__(self) -> str:
        return self.literal()


class DerivedQuantum:
    """Spectral quantities derived from a validated state.

    l and m_abs are integers; eta = n + (D-3)/2, L = l + (D-3)/2,
    lam = eta / (2Z) and alphas = ((D-j-1)/2 for j = 1..D-2) are Fractions
    built when read, since most callers read only l.
    """

    __slots__ = ("_state", "l")

    def __init__(self, state: HydrogenicState, l: int):
        self._state = state
        self.l = l

    @property
    def m_abs(self) -> int:
        return self._state.m_abs

    @property
    def eta(self) -> Fraction:
        return Fraction(2 * self._state.n + self._state.D - 3, 2)

    @property
    def L(self) -> Fraction:
        return Fraction(2 * self.l + self._state.D - 3, 2)

    @property
    def lam(self) -> Fraction:
        Z = self._state.Z
        return Fraction((2 * self._state.n + self._state.D - 3) * Z.denominator, 4 * Z.numerator)

    @property
    def alphas(self) -> tuple[Fraction, ...]:
        D = self._state.D
        return tuple(Fraction(D - j - 1, 2) for j in range(1, D - 1))


def check_chain(D: int, mu: "tuple[int, ...]") -> None:
    """Check the dimension and the mu chain of a hyperspherical harmonic:
    D >= 2, D-1 entries and mu1 >= mu2 >= ... >= |mu_{D-1}|; name the first
    violated constraint.  The angular closed form and its oracle call this
    on every evaluation, so it is only integer comparisons."""
    if D < 2:
        raise ValidationError(f"dimension must satisfy D >= 2, got D={D}")
    if len(mu) != D - 1:
        raise ValidationError(f"mu chain must have D-1={D - 1} entries, got {len(mu)}")
    for j in range(D - 3):
        if mu[j] < mu[j + 1]:
            raise ValidationError(
                f"chain violation: mu{j + 1}={mu[j]} < mu{j + 2}={mu[j + 1]}"
            )
    if D >= 3 and mu[D - 3] < abs(mu[D - 2]):
        raise ValidationError(
            f"chain violation: mu{D - 2}={mu[D - 3]} < |mu{D - 1}|={abs(mu[D - 2])}"
        )


def validate(state: HydrogenicState) -> DerivedQuantum:
    """Check every quantum-number constraint; name the first violated one."""
    check_chain(state.D, state.mu)
    if state.n < 1:
        raise ValidationError(f"principal number must satisfy n >= 1, got n={state.n}")
    if state.Z.numerator <= 0:  # a Fraction's denominator is positive
        raise ValidationError(f"nuclear charge must be positive, got Z={state.Z}")
    l = state.l
    if not 0 <= l <= state.n - 1:
        raise ValidationError(f"orbital number must satisfy 0 <= l <= n-1, got l={l}")
    return DerivedQuantum(state, l)


def energy(state: HydrogenicState) -> Fraction:
    """Bound-state energy -Z^2 / (2 eta^2); depends on (D, n, Z) only."""
    d = validate(state)
    return -state.Z**2 / (2 * d.eta**2)


def radial_norm_squared(state: HydrogenicState, d: DerivedQuantum) -> Fraction:
    """lambda**D times N^2, i.e. the rational part of the squared radial
    normalization constant, for a state and its d = validate(state)."""
    return Fraction(
        math.factorial(state.n - d.l - 1),
        math.factorial(state.n + d.l + state.D - 3) * (2 * state.n + state.D - 3),
    )


def radial_momentum_norm_squared(state: HydrogenicState, d: DerivedQuantum) -> ExactScalar:
    """K^2, the squared normalization of the radial momentum density, for a
    state and its d = validate(state):
    Z^-D 2^(4l+2D) (n-l-1)! Gamma(l+(D-1)/2)^2 eta^(D+1) / (2 pi (n+l+D-3)!)."""
    l, D, Z = d.l, state.D, state.Z
    gamma_num, gamma_den, half = gamma_integers(2 * l + D - 1)
    # eta^(D+1) is (2n+D-3)^(D+1) / 2^(D+1), and the 1/2 of 1/(2 pi) joins
    # the power of two
    num = (
        math.factorial(state.n - l - 1)
        * (2 * state.n + D - 3) ** (D + 1)
        * Z.denominator**D
        * gamma_num**2
    ) << (4 * l + D - 2)
    den = math.factorial(state.n + l + D - 3) * Z.numerator**D * gamma_den**2
    return ExactScalar.pi_power(2 * half - 2, Fraction(num, den))


def radial_momentum_log_density(
    state: HydrogenicState, d: DerivedQuantum
) -> Callable[[float], float]:
    """The function p -> ln of the radial momentum density factor, for a
    state and its d = validate(state).

    With v = eta p / Z, u = v^2 and y = (1-u)/(1+u) the density is
    K^2 u^l (1+u)^-(2L+4) C(y)^2, C the Gegenbauer polynomial of degree
    n-l-1 and parameter L+1.  Past v = 1 it is formed from 1/v^2, so that u
    cannot overflow.
    """
    l = d.l
    log_k2 = log_float(radial_momentum_norm_squared(state, d))
    v_per_p = float(d.eta / state.Z)
    decay = float(2 * d.L + 4)
    log_poly = gegenbauer_log_abs(state.n - l - 1, float(d.L + 1))

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


def check_momentum_order(D: int, l: int, q) -> None:
    """Raise ValueError when the momentum Renyi entropy of order q is infinite.

    The radial momentum density decays as p^-(2l+2D+2), so its q-th power is
    integrable against p^(D-1) only for q > D/(2l+2D+2).  The comparison is
    exact: a float q is taken at its binary value.
    """
    decay = 2 * l + 2 * D + 2
    threshold = Fraction(D, decay)
    exact_q = q if isinstance(q, (int, Fraction)) else Fraction(float(q))
    if exact_q <= threshold:
        raise ValueError(
            f"momentum entropy diverges for q <= {threshold} at D={D}, l={l} "
            f"(the density decays as p^-{decay}); got q={float(q):g}"
        )


def radial_density_position(state: HydrogenicState, r: float) -> float:
    """Radial position density factor; integrates to 1 against r**(D-1) dr."""
    if r <= 0:
        raise ValueError("r must be positive")
    d = validate(state)
    lam = float(d.lam)
    rt = r / lam
    log_poly = laguerre_log_abs(state.n - d.l - 1, 2 * d.l + state.D - 2)
    norm2 = float(radial_norm_squared(state, d)) / lam**state.D
    return norm2 * rt ** (2 * d.l) * math.exp(2 * log_poly(rt) - rt)


def radial_density_momentum(state: HydrogenicState, p: float) -> float:
    """Radial momentum density factor; integrates to 1 against p**(D-1) dp."""
    if p <= 0:
        raise ValueError("p must be positive")
    return math.exp(radial_momentum_log_density(state, validate(state))(p))


def angular_density(state: HydrogenicState, angles: "list[float] | tuple[float, ...]") -> float:
    """Squared modulus of the hyperspherical harmonic at the given angles.

    angles holds theta_1..theta_{D-2} in [0, pi) and phi last; the modulus is
    phi-independent.  For D = 2 the value is the uniform 1/(2 pi).
    """
    d = validate(state)
    if len(angles) != state.D - 1:
        raise ValueError(f"need D-1={state.D - 1} angles, got {len(angles)}")
    chain = state.canonical_mu()
    # the norms overflow floats at large degree (Gamma(100.5)^2 ~ 1e315), so
    # the value is formed as a logarithm and exponentiated once
    log_value = -math.log(2 * math.pi)
    for j in range(1, state.D - 1):
        alpha = d.alphas[j - 1]
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


def mu_chains(D: int, n: int) -> Iterator[tuple[int, ...]]:
    """All admissible mu chains for dimension D and principal number n."""
    if D == 2:
        for m in range(-(n - 1), n):
            yield (m,)
        return

    def extend(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == D - 2:
            for m in range(-prefix[-1], prefix[-1] + 1):
                yield prefix + (m,)
            return
        for nxt in range(prefix[-1] + 1):
            yield from extend(prefix + (nxt,))

    for l in range(n):
        yield from extend((l,))


def count_states(D: int, n_max: int) -> int:
    """How many states enumerate_states(D, n_max) yields, without listing them.

    Level n holds C(n+D-2, D-1) + C(n+D-3, D-1) chains (2n-1 at D = 2, n^2
    at D = 3); summed over n <= n_max that is C(n_max+D-1, D) + C(n_max+D-2, D).
    """
    if n_max < 1:
        return 0
    return math.comb(n_max + D - 1, D) + math.comb(n_max + D - 2, D)


def enumerate_states(
    D: int, n_max: int, Z: RationalLike = 1
) -> Iterator[HydrogenicState]:
    for n in range(1, n_max + 1):
        for chain in mu_chains(D, n):
            yield HydrogenicState(D, n, chain, Z)
