"""Quantum-number model for D-dimensional hydrogenic bound states.

A state is (D, n, mu-chain, Z) with l = mu[0] and the chain constraint
mu1 >= mu2 >= ... >= mu[D-3] >= |mu[D-2]| >= 0.  For D = 2 the chain is the
single entry mu1 and l = |mu1|.  The pointwise density evaluators here are
plain floats; the integration oracle builds its own extended-precision
integrands from the same exact coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from hydrenyi.exactnum import RationalLike
from hydrenyi.polynomials import gegenbauer, laguerre


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


@dataclass(frozen=True)
class DerivedQuantum:
    """Spectral quantities derived from a validated state."""

    eta: Fraction
    L: Fraction
    lam: Fraction
    alphas: tuple[Fraction, ...]
    l: int
    m_abs: int


def validate(state: HydrogenicState) -> DerivedQuantum:
    """Check every quantum-number constraint; name the first violated one."""
    if state.D < 2:
        raise ValidationError(f"dimension must satisfy D >= 2, got D={state.D}")
    if state.n < 1:
        raise ValidationError(f"principal number must satisfy n >= 1, got n={state.n}")
    if len(state.mu) != state.D - 1:
        raise ValidationError(
            f"mu chain must have D-1={state.D - 1} entries, got {len(state.mu)}"
        )
    if state.Z <= 0:
        raise ValidationError(f"nuclear charge must be positive, got Z={state.Z}")
    l = state.l
    if not 0 <= l <= state.n - 1:
        raise ValidationError(f"orbital number must satisfy 0 <= l <= n-1, got l={l}")
    if state.D >= 3:
        chain = state.mu
        for j in range(state.D - 3):
            if chain[j] < chain[j + 1]:
                raise ValidationError(
                    f"chain violation: mu{j + 1}={chain[j]} < mu{j + 2}={chain[j + 1]}"
                )
        if chain[state.D - 3] < abs(chain[state.D - 2]):
            raise ValidationError(
                f"chain violation: mu{state.D - 2}={chain[state.D - 3]} < "
                f"|mu{state.D - 1}|={abs(chain[state.D - 2])}"
            )
    eta = state.n + Fraction(state.D - 3, 2)
    L = l + Fraction(state.D - 3, 2)
    lam = eta / (2 * state.Z)
    alphas = tuple(Fraction(state.D - j - 1, 2) for j in range(1, state.D - 1))
    return DerivedQuantum(eta=eta, L=L, lam=lam, alphas=alphas, l=l, m_abs=state.m_abs)


def energy(state: HydrogenicState) -> Fraction:
    """Bound-state energy -Z^2 / (2 eta^2); depends on (D, n, Z) only."""
    d = validate(state)
    return -state.Z**2 / (2 * d.eta**2)


def radial_norm_squared(state: HydrogenicState) -> Fraction:
    """lambda**D times N^2, i.e. the rational part of the squared radial
    normalization constant."""
    d = validate(state)
    return Fraction(
        math.factorial(state.n - d.l - 1),
        math.factorial(state.n + d.l + state.D - 3),
    ) / (2 * d.eta)


def radial_density_position(state: HydrogenicState, r: float) -> float:
    """Radial position density factor; integrates to 1 against r**(D-1) dr."""
    if r <= 0:
        raise ValueError("r must be positive")
    d = validate(state)
    lam = float(d.lam)
    rt = r / lam
    poly = laguerre(state.n - d.l - 1, 2 * d.l + state.D - 2)
    norm2 = float(radial_norm_squared(state)) / lam**state.D
    return norm2 * rt ** (2 * d.l) * math.exp(-rt) * poly.eval_float(rt) ** 2


def radial_density_momentum(state: HydrogenicState, p: float) -> float:
    """Radial momentum density factor; integrates to 1 against p**(D-1) dp."""
    if p <= 0:
        raise ValueError("p must be positive")
    d = validate(state)
    eta = float(d.eta)
    pt = p / float(state.Z)
    y = (1 - (eta * pt) ** 2) / (1 + (eta * pt) ** 2)
    poly = gegenbauer(state.n - d.l - 1, d.L + 1)
    # K^2 = Z^-D 2^(4L+6) Gamma(n-l) Gamma(L+1)^2 eta^(D+1) / (2 pi Gamma(n+l+D-2))
    k2 = (
        float(state.Z) ** (-state.D)
        * 2.0 ** float(4 * d.L + 6)
        * math.factorial(state.n - d.l - 1)
        * math.gamma(float(d.L + 1)) ** 2
        * eta ** (state.D + 1)
        / (2 * math.pi * math.factorial(state.n + d.l + state.D - 3))
    )
    return (
        k2
        * (eta * pt) ** (2 * d.l)
        * (1 + (eta * pt) ** 2) ** float(-(2 * d.L + 4))
        * poly.eval_float(y) ** 2
    )


def angular_density(state: HydrogenicState, angles: "list[float] | tuple[float, ...]") -> float:
    """Squared modulus of the hyperspherical harmonic at the given angles.

    angles holds theta_1..theta_{D-2} in [0, pi) and phi last; the modulus is
    phi-independent.  For D = 2 the value is the uniform 1/(2 pi).
    """
    d = validate(state)
    if len(angles) != state.D - 1:
        raise ValueError(f"need D-1={state.D - 1} angles, got {len(angles)}")
    chain = state.canonical_mu()
    norm2 = 1 / (2 * math.pi)
    value = norm2
    for j in range(1, state.D - 1):
        alpha = d.alphas[j - 1]
        alpha_f = float(alpha)
        mu_j, mu_j1 = chain[j - 1], chain[j]
        theta = angles[j - 1]
        poly = gegenbauer(mu_j - mu_j1, alpha + mu_j1)
        factor_norm = (
            (alpha_f + mu_j)
            * math.factorial(mu_j - mu_j1)
            * math.gamma(alpha_f + mu_j1) ** 2
            / (
                math.pi
                * 2.0 ** (1 - 2 * alpha_f - 2 * mu_j1)
                * math.factorial(int(2 * alpha) + mu_j + mu_j1 - 1)
            )
        )
        value *= (
            factor_norm
            * poly.eval_float(math.cos(theta)) ** 2
            * math.sin(theta) ** (2 * mu_j1)
        )
    return value


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


def enumerate_states(
    D: int, n_max: int, Z: RationalLike = 1
) -> Iterator[HydrogenicState]:
    for n in range(1, n_max + 1):
        for chain in mu_chains(D, n):
            yield HydrogenicState(D, n, chain, Z)
