"""Quantum-number model for D-dimensional hydrogenic bound states.

A state is (D, n, mu-chain, Z) with l = mu[0] and the chain constraint
mu1 >= mu2 >= ... >= mu[D-3] >= |mu[D-2]| >= 0.  For D = 2 the chain is the
single entry mu1 and l = |mu1|.  The radial normalizations here are shared
with the oracle.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from hydrenyi.exactnum import ExactScalar, RationalLike, gamma_integers


class ValidationError(ValueError):
    """A quantum-number constraint is violated; the message names it."""


_KEY_NAMES = {
    "D": "the dimension D",
    "n": "the principal quantum number n",
    "mu": "each entry of mu",
    "Z": "the charge Z",
}


def digit_limit_error(key: str) -> ValidationError:
    """The error for a value of a state literal's key with more digits than
    Python converts between integers and strings, 4,300 by default."""
    where = " in its numerator and denominator" if key == "Z" else ""
    return ValidationError(
        f"{_KEY_NAMES[key]} may have at most {sys.get_int_max_str_digits()} digits{where}"
    )


def brief(value) -> str:
    """An integer, a Fraction, a tuple of integers or a string as text, or
    as its first six characters and its length when that passes twelve.
    Integers are measured before they are written, so one past Python's
    limit on integer strings is never written out whole."""
    if isinstance(value, Fraction):
        parts = [value.numerator, "/", value.denominator][: 1 if value.denominator == 1 else 3]
    elif isinstance(value, tuple):
        parts = [part for entry in value for part in (",", entry)][1:]
    else:
        parts = [value]
    length, start = 0, ""
    for part in parts:
        if isinstance(part, str) or abs(part) < 10**12:
            text = str(part)
            length += len(text)
        else:  # at least 13 digits, the first estimate at most their number
            magnitude, digits = abs(part), int((abs(part).bit_length() - 1) * math.log10(2))
            while 10**digits <= magnitude:
                digits += 1
            text = "-" * (part < 0) + str(magnitude // 10 ** (digits - 6))
            length += (part < 0) + digits
        start += text if len(start) < 13 else ""
    return start if length <= 12 else f"{start[:6]}...({length} chars)"


def _over_digit_limit(text: str) -> bool:
    """Whether int() or Fraction() refuses a run of digits of text for
    Python's limit on integer string conversion (0 means none)."""
    limit = sys.get_int_max_str_digits()
    return bool(limit) and any(
        len(run.replace("_", "")) > limit for run in re.findall(r"[\d_]+", text)
    )


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

    @property
    def eta(self) -> Fraction:
        """n + (D-3)/2."""
        return Fraction(2 * self.n + self.D - 3, 2)

    @property
    def L(self) -> Fraction:
        """l + (D-3)/2."""
        return Fraction(2 * self.l + self.D - 3, 2)

    @property
    def lam(self) -> Fraction:
        """eta / (2Z), the length scale of the position density."""
        return self.eta / (2 * self.Z)

    def canonical_mu(self) -> tuple[int, ...]:
        return canonical_chain(self.mu)

    def unit_charge(self) -> "HydrogenicState":
        """The same state at Z = 1."""
        return self if self.Z == 1 else HydrogenicState(self.D, self.n, self.mu)

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
            for key in ("D", "n", "mu", "Z"):
                if any(_over_digit_limit(value) for value in fields.get(key, ())):
                    raise digit_limit_error(key) from None
            raise ValidationError(f"bad state literal value: {exc}") from exc
        return cls(D, n, mu, Z)

    def __str__(self) -> str:
        return self.literal()


def canonical_chain(mu: "tuple[int, ...]") -> tuple[int, ...]:
    """The chain with its magnetic entry replaced by its modulus, all a density reads."""
    return tuple(mu[:-1]) + (abs(mu[-1]),)


def check_chain(D: int, mu: "tuple[int, ...]") -> None:
    """Check the dimension and the mu chain of a hyperspherical harmonic:
    D >= 2, D-1 entries and mu1 >= mu2 >= ... >= |mu_{D-1}|; name the first
    violated constraint.  The angular closed form and its oracle call this
    on every evaluation, so it is only integer comparisons."""
    if D < 2:
        raise ValidationError(f"dimension must satisfy D >= 2, got D={brief(D)}")
    if len(mu) != D - 1:
        raise ValidationError(f"mu chain must have D-1={brief(D - 1)} entries, got {len(mu)}")
    for j in range(D - 3):
        if mu[j] < mu[j + 1]:
            raise ValidationError(
                f"chain violation: mu{j + 1}={brief(mu[j])} < mu{j + 2}={brief(mu[j + 1])}"
            )
    if D >= 3 and mu[D - 3] < abs(mu[D - 2]):
        raise ValidationError(
            f"chain violation: mu{D - 2}={brief(mu[D - 3])} < "
            f"|mu{D - 1}|={brief(abs(mu[D - 2]))}"
        )


def validate(state: HydrogenicState) -> None:
    """Check every quantum-number constraint; name the first violated one."""
    check_chain(state.D, state.mu)
    if state.n < 1:
        raise ValidationError(f"principal number must satisfy n >= 1, got n={brief(state.n)}")
    if state.Z.numerator <= 0:  # a Fraction's denominator is positive
        raise ValidationError(f"nuclear charge must be positive, got Z={brief(state.Z)}")
    l = state.l
    if not 0 <= l <= state.n - 1:
        raise ValidationError(f"orbital number must satisfy 0 <= l <= n-1, got l={brief(l)}")


def radial_norm_squared(state: HydrogenicState) -> Fraction:
    """lambda**D times N^2, i.e. the rational part of the squared radial
    normalization constant, for a validated state."""
    l = state.l
    return Fraction(
        math.factorial(state.n - l - 1),
        math.factorial(state.n + l + state.D - 3) * (2 * state.n + state.D - 3),
    )


def radial_momentum_norm_squared(state: HydrogenicState) -> ExactScalar:
    """K^2, the squared normalization of the radial momentum density, for a
    validated state:
    Z^-D 2^(4l+2D) (n-l-1)! Gamma(l+(D-1)/2)^2 eta^(D+1) / (2 pi (n+l+D-3)!)."""
    l, D, Z = state.l, state.D, state.Z
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
            f"momentum entropy diverges for q <= {brief(threshold)} at D={brief(D)}, "
            f"l={brief(l)} "
            f"(the density decays as p^-{decay}); got q={float(q):g}"
        )


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
