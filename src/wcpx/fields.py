"""Exact scalar arithmetic over the rationals and over prime fields.

Rational scalars are plain ``fractions.Fraction`` values; prime-field
scalars are immutable ``Fp`` residues.  A ``FieldSpec`` names the field
in play and coerces, parses and formats scalars for it.  Every other
module treats scalars opaquely through ``+ - * / ==`` and truthiness,
except the ``linmaps`` kernel, which stores F_p entries as plain int
residues and integral rationals as ints, and hands out field scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class FieldError(ValueError):
    """Malformed field declaration or scalar outside the field."""


# Miller-Rabin with these bases decides primality exactly for every
# n < MAX_CHARACTERISTIC (Sorenson and Webster, 2015); larger
# characteristics are refused rather than guessed at.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_CHARACTERISTIC = 318665857834031151167461


def _is_prime(n: int) -> bool:
    if n >= MAX_CHARACTERISTIC:
        raise FieldError(f"characteristic {n} is too large: primality is only decided "
                         f"below {MAX_CHARACTERISTIC}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Fp:
    """Canonical residue in the field of ``p`` elements, 0 <= residue < p."""

    residue: int
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "residue", self.residue % self.p)

    def _check(self, other: "Fp") -> None:
        if self.p != other.p:
            raise FieldError(f"mixed characteristics {self.p} and {other.p}")

    def __add__(self, other: "Fp") -> "Fp":
        self._check(other)
        return Fp(self.residue + other.residue, self.p)

    def __sub__(self, other: "Fp") -> "Fp":
        self._check(other)
        return Fp(self.residue - other.residue, self.p)

    def __mul__(self, other: "Fp") -> "Fp":
        self._check(other)
        return Fp(self.residue * other.residue, self.p)

    def __neg__(self) -> "Fp":
        return Fp(-self.residue, self.p)

    def inverse(self) -> "Fp":
        if self.residue == 0:
            raise ZeroDivisionError(f"0 has no inverse in F{self.p}")
        return Fp(pow(self.residue, self.p - 2, self.p), self.p)

    def __truediv__(self, other: "Fp") -> "Fp":
        self._check(other)
        return self * other.inverse()

    def __bool__(self) -> bool:
        return self.residue != 0

    def __str__(self) -> str:
        return str(self.residue)


Scalar = Fraction | Fp


@dataclass(frozen=True)
class FieldSpec:
    """The base field of a computation: the rationals or a prime field F_p."""

    kind: str  # "rationals" | "prime_field"
    characteristic: int = 0

    def __post_init__(self) -> None:
        if self.kind == "rationals":
            if self.characteristic != 0:
                raise FieldError("the rationals have characteristic 0")
        elif self.kind == "prime_field":
            if not _is_prime(self.characteristic):
                raise FieldError(f"{self.characteristic} is not prime")
        else:
            raise FieldError(f"unknown field kind {self.kind!r}")

    def zero(self) -> Scalar:
        return self.coerce(0)

    def one(self) -> Scalar:
        return self.coerce(1)

    def coerce(self, value) -> Scalar:
        """Turn an int, Fraction, Fp or scalar string into a scalar of this field."""
        if isinstance(value, str):
            return self.parse(value)
        if self.kind == "rationals":
            if isinstance(value, Fp):
                raise FieldError("prime-field residue used in a rational computation")
            # a Fraction is immutable and already in lowest terms
            return value if isinstance(value, Fraction) else Fraction(value)
        if isinstance(value, Fp):
            if value.p != self.characteristic:
                raise FieldError(f"residue mod {value.p} used in F{self.characteristic}")
            return value
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return Fp(value.numerator, self.characteristic)
            num = Fp(value.numerator, self.characteristic)
            den = Fp(value.denominator, self.characteristic)
            return num / den
        return Fp(int(value), self.characteristic)

    def parse(self, text: str) -> Scalar:
        """Parse ``n`` or ``n/d`` in this field; ``n/d`` means n * d^-1 in F_p."""
        text = text.strip()
        try:
            if "/" in text:
                num_text, den_text = text.split("/", 1)
                frac = Fraction(int(num_text), int(den_text))
            else:
                frac = Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"cannot parse scalar {text!r}: {exc}") from exc
        try:
            return self.coerce(frac)
        except ZeroDivisionError as exc:
            raise FieldError(f"scalar {text!r} has no meaning in {self}: {exc}") from exc

    def format(self, value: Scalar) -> str:
        return str(value)

    def __str__(self) -> str:
        if self.kind == "rationals":
            return "Q"
        return f"F{self.characteristic}"


QQ = FieldSpec("rationals")


def prime_field(p: int) -> FieldSpec:
    return FieldSpec("prime_field", p)


def parse_field(text: str) -> FieldSpec:
    """Read a field name: ``Q`` for the rationals, ``F<p>`` for a prime field."""
    text = text.strip()
    if text in ("Q", "QQ"):
        return QQ
    if text.startswith("F") and text[1:].isdecimal():
        if len(text) - 1 > len(str(MAX_CHARACTERISTIC)):
            raise FieldError(f"characteristic in {text[:20]}... is too large: primality "
                             f"is only decided below {MAX_CHARACTERISTIC}")
        return prime_field(int(text[1:]))
    raise FieldError(f"unknown field {text!r} (expected Q or F<p>)")
