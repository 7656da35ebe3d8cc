"""Exact coefficient rings: rationals, integers and integers modulo m.

Every scalar is stored in a canonical form (reduced fraction with positive
denominator, plain integer, or residue in [0, m)), so structural equality
coincides with equality in the ring.  All arithmetic is arbitrary precision.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    NotInvertible,
    RingMismatch,
    ScalarParseError,
    ZeroDenominator,
)

_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")
_INTEGER_RE = re.compile(r"[+-]?\d+\Z")


# Miller-Rabin on the first 13 prime bases is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson and Webster, Math.
# Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin; ValueError from m >= 3.3e24 on."""
    if m >= _MR_LIMIT:
        raise ValueError(
            f"modulus {m} is too large: primality is decided only below {_MR_LIMIT}"
        )
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class RingSpec:
    """A commutative unital coefficient ring: Q, Z, or Z/m with m >= 2."""

    __slots__ = ("kind", "modulus", "is_field")

    def __init__(self, kind: str, modulus: int | None = None):
        if kind not in ("Q", "Z", "Zmod"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "Zmod":
            if modulus is None or modulus < 2:
                raise ValueError("modulus must be an integer >= 2")
        elif modulus is not None:
            raise ValueError(f"ring {kind} takes no modulus")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(
            self,
            "is_field",
            kind == "Q" or (kind == "Zmod" and _is_prime(modulus)),
        )

    def __setattr__(self, name, value):
        raise AttributeError("RingSpec is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, RingSpec):
            return NotImplemented
        return self.kind == other.kind and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        if self.kind == "Zmod":
            return f"RingSpec('Zmod', {self.modulus})"
        return f"RingSpec({self.kind!r})"

    def __str__(self):
        if self.kind == "Zmod":
            return f"Z/{self.modulus}"
        return self.kind

    # -- scalar construction -------------------------------------------------

    def scalar(self, value) -> "Scalar":
        """Canonical scalar from an int, Fraction, or numerator/denominator pair."""
        if self.kind == "Q":
            return Scalar(self, Fraction(value))
        if self.kind == "Z":
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise ValueError(f"{value} is not an integer")
                value = value.numerator
            return Scalar(self, int(value))
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError(f"{value} is not an integer")
            value = value.numerator
        return Scalar(self, int(value) % self.modulus)

    @property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)

    # -- serialization -------------------------------------------------------

    def to_json(self):
        if self.kind == "Zmod":
            return {"Zmod": self.modulus}
        return self.kind

    @staticmethod
    def from_json(data) -> "RingSpec":
        if data == "Q":
            return RATIONALS
        if data == "Z":
            return INTEGERS
        if isinstance(data, dict) and set(data) == {"Zmod"}:
            return integers_mod(int(data["Zmod"]))
        raise ValueError(f"not a ring spec: {data!r}")


RATIONALS = RingSpec("Q")
INTEGERS = RingSpec("Z")

_ZMOD_CACHE: dict[int, RingSpec] = {}


def integers_mod(m: int) -> RingSpec:
    """The ring Z/m, cached so equal specs are identical objects."""
    spec = _ZMOD_CACHE.get(m)
    if spec is None:
        spec = _ZMOD_CACHE[m] = RingSpec("Zmod", m)
    return spec


class Scalar:
    """An immutable element of a RingSpec, always in canonical form."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: RingSpec, value):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _check(self, other: "Scalar"):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check(other)
        v = self.value + other.value
        if self.ring.kind == "Zmod":
            v %= self.ring.modulus
        return Scalar(self.ring, v)

    def __sub__(self, other):
        self._check(other)
        v = self.value - other.value
        if self.ring.kind == "Zmod":
            v %= self.ring.modulus
        return Scalar(self.ring, v)

    def __mul__(self, other):
        self._check(other)
        v = self.value * other.value
        if self.ring.kind == "Zmod":
            v %= self.ring.modulus
        return Scalar(self.ring, v)

    def __neg__(self):
        v = -self.value
        if self.ring.kind == "Zmod":
            v %= self.ring.modulus
        return Scalar(self.ring, v)

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; raises NotInvertible for non-units."""
        ring = self.ring
        if ring.kind == "Q":
            if self.value == 0:
                raise NotInvertible("0 has no inverse")
            return Scalar(ring, 1 / self.value)
        if ring.kind == "Z":
            if self.value in (1, -1):
                return self
            raise NotInvertible(f"{self.value} is not a unit of Z")
        try:
            v = pow(self.value, -1, ring.modulus)
        except ValueError:
            raise NotInvertible(
                f"{self.value} is not invertible mod {ring.modulus}"
            ) from None
        return Scalar(ring, v)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __bool__(self):
        return self.value != 0

    def is_zero(self) -> bool:
        return self.value == 0

    def is_one(self) -> bool:
        return self.value == 1

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.ring == other.ring and self.value == other.value

    def __hash__(self):
        return hash((self.ring, self.value))

    def __repr__(self):
        return f"Scalar({self.ring}, {self.value})"

    def __str__(self):
        return format_scalar(self)


def parse_scalar(ring: RingSpec, text: str) -> Scalar:
    """Parse scalar text: "p/q" over Q, a plain signed integer otherwise."""
    text = text.strip()
    if ring.kind == "Q":
        if not _RATIONAL_RE.fullmatch(text):
            raise ScalarParseError(f"not a rational literal: {text!r}")
        if "/" in text:
            num, den = text.split("/")
            if int(den) == 0:
                raise ZeroDenominator(f"zero denominator in {text!r}")
            return Scalar(ring, Fraction(int(num), int(den)))
        return Scalar(ring, Fraction(int(text)))
    if not _INTEGER_RE.fullmatch(text):
        raise ScalarParseError(f"not an integer literal: {text!r}")
    return ring.scalar(int(text))


def format_scalar(a: Scalar) -> str:
    """Canonical text; parse_scalar(ring, format_scalar(a)) == a."""
    if a.ring.kind == "Q" and a.value.denominator != 1:
        return f"{a.value.numerator}/{a.value.denominator}"
    return str(a.value if a.ring.kind != "Q" else a.value.numerator)
