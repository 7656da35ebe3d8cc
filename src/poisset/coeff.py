"""Exact coefficient rings: rationals, integers and integers modulo m.

Every scalar is stored in a canonical form (reduced fraction with positive
denominator, plain integer, or residue in [0, m)), so structural equality
coincides with equality in the ring.  All arithmetic is arbitrary precision.
This module is the one arithmetic kernel: every other module computes with
RingSpec's raw-value operations (reduce, inv, the sparse axpy, scale and
unscale), and Echelon is the one Gaussian elimination.

Hot loops run on scaled ints, not Fractions.  RingSpec.scale gives the
lcm s of the denominators of a set of raw values (1 over Z and Z/m), and
s * v = v.numerator * (s // v.denominator) is an int.  A loop that sums
products of values of f, scaled by s_f, and of g, scaled by s_g, sums
plain ints scaled by s_f * s_g, and RingSpec.unscale builds one canonical
raw value per nonzero output entry: a Fraction over Q, a residue over Z/m,
so Z/m reduces once, at the end.  A check that only asks whether a sum
linear or bilinear in the values vanishes needs no unscale: it vanishes
iff the scaled sum does, after reduce.  IncidenceElement's product and
commutator (poisset.algebra) convolve this way, the commutator with both
products on one scale.  A Bracket (poisset.bracket) stores its table as
scaled ints on interval ranks, which check_antisymmetric, the Leibniz
checks and check_jacobi read as stored, and Bracket.evaluate and
lemma_suite sum on those ints and on their arguments' scaled ints.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

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

    # -- raw-value arithmetic -------------------------------------------------
    # on plain ints and Fractions in the canonical form Scalar.value holds;
    # hot loops use these and wrap results into Scalars once, at the end

    def reduce(self, v):
        """Canonical representative of a raw value: its residue over Z/m."""
        if self.modulus is None:
            return v
        return v % self.modulus

    def inv(self, v):
        """Inverse of a raw value, NotInvertible for non-units; over Q the
        units 1 and -1 keep their type, so integer rows stay integer."""
        if self.kind == "Q":
            if v == 0:
                raise NotInvertible("0 has no inverse")
            return v if v in (1, -1) else 1 / Fraction(v)
        if self.kind == "Z":
            if v in (1, -1):
                return v
            raise NotInvertible(f"{v} is not a unit of Z")
        try:
            return pow(v, -1, self.modulus)
        except ValueError:
            raise NotInvertible(f"{v} is not invertible mod {self.modulus}") from None

    def axpy(self, acc: dict, x: Mapping, a) -> None:
        """acc += a * x over raw values, in place; entries that become zero
        are dropped, so acc never stores a zero."""
        if not x:
            return
        get = acc.get
        m = self.modulus
        if m is not None:
            for k, v in x.items():
                s = (get(k, 0) + a * v) % m
                if s:
                    acc[k] = s
                else:
                    acc.pop(k, None)
            return
        # Fraction arithmetic is slow, comparisons included: no product
        # for a = 1, a negation for a = -1, a sum only where acc holds k
        scale, negate = a != 1, a == -1
        for k, v in x.items():
            if scale:
                v = -v if negate else a * v
            s = get(k)
            if s is not None:
                v += s
            if v:
                acc[k] = v
            else:
                acc.pop(k, None)

    def scale(self, rows: Iterable[Mapping]) -> int:
        """The least positive integer s that turns every raw value v of rows
        into an int when multiplied in: the lcm of the denominators over Q,
        1 over Z and Z/m.  The int is v.numerator * (s // v.denominator),
        with no Fraction product.  A sum linear or bilinear in the values
        vanishes iff the same sum of scaled values does (after reduce, over
        Z/m); unscale turns such a sum back into a raw value."""
        if self.kind != "Q":
            return 1
        return lcm(*(v.denominator for row in rows for v in row.values()))

    def unscale(self, sums: Mapping, scale: int) -> dict:
        """The canonical raw values sums[k] / scale of int sums, built once
        per entry, the zeros dropped: Fractions over Q, residues over Z/m."""
        if self.kind == "Q":
            if scale == 1:
                return {k: Fraction(v) for k, v in sums.items() if v}
            return {k: Fraction(v, scale) for k, v in sums.items() if v}
        m = self.modulus
        if m is None:
            return {k: v for k, v in sums.items() if v}
        return {k: r for k, v in sums.items() if (r := v % m)}

    # -- scalar construction -------------------------------------------------

    def scalar(self, value) -> "Scalar":
        """Canonical scalar from an int or a Fraction."""
        if self.kind == "Q":
            return Scalar(self, Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError(f"{value} is not an integer")
            value = value.numerator
        return Scalar(self, self.reduce(int(value)))

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
        _set_ring(self, ring)
        _set_value(self, value)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _check(self, other: "Scalar"):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check(other)
        return Scalar(self.ring, self.ring.reduce(self.value + other.value))

    def __sub__(self, other):
        self._check(other)
        return Scalar(self.ring, self.ring.reduce(self.value - other.value))

    def __mul__(self, other):
        self._check(other)
        return Scalar(self.ring, self.ring.reduce(self.value * other.value))

    def __neg__(self):
        return Scalar(self.ring, self.ring.reduce(-self.value))

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; raises NotInvertible for non-units."""
        return Scalar(self.ring, self.ring.inv(self.value))

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


# slot setters: past the immutability guard, faster than object.__setattr__
_set_ring = Scalar.ring.__set__
_set_value = Scalar.value.__set__


def parse_scalar(ring: RingSpec, text: str) -> Scalar:
    """Parse scalar text: "p/q" over Q, a plain signed integer otherwise."""
    if not isinstance(text, str):
        raise ScalarParseError(f"scalar must be given as text, got {text!r}")
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


class Echelon:
    """Sparse rows over a field, kept in echelon form by forward elimination.

    rows maps each pivot column to its row {column: raw value}, whose pivot
    entry is 1 and which is zero left of the pivot.  Stored rows are never
    rewritten while rows are absorbed; back_substitute() brings them to
    reduced row echelon form in place, once, at the end.  Its callers are
    verify_piecewise_witness, through bracket._span, and the reference
    Leibniz solvers of the tests; the solver's rows are all x_p = +-x_q,
    and it solves them with a signed union-find instead.
    """

    def __init__(self, ring: RingSpec):
        self.ring = ring
        self.rows: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def absorb(self, row: dict) -> bool:
        """Reduce row (consumed) at its least column until that column is
        no pivot, then store it scaled to 1 there; True iff the rank rose."""
        rows, ring = self.rows, self.ring
        while row:
            pivot = min(row)
            pivot_row = rows.get(pivot)
            if pivot_row is None:
                inv = ring.inv(row[pivot])
                if inv != 1:
                    scaled: dict = {}
                    ring.axpy(scaled, row, inv)
                    row = scaled
                rows[pivot] = row
                return True
            ring.axpy(row, pivot_row, -row[pivot])
        return False

    def _clear(self, row: dict, keep=None) -> None:
        # subtract, at each pivot column of row but keep, that column's
        # stored row; one pass suffices when those rows are zero at every
        # other pivot column
        rows, axpy = self.rows, self.ring.axpy
        for col in [c for c in row if c != keep and c in rows]:
            axpy(row, rows[col], -row[col])

    def residue(self, row: Mapping) -> dict:
        """row minus the combination of the stored rows that clears every
        pivot column; empty iff row lies in their span.  The rows must be
        reduced (back_substitute())."""
        out = dict(row)
        self._clear(out)
        return out

    def back_substitute(self) -> None:
        """Bring the rows to reduced row echelon form, in place.

        Pivots are visited in descending order, so every pivot row a row
        is reduced by is already zero at all other pivot columns.
        """
        for pivot in sorted(self.rows, reverse=True):
            self._clear(self.rows[pivot], pivot)
