"""Elements of the incidence algebra of a finite poset over an exact ring.

An element is a finitely supported map from intervals (pairs x <= y) to
scalars, written f = sum f(x, y) e_xy.  Multiplication is convolution:

    (f g)(x, y) = sum over x <= z <= y of f(x, z) g(z, y)

so e_xy e_uv = e_xv when y == u and x <= v, else 0.  All arithmetic is
exact; elements are immutable.
"""

from __future__ import annotations

from typing import Iterable

from .coeff import RingSpec, Scalar, format_scalar, parse_scalar
from .errors import (
    InvalidPair,
    NotComparable,
    PosetMismatch,
    RingMismatch,
    UnknownLabel,
)
from .poset import Interval, Poset


class IncidenceElement:
    """A sparse element of I(P, R).  Zero coefficients are never stored."""

    __slots__ = ("poset", "ring", "coeffs")

    def __init__(self, poset: Poset, ring: RingSpec, coeffs: dict[Interval, Scalar]):
        self.poset = poset
        self.ring = ring
        clean: dict[Interval, Scalar] = {}
        for iv, c in coeffs.items():
            if not poset.is_interval(*iv):
                raise InvalidPair(f"{tuple(iv)!r} is not an interval of the poset")
            if c.ring != ring:
                raise RingMismatch(f"coefficient at {iv} lives in {c.ring}, not {ring}")
            if not c.is_zero():
                clean[iv] = c
        self.coeffs = clean

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(poset: Poset, ring: RingSpec) -> "IncidenceElement":
        return IncidenceElement(poset, ring, {})

    @staticmethod
    def basis(poset: Poset, ring: RingSpec, lo: str, hi: str) -> "IncidenceElement":
        """The basis element e_xy; requires lo <= hi."""
        if lo not in poset or hi not in poset:
            raise UnknownLabel(f"{lo!r} or {hi!r} is not an element of the poset")
        if not poset.leq(lo, hi):
            raise NotComparable(f"{lo!r} <= {hi!r} does not hold")
        return IncidenceElement(poset, ring, {Interval(lo, hi): ring.one})

    @staticmethod
    def delta(poset: Poset, ring: RingSpec) -> "IncidenceElement":
        """The multiplicative identity, sum of e_xx over all x."""
        one = ring.one
        return IncidenceElement(
            poset, ring, {Interval(x, x): one for x in poset.elements}
        )

    # -- queries -------------------------------------------------------------

    def coeff(self, lo: str, hi: str) -> Scalar:
        return self.coeffs.get(Interval(lo, hi), self.ring.zero)

    def support(self) -> tuple[Interval, ...]:
        """Intervals with nonzero coefficient, in canonical order."""
        return tuple(sorted(self.coeffs, key=self.poset.interval_index))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def _check_peer(self, other: "IncidenceElement"):
        if self.poset != other.poset:
            raise PosetMismatch("elements live over different posets")
        if self.ring != other.ring:
            raise RingMismatch(f"elements live over {self.ring} and {other.ring}")

    # -- arithmetic ----------------------------------------------------------

    def _values(self) -> dict[Interval, object]:
        """The coefficients as raw ring values (see RingSpec.reduce)."""
        return {iv: c.value for iv, c in self.coeffs.items()}

    def __add__(self, other):
        if not isinstance(other, IncidenceElement):
            return NotImplemented
        self._check_peer(other)
        out = self._values()
        self.ring.axpy(out, other._values(), 1)
        return self._wrap(out)

    def __sub__(self, other):
        if not isinstance(other, IncidenceElement):
            return NotImplemented
        self._check_peer(other)
        out = self._values()
        self.ring.axpy(out, other._values(), -1)
        return self._wrap(out)

    def __neg__(self):
        out: dict[Interval, object] = {}
        self.ring.axpy(out, self._values(), -1)
        return self._wrap(out)

    def scale(self, scalar: Scalar) -> "IncidenceElement":
        if scalar.ring != self.ring:
            raise RingMismatch(f"scalar in {scalar.ring}, element in {self.ring}")
        out: dict[Interval, object] = {}
        self.ring.axpy(out, self._values(), scalar.value)
        return self._wrap(out)

    def __mul__(self, other):
        """Convolution product."""
        if not isinstance(other, IncidenceElement):
            return NotImplemented
        self._check_peer(other)
        (f, sf), (g, sg) = self._scaled(), other._scaled()
        return self._unscaled(_convolve({}, f, g, 1), sf * sg)

    def commutator(self, other: "IncidenceElement") -> "IncidenceElement":
        """[f, g] = f g - g f; both products carry the scale of f times
        that of g, so they are subtracted as ints."""
        if not isinstance(other, IncidenceElement):
            raise TypeError(f"expected IncidenceElement, got {type(other).__name__}")
        self._check_peer(other)
        (f, sf), (g, sg) = self._scaled(), other._scaled()
        return self._unscaled(_convolve(_convolve({}, f, g, 1), g, f, -1), sf * sg)

    def _scaled(self) -> tuple[dict[Interval, int], int]:
        """The coefficients as ints, each times the scale of them all
        (RingSpec.scale), and that scale."""
        values = self._values()
        s = self.ring.scale((values,))
        return {iv: v.numerator * (s // v.denominator) for iv, v in values.items()}, s

    def _unscaled(self, rows: dict[str, dict], scale: int) -> "IncidenceElement":
        """The element of int sums rows[x][v] at e_xv over scale."""
        sums = {Interval(x, v): c for x, row in rows.items() for v, c in row.items()}
        return self._wrap(self.ring.unscale(sums, scale))

    def sandwich(self, lo: str, hi: str) -> "IncidenceElement":
        """e_x f e_y, which is f(x, y) e_xy when x <= y and zero otherwise."""
        if lo not in self.poset or hi not in self.poset:
            raise UnknownLabel(f"{lo!r} or {hi!r} is not an element of the poset")
        c = self.coeffs.get(Interval(lo, hi))
        return self._wrap({} if c is None else {Interval(lo, hi): c.value})

    def restrict(self, lo: str, hi: str) -> "IncidenceElement":
        """The part of f supported on pairs touching the interval [lo, hi]:

            f|_lo^hi = f(lo, hi) e_lo,hi
                     + sum over lo <= v < hi of f(lo, v) e_lo,v
                     + sum over lo < u <= hi of f(u, hi) e_u,hi
        """
        if not self.poset.leq(lo, hi):
            raise NotComparable(f"{lo!r} <= {hi!r} does not hold")
        out: dict[Interval, object] = {}
        for v in self.poset.between(lo, hi):
            if v != hi:
                c = self.coeffs.get(Interval(lo, v))
                if c is not None:
                    out[Interval(lo, v)] = c.value
        for u in self.poset.between(lo, hi):
            if u != lo:
                c = self.coeffs.get(Interval(u, hi))
                if c is not None:
                    out[Interval(u, hi)] = c.value
        c = self.coeffs.get(Interval(lo, hi))
        if c is not None:
            out[Interval(lo, hi)] = c.value
        return self._wrap(out)

    def _wrap(self, values: dict[Interval, object]) -> "IncidenceElement":
        """An element over the same poset and ring from canonical nonzero
        raw values, wrapped into Scalars here, once."""
        el = IncidenceElement.__new__(IncidenceElement)
        el.poset = self.poset
        el.ring = ring = self.ring
        el.coeffs = {iv: Scalar(ring, v) for iv, v in values.items()} if values else {}
        return el

    # -- predicates ----------------------------------------------------------

    def is_central(self) -> bool:
        """True iff f commutes with every basis element.

        It suffices to check the e_xy themselves since they span.
        """
        for lo, hi in self.poset.intervals():
            e = IncidenceElement.basis(self.poset, self.ring, lo, hi)
            if self.commutator(e):
                return False
        return True

    def is_diagonal(self) -> bool:
        return all(lo == hi for lo, hi in self.coeffs)

    # -- equality and display ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, IncidenceElement):
            return NotImplemented
        return (
            self.poset == other.poset
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(
            (self.poset, self.ring, frozenset(self.coeffs.items()))
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for lo, hi in self.support():
            c = format_scalar(self.coeffs[Interval(lo, hi)])
            term = f"e[{lo},{hi}]" if c == "1" else f"{c}*e[{lo},{hi}]"
            parts.append(term)
        return " + ".join(parts)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "ring": self.ring.to_json(),
            "entries": [
                {"lo": lo, "hi": hi, "coeff": format_scalar(self.coeffs[Interval(lo, hi)])}
                for lo, hi in self.support()
            ],
        }

    @staticmethod
    def from_json(poset: Poset, data: dict, ring: RingSpec | None = None) -> "IncidenceElement":
        if not isinstance(data, dict):
            raise ValueError("element JSON must be an object")
        if ring is None:
            ring = RingSpec.from_json(data["ring"])
        ivs = poset.intervals()
        values = _parse_entries(poset, ring, data["entries"])
        return IncidenceElement.zero(poset, ring)._wrap({ivs[k]: v for k, v in values.items()})


def _parse_entries(poset: Poset, ring: RingSpec, entries) -> dict[int, object]:
    """The canonical nonzero raw values of JSON entries {"lo", "hi", "coeff"}
    by interval rank; each interval is checked once: its labels, lo <= hi,
    no second entry for it, its scalar text.  A malformed list or entry
    raises ValueError naming the field."""
    rank, values = poset._rank(), {}
    try:
        for entry in entries:
            lo, hi = entry["lo"], entry["hi"]
            k = rank.get((lo, hi))  # a plain tuple finds its Interval key
            if k is None:
                if lo not in poset or hi not in poset:
                    raise UnknownLabel(f"{lo!r} or {hi!r} is not an element of the poset")
                raise NotComparable(f"{lo!r} <= {hi!r} does not hold")
            if k in values:
                raise InvalidPair(f"duplicate entry for ({lo!r}, {hi!r})")
            values[k] = parse_scalar(ring, entry["coeff"]).value
    except (KeyError, TypeError):
        if not isinstance(entries, list):  # name the field at fault, or else re-raise
            raise ValueError(f"entries {entries!r} must be a list") from None
        for entry in entries:
            _fields(entry, "entry", "lo", "hi", "coeff")
        raise
    return {k: v for k, v in values.items() if v}


def _fields(entry, what: str, *names: str) -> list:
    """entry[name] for each name, "lo" and "hi" first if named; a ValueError
    names the field when entry is no object or lacks one, or when its "lo"
    or "hi" is no string label."""
    if not isinstance(entry, dict):
        raise ValueError(f"{what} {entry!r} is not an object")
    try:
        found = [entry[name] for name in names]
    except KeyError as exc:
        raise ValueError(f"{what} {entry!r} has no {exc.args[0]!r}") from None
    if names[0] == "lo" and not (isinstance(found[0], str) and isinstance(found[1], str)):
        raise ValueError(f"{what} {entry!r}: 'lo' and 'hi' must be string labels")
    return found


def _convolve(rows: dict[str, dict], f: dict, g: dict, sign: int) -> dict[str, dict]:
    """rows[x][v] += sign * f(x, z) g(z, v) over x <= z <= v, on int
    coefficients keyed by Interval; returns rows.  Each f(x, z) e_xz meets
    the terms g(z, v) e_zv of g starting at z, and e_xz e_zv = e_xv."""
    starting: dict[str, list] = {}
    for (z, v), b in g.items():
        starting.setdefault(z, []).append((v, b))
    for (x, z), a in f.items():
        terms = starting.get(z)
        if terms:
            a *= sign
            row = rows.get(x)
            if row is None:
                row = rows[x] = {}
            get = row.get
            for v, b in terms:
                row[v] = get(v, 0) + a * b
    return rows


def center_basis(poset: Poset, ring: RingSpec) -> tuple[IncidenceElement, ...]:
    """Basis of the center: one idempotent sum e_K = sum_{x in K} e_xx per
    connected component K."""
    one = ring.one
    return tuple(
        IncidenceElement(
            poset, ring, {Interval(x, x): one for x in component}
        )
        for component in poset.connected_components()
    )


def random_element(poset: Poset, ring: RingSpec, rng, density: float = 0.5) -> IncidenceElement:
    """A random sparse element with small integer coefficients.

    Used by the identity suites; rng is any random.Random-like object, so
    callers control reproducibility.
    """
    coeffs = {}
    for iv in poset.intervals():
        if rng.random() < density:
            value = rng.randint(-3, 3)
            if value:
                coeffs[iv] = ring.scalar(value)
    return IncidenceElement(poset, ring, coeffs)


def linear_combination(
    pairs: Iterable[tuple[Scalar, IncidenceElement]],
) -> IncidenceElement:
    """Sum of scalar multiples; pairs must be nonempty and compatible."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one term")
    total = pairs[0][1].scale(pairs[0][0])
    for c, el in pairs[1:]:
        total = total + el.scale(c)
    return total
