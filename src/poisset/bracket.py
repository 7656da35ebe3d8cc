"""Bilinear brackets on incidence algebras.

A bracket is determined by its values B(e_i, e_j) on ordered pairs of basis
elements.  This module stores such tables, verifies the antisymmetry,
Leibniz, and Jacobi identities exhaustively on basis triples (enough, by
multilinearity), and implements the two directions of the classification:
a chain-constant map sigma on strict pairs induces the bracket

    B(f, g)(x, y) = sigma(x, y) [f, g](x, y)   for x < y, 0 on the diagonal

and every antisymmetric biderivation arises this way, with sigma recovered
as sigma(x, y) = B(e_x, e_xy)(x, y).

Leibniz family.  Fix c and write D = B(., e_c), R(a, b) = D(e_a e_b) -
D(e_a) e_b - e_a D(e_b): its coefficients are the residuals of the first
Leibniz identity at the triples (a, b, c).  H holds the pairs with a a
generator, a cover or an e_xx, and e_a e_b = 0, or a a cover and b strict,
or a = b.  R is bilinear, R(fg, h) + R(f, g) h = R(f, gh) + f R(g, h) by
expanding both sides, and a product with a basis element only moves
coefficients.  With 1 the sum of the e_xx, D(1) = -R(1, 1) = -sum R(e_xx,
e_ww), each pair in H.  R(e_xx, b) = -D(1) e_b - sum_{w != x} R(e_ww, b),
and for a cover a, R(a, e_yy) = -e_a D(1) - sum_{w != y} R(a, e_ww); a
pair of either kind outside H has b = [x, z] or a = [w, y], where every
term of the sums is in H.  So R(s, b) is in the span of H for each
generator s.  A strict a that is no cover is a1 a2, a1 a cover and a2
strict, and R(a, b) = R(a1, a2 b) + a1 R(a2, b) - R(a1, a2) b is in it by
induction on the length of a.  Each step is an integer combination, so R
vanishes on H iff it vanishes on every pair, over any ring.  The proof
uses no chain components.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping

from .algebra import IncidenceElement, _fields, _parse_entries, random_element
from .coeff import Echelon, RingSpec, Scalar, format_scalar, parse_scalar
from .errors import (
    InconsistentAntisymmetry,
    InvalidPair,
    NotABiderivation,
    NotAField,
    NotChainConstant,
    NotProportional,
    PosetMismatch,
    RingMismatch,
)
from .poset import Interval, PairPartition, Poset, StrictPair


class CheckReport:
    """Outcome of one verification pass.

    Passing instances are only counted (per check name); failing instances
    are kept individually with enough data to reproduce them.
    """

    def __init__(self, name: str):
        self.name = name
        self.pass_counts: dict[str, int] = {}
        self.failures: list[tuple[str, dict]] = []

    def count_pass(self, check: str, n: int = 1):
        self.pass_counts[check] = self.pass_counts.get(check, 0) + n

    def fail(self, check: str, instance: dict):
        self.failures.append((check, instance))

    @property
    def ok(self) -> bool:
        return not self.failures

    def total_passes(self) -> int:
        return sum(self.pass_counts.values())

    def to_json(self) -> list[dict]:
        records = [
            {"check": check, "instance": instance, "status": "fail"}
            for check, instance in self.failures
        ]
        failed = {check for check, _ in self.failures}
        for check in sorted(self.pass_counts):
            if check not in failed:
                records.append(
                    {
                        "check": check,
                        "instance": {"instances": self.pass_counts[check]},
                        "status": "pass",
                    }
                )
        return records

    def __repr__(self):
        verdict = "ok" if self.ok else f"{len(self.failures)} failures"
        return f"CheckReport({self.name}: {verdict}, {self.total_passes()} passes)"


class SigmaMap:
    """A map from strict pairs of the poset to scalars, stored by its
    support: values holds the nonzero values in canonical pair order, and
    every other strict pair reads zero."""

    __slots__ = ("poset", "ring", "values")

    def __init__(self, poset: Poset, ring: RingSpec, values: Mapping):
        self.poset = poset
        self.ring = ring
        found: dict[StrictPair, Scalar] = {}
        for key, scalar in values.items():
            lo, hi = key
            pair = StrictPair(lo, hi)
            if lo == hi or not poset.is_interval(lo, hi):
                raise InvalidPair(f"({lo!r}, {hi!r}) is not a strict pair")
            if not isinstance(scalar, Scalar):
                scalar = ring.scalar(scalar)
            elif scalar.ring != ring:
                raise RingMismatch(f"value at {pair} lives in {scalar.ring}")
            if scalar:
                found[pair] = scalar
        # a StrictPair finds its Interval key: equal, same hash
        self.values = {pair: found[pair] for pair in sorted(found, key=poset.interval_index)}

    def value(self, lo: str, hi: str) -> Scalar:
        pair = StrictPair(lo, hi)
        value = self.values.get(pair)
        if value is not None:
            return value
        if lo == hi or not self.poset.is_interval(lo, hi):
            raise InvalidPair(f"({lo!r}, {hi!r}) is not a strict pair")
        return self.ring.zero

    def is_chain_constant(self) -> bool:
        """True iff the map takes one value on each chain component."""
        return self._constant_on(self.poset.chain_components())

    def _constant_on(self, classes: PairPartition) -> bool:
        """True iff the map takes one value on each of the classes: a class
        that the support meets lies wholly in it, with one value, and every
        other class reads zero."""
        values, seen = self.values, set()
        for pair, first in values.items():
            k = classes.class_index(pair)
            if k not in seen:
                seen.add(k)
                if any(values.get(other) != first for other in classes.classes[k]):
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, SigmaMap):
            return NotImplemented
        return (
            self.poset == other.poset
            and self.ring == other.ring
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.poset, self.ring, frozenset(self.values.items())))

    def _total(self) -> list[tuple[StrictPair, str]]:
        """Every strict pair in canonical order, with its formatted value."""
        values, zero = self.values, self.ring.zero
        return [(pair, format_scalar(values.get(pair, zero))) for pair in self.poset.strict_pairs()]

    def __repr__(self):
        items = ", ".join(f"({lo},{hi})={text}" for (lo, hi), text in self._total())
        return f"SigmaMap({items})"

    def to_json(self) -> dict:
        return {
            "entries": [{"lo": lo, "hi": hi, "value": text} for (lo, hi), text in self._total()]
        }

    @staticmethod
    def from_json(poset: Poset, ring: RingSpec, data: dict) -> "SigmaMap":
        """The map of {"entries": [{"lo", "hi", "value"}, ...]}; a malformed
        document raises ValueError naming the field."""
        entries = data.get("entries", []) if isinstance(data, dict) else None
        if not isinstance(entries, list):
            raise ValueError("sigma JSON must be an object with an 'entries' list")
        values = {}
        for entry in entries:
            lo, hi, value = _fields(entry, "sigma entry", "lo", "hi", "value")
            if (lo, hi) in values:
                raise InvalidPair(f"duplicate sigma entry for {(lo, hi)}")
            values[lo, hi] = parse_scalar(ring, value)
        return SigmaMap(poset, ring, values)


def is_chain_constant(sigma: SigmaMap) -> bool:
    return sigma.is_chain_constant()


class Bracket:
    """A bilinear bracket stored by its basis table.

    The table maps each pair of interval ranks (i, j) with B(e_i, e_j)
    nonzero to its nonzero coefficients {rank k: int}, all values times one
    scale (RingSpec.scale); a missing pair reads as zero.  The checks read
    it as stored: their residuals are linear or bilinear in the values, so
    each vanishes iff its scaled sum does.  value, stored_pairs, to_json,
    extract_sigma and extract_lambda give intervals and raw ring values.
    The constructor takes raw ring values by interval rank and is the one
    place that mirrors, scales and canonicalises them: values reduced, zero
    values and empty pairs dropped.  In antisymmetric mode it reads a key
    (j, i) as -B(e_i, e_j) and adds every mirror; a nonzero diagonal value,
    or two given orientations that are not negatives, raise
    InconsistentAntisymmetry.  In raw mode every pair is kept, so that the
    checks can report the violations of unvalidated input.  Callers must
    not mutate the table.
    """

    __slots__ = ("poset", "ring", "antisymmetric_mode", "_zero", "_scale", "_table")

    def __init__(
        self,
        poset: Poset,
        ring: RingSpec,
        table: dict[tuple[int, int], dict[int, object]],
        antisymmetric_mode: bool,
    ):
        self.poset = poset
        self.ring = ring
        self.antisymmetric_mode = antisymmetric_mode
        self._zero = IncidenceElement.zero(poset, ring)
        self._scale = s = ring.scale(table.values())
        reduce = ring.reduce
        full: dict[tuple[int, int], dict[int, int]] = {}
        mirrored = []  # keys (i, j), i >= j, whose mirror (j, i) is given: a diagonal's is itself
        for (i, j), values in table.items():
            scaled = {
                k: r for k, v in values.items() if (r := reduce(v.numerator * (s // v.denominator)))
            }
            if antisymmetric_mode and i >= j and (j, i) in table:
                mirrored.append((i, j, scaled))
            elif scaled:
                full[i, j] = scaled
                if antisymmetric_mode:
                    full[j, i] = {k: reduce(-v) for k, v in scaled.items()}
        # each must equal the mirror that (j, i) stored; none is stored for a diagonal key
        for i, j, scaled in mirrored:
            if full.get((i, j), {}) != scaled:
                ivs = poset.intervals()
                if i == j:
                    raise InconsistentAntisymmetry(
                        f"B(e_{ivs[i]}, e_{ivs[i]}) must vanish, got {self._element(scaled)!r}"
                    )
                raise InconsistentAntisymmetry(
                    f"B{(ivs[j], ivs[i])} and its mirror disagree with antisymmetry"
                )
        self._table = full

    @staticmethod
    def from_basis_table(
        poset: Poset, ring: RingSpec, entries: Mapping, antisymmetric: bool = True
    ) -> "Bracket":
        """Build a bracket from a map (pair of intervals) -> element.

        Interval keys may be given as Interval values or plain (lo, hi)
        tuples, a pair in either orientation or both; only keys and values
        are checked here, the constructor folds and checks the orientations.
        """
        rank, ivs = poset._rank(), poset.intervals()
        table: dict[tuple[int, int], dict] = {}
        for (left, right), value in entries.items():
            a, b = _interval_rank(rank, left), _interval_rank(rank, right)
            if not isinstance(value, IncidenceElement):
                raise InvalidPair(f"value at ({ivs[a]}, {ivs[b]}) is not an element")
            if value.poset != poset:
                raise PosetMismatch(f"value at ({ivs[a]}, {ivs[b]}) uses another poset")
            if value.ring != ring:
                raise RingMismatch(f"value at ({ivs[a]}, {ivs[b]}) lives in {value.ring}")
            table[a, b] = {rank[k]: c.value for k, c in value.coeffs.items()}
        return Bracket(poset, ring, table, antisymmetric)

    # -- table access --------------------------------------------------------

    def value(self, i: Interval, j: Interval) -> IncidenceElement:
        """B(e_i, e_j); zero when i or j is no interval, as no entry is stored."""
        rank = self.poset.interval_index
        try:
            return self._element(self._table.get((rank(i), rank(j)), {}))
        except KeyError:
            return self._zero

    def _element(self, sums: dict[int, int], scale: int = 1) -> IncidenceElement:
        """The element of int sums by interval rank over the table's scale
        times scale; a stored value, unscaled, when scale is 1."""
        ivs = self.poset.intervals()
        return self._zero._wrap(
            self.ring.unscale({ivs[k]: v for k, v in sums.items()}, self._scale * scale)
        )

    def stored_pairs(self) -> list[tuple[Interval, Interval]]:
        """The pairs of the table in canonical order; in antisymmetric mode
        only those with i before j."""
        ivs, mirrored = self.poset.intervals(), self.antisymmetric_mode
        return [(ivs[i], ivs[j]) for i, j in sorted(self._table) if i < j or not mirrored]

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, f: IncidenceElement, g: IncidenceElement) -> IncidenceElement:
        """The bilinear extension: sum of f(i) g(j) B(e_i, e_j), on the
        scaled ints of f, g and the table, unscaled once per entry."""
        for el in (f, g):
            if el.poset != self.poset:
                raise PosetMismatch("argument lives over another poset")
            if el.ring != self.ring:
                raise RingMismatch(f"argument lives in {el.ring}, not {self.ring}")
        (fs, sf), (gs, sg) = f._scaled(), g._scaled()
        rank, table = self.poset.interval_index, self._table
        right = [(rank(j), b) for j, b in gs.items()]
        acc: dict[int, int] = {}
        get = acc.get
        for iv, a in fs.items():
            i = rank(iv)
            for j, b in right:
                coeffs = table.get((i, j))
                if coeffs:
                    ab = a * b
                    for k, v in coeffs.items():
                        acc[k] = get(k, 0) + ab * v
        return self._element(acc, sf * sg)

    # -- equality ------------------------------------------------------------

    def _key(self) -> tuple:
        """Poset, ring, scale and every nonzero B(e_i, e_j) in both
        orientations, so raw and antisymmetric storage of one bracket give
        one key."""
        values = frozenset(
            (pair, frozenset(coeffs.items())) for pair, coeffs in self._table.items()
        )
        return self.poset, self.ring, self._scale, values

    def __eq__(self, other):
        if not isinstance(other, Bracket):
            return NotImplemented
        return (
            self.poset == other.poset
            and self.ring == other.ring
            and self._scale == other._scale
            and self._table == other._table
        )

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        mode = "antisymmetric" if self.antisymmetric_mode else "raw"
        return f"Bracket({mode}, {len(self.stored_pairs())} stored pairs)"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        """Table as JSON: every nonzero B(e_i, e_j), for an antisymmetric
        table in both orientations, so that the file alone certifies
        antisymmetry when re-verified."""
        ivs, table = self.poset.intervals(), self._table
        pairs = []
        for i, j in sorted(table):
            pairs.append(
                {
                    "left": {"lo": ivs[i].lo, "hi": ivs[i].hi},
                    "right": {"lo": ivs[j].lo, "hi": ivs[j].hi},
                    "value": self._element(table[i, j]).to_json()["entries"],
                }
            )
        return {"pairs": pairs}

    @staticmethod
    def from_json(
        poset: Poset, ring: RingSpec, data: dict, antisymmetric: bool = True
    ) -> "Bracket":
        """The bracket of {"pairs": [{"left", "right", "value"}, ...]}; a
        malformed document raises ValueError naming the field."""
        if not isinstance(data, dict):
            raise ValueError("bracket JSON must be an object")
        pairs, rank, table = data.get("pairs", []), poset._rank(), {}
        if not isinstance(pairs, list):
            raise ValueError("bracket JSON 'pairs' must be a list")
        try:
            for pair in pairs:
                left = pair["left"]["lo"], pair["left"]["hi"]
                right = pair["right"]["lo"], pair["right"]["hi"]
                values = _parse_entries(poset, ring, pair["value"])
                ranks = _interval_rank(rank, left), _interval_rank(rank, right)
                if ranks in table:
                    raise InvalidPair(f"duplicate table entry for {(left, right)}")
                table[ranks] = values
        except (KeyError, TypeError):
            for pair in pairs:  # name the field at fault, or else re-raise
                for side in _fields(pair, "bracket pair", "left", "right", "value")[:2]:
                    _fields(side, "bracket interval", "lo", "hi")
            raise
        return Bracket(poset, ring, table, antisymmetric)


def _interval_rank(rank: dict[Interval, int], key) -> int:
    """The rank of the interval key = (lo, hi); InvalidPair when it is none."""
    lo, hi = key
    r = rank.get((lo, hi))
    if r is None:
        raise InvalidPair(f"({lo!r}, {hi!r}) is not an interval")
    return r


# -- verification ------------------------------------------------------------


def check_antisymmetric(bracket: Bracket) -> CheckReport:
    """B(e_i, e_i) = 0 and B(e_i, e_j) + B(e_j, e_i) = 0 for all pairs.

    Only a pair with a stored entry in some orientation can fail, so only
    those are examined, on the stored table; every other pair is counted
    as a pass.
    """
    report = CheckReport("antisymmetry")
    ivs = bracket.poset.intervals()
    table = bracket._table
    reduce = bracket.ring.reduce
    diagonal, pairs, empty = [], [], {}
    for (i, j), values in table.items():
        if i == j:
            diagonal.append(i)
        elif i < j or (j, i) not in table:
            # the sum keeps a term at k unless both orientations hold k
            mirror = table.get((j, i), empty)
            if values.keys() != mirror.keys() or any(
                reduce(v + mirror[k]) for k, v in values.items()
            ):
                pairs.append((i, j) if i < j else (j, i))
    for r in sorted(diagonal):
        report.fail("antisymmetry", {"left": list(ivs[r]), "right": list(ivs[r])})
    for ri, rj in sorted(pairs):
        report.fail("antisymmetry", {"left": list(ivs[ri]), "right": list(ivs[rj])})
    n = len(ivs)
    _count_rest(report, "antisymmetry", n + n * (n - 1) // 2 - len(report.failures))
    return report


def _count_rest(report: CheckReport, check: str, passes: int):
    # a check with no passing instance gets no pass count, as when every
    # instance was counted one at a time
    if passes:
        report.count_pass(check, passes)


def check_biderivation(bracket: Bracket) -> CheckReport:
    """Both Leibniz identities on all ordered basis triples (a, b, c):

        B(ab, c) = B(a, c) b + a B(b, c)
        B(a, bc) = B(a, b) c + b B(a, c)

    When the bracket is antisymmetric the two are equivalent; the report
    still records both, plus whether their verdicts agreed triple by triple.

    Each term of a residual comes from one stored entry B(i, c), so the
    residuals are summed from the stored entries alone (see
    _leibniz_failures) and every triple no entry reaches passes.  The
    failing triples are reported in canonical order, pass counts are n^3
    minus the failures.
    """
    antisym = check_antisymmetric(bracket).ok
    report = CheckReport("biderivation")
    ivs = bracket.poset.intervals()
    full = bracket.poset.leibniz_index().full
    table, reduce = bracket._table, bracket.ring.reduce
    fail1 = set(_leibniz_failures(_lines(table, 1), full, reduce))
    # the second identity at (a, b, c) is the first at (b, c, a) for the
    # transposed table B'(u, v) = B(v, u)
    fail2 = {(a, b, c) for b, c, a in _leibniz_failures(_lines(table, 0), full, reduce)}
    for triple in sorted(fail1 | fail2):
        for check, failed in (("leibniz_1", fail1), ("leibniz_2", fail2)):
            if triple in failed:
                report.fail(check, dict(zip("abc", (list(ivs[r]) for r in triple))))

    triples = len(ivs) ** 3
    _count_rest(report, "leibniz_1", triples - len(fail1))
    _count_rest(report, "leibniz_2", triples - len(fail2))
    if antisym:
        # negating the first identity at (a, b, c) gives the second at
        # (c, a, b), so for an antisymmetric table the failing triples
        # must correspond under that permutation
        if {(c, a, b) for a, b, c in fail1} == fail2:
            report.count_pass("leibniz_equivalence")
        else:
            report.fail(
                "leibniz_equivalence", {"note": "Eq (1) and Eq (2) disagree"}
            )
    return report


def _lines(table: dict[tuple[int, int], dict], side: int) -> dict[int, list]:
    """The stored entries by one argument: lines[c] lists the (i, values) of
    the stored B(e_i, e_c) for side 1, of the stored B(e_c, e_i) for 0."""
    lines: dict[int, list] = {}
    for pair, values in table.items():
        lines.setdefault(pair[side], []).append((pair[1 - side], values))
    return lines


def _leibniz_failures(lines, family: tuple, reduce) -> list[tuple[int, int, int]]:
    """The rank triples (a, b, c) with R(a, b) = B(ab, c) - B(a, c) e_b -
    e_a B(b, c) nonzero, for the pairs (a, b) of family, given the stored
    B(i, c) as lines[c] = [(i, values), ...].

    A family (Poset.leibniz_index) is (factors, left, right, lo, hi).  The
    residuals of one c are summed term by term from its line, R(a, b) at
    e_t keyed (a n + b) n + t for n intervals: B(i, c) at f + k for each f
    of factors[i] and term e_k; B(i, c) e_b at i n^2 + m and e_a B(i, c) at
    i n + m for each m of near[k] or far[k], (near, far) = left[i] or
    right[i], near if k ends (starts) where i does, by the end positions
    lo and hi.
    """
    factors, left, right, lo, hi = family
    n, n2 = len(lo), len(lo) ** 2
    failed: list[tuple[int, int, int]] = []
    for c, line in lines.items():
        acc: dict[int, int] = {}  # (a n + b) n + t: R(a, b) at e_t
        get = acc.get
        for i, values in line:
            for f in factors[i]:
                for k, v in values.items():
                    acc[key] = get(key := f + k, 0) + v
            (l_near, l_far), (r_near, r_far), x, y = left[i], right[i], lo[i], hi[i]
            i_n, i_n2 = i * n, i * n2
            for k, v in values.items():
                for m in (l_near if hi[k] == y else l_far)[k]:
                    acc[key] = get(key := i_n2 + m, 0) - v
                for m in (r_near if lo[k] == x else r_far)[k]:
                    acc[key] = get(key := i_n + m, 0) - v
        failed += {(key // n2, key // n % n, c) for key, v in acc.items() if reduce(v)}
    return failed


def check_jacobi(bracket: Bracket) -> CheckReport:
    """B(a, B(b, c)) + B(b, B(c, a)) + B(c, B(a, b)) = 0 on basis triples.

    The left side is the same sum at the three rotations of a triple, and
    each of its terms is B(x, B(y, z)) at a rotation (x, y, z): a stored
    B(y, z) with a term e_k and a stored B(x, k).  The sums are collected
    from those pairs of stored entries alone, once per rotation class, and
    a failing class fails at each of its rotations; every other triple
    passes.  Failures are reported in canonical order, pass counts are n^3
    minus the failures.
    """
    report = CheckReport("jacobi")
    ivs = bracket.poset.intervals()
    table, reduce = bracket._table, bracket.ring.reduce
    by_right = _lines(table, 1)  # the stored B(x, k) by k

    sums: dict[tuple[int, int, int], dict] = {}  # by first rotation
    for (y, z), inner in table.items():
        for k, v in inner.items():
            for x, outer in by_right.get(k, ()):
                acc = sums.setdefault(min((x, y, z), (y, z, x), (z, x, y)), {})
                # the three rotations of (x, x, x) are one triple, one term
                weight = 3 * v if x == y == z else v
                for t, w in outer.items():
                    acc[t] = acc.get(t, 0) + weight * w
    failed = {
        rotation
        for (a, b, c), acc in sums.items()
        if any(map(reduce, acc.values()))
        for rotation in ((a, b, c), (b, c, a), (c, a, b))
    }
    for triple in sorted(failed):
        report.fail("jacobi", dict(zip("abc", (list(ivs[r]) for r in triple))))
    _count_rest(report, "jacobi", len(ivs) ** 3 - len(failed))
    return report


def _require_biderivation(bracket: Bracket):
    """Raise NotABiderivation unless the table is antisymmetric and passes
    the first Leibniz identity, which then gives the second (see
    poisset.solver): one pass over the residuals of H (Leibniz family)
    gives check_biderivation's verdict."""
    if not check_antisymmetric(bracket).ok:
        raise NotABiderivation("bracket is not antisymmetric")
    family = bracket.poset.leibniz_index().generators
    if _leibniz_failures(_lines(bracket._table, 1), family, bracket.ring.reduce):
        raise NotABiderivation("bracket violates a Leibniz identity")


# -- classification ----------------------------------------------------------


def from_sigma(sigma: SigmaMap) -> Bracket:
    """The bracket B(f, g)(x, y) = sigma(x, y) [f, g](x, y), zero on loops."""
    return _from_sigma(sigma, sigma.poset.chain_components())


def _from_sigma(sigma: SigmaMap, classes: PairPartition) -> Bracket:
    """from_sigma, given the chain components of sigma's poset."""
    if not sigma._constant_on(classes):
        raise NotChainConstant("sigma takes two values on one chain component")
    P, R = sigma.poset, sigma.ring
    basis = P.basis_products()
    factors, rank = basis.factors, basis.rank
    table: dict[tuple[int, int], dict] = {}
    # [e_a, e_b] = e_t for each product e_a e_b = e_t of a strict target t
    # in sigma's support (a != b there, and e_b e_a = 0); the constructor
    # adds the mirror -e_t
    for pair, scalar in sigma.values.items():
        # a StrictPair finds its Interval key: equal, same hash
        t, w = rank[pair], scalar.value
        for ab in factors[t]:
            table[ab] = {t: w}
    return Bracket(P, R, table, antisymmetric_mode=True)


def extract_sigma(bracket: Bracket, check: bool = True) -> SigmaMap:
    """Recover sigma via sigma(x, y) = B(e_x, e_xy)(x, y).

    sigma is read from the stored entries B(e_x, e_xy) alone; a strict pair
    with none reads zero.  With check=True (the default) the bracket is
    first verified to be an antisymmetric biderivation, by one Leibniz pass
    over the residuals R(a, b) of H (_require_biderivation);
    NotABiderivation is raised otherwise.
    """
    if check:
        _require_biderivation(bracket)
    P, R = bracket.poset, bracket.ring
    ivs, found = P.intervals(), {}
    for (i, c), coeffs in bracket._table.items():
        (x, x2), (lo, hi) = ivs[i], ivs[c]
        if x == x2 == lo != hi and (value := coeffs.get(c)) is not None:
            found[lo, hi] = value
    values = R.unscale(found, bracket._scale)
    return SigmaMap(P, R, {pair: Scalar(R, value) for pair, value in values.items()})


def extract_lambda(
    bracket: Bracket, check: bool = True
) -> dict[tuple[Interval, Interval], Scalar]:
    """The proportionality scalars B(e_i, e_j) = lambda(i, j) [e_i, e_j].

    Defined exactly on the ordered pairs with [e_i, e_j] nonzero.  Raises
    NotProportional when some B(e_i, e_j) is not a multiple of the
    commutator, which cannot happen for a genuine biderivation.
    """
    if check:
        _require_biderivation(bracket)
    P, R, table = bracket.poset, bracket.ring, bracket._table
    ivs = P.intervals()
    # (a, b, t, sign) with [e_a, e_b] = sign e_t, both orientations, sorted
    # into canonical order; for a != b, e_a e_b = e_t forces e_b e_a = 0
    commutators = []
    for (a, b), t in P.basis_products().product.items():
        if a != b:
            commutators += (a, b, t, 1), (b, a, t, -1)
    # [e_a, e_b] = +-e_t, so the ratio is +-B(e_a, e_b)(t), read off the
    # stored ints and unscaled once per pair
    ratios: dict[tuple[Interval, Interval], int] = {}
    for a, b, t, sign in sorted(commutators):
        coeffs = table.get((a, b), {})
        if any(k != t for k in coeffs):
            i, j = ivs[a], ivs[b]
            raise NotProportional(f"B(e_{i}, e_{j}) has support outside [e_{i}, e_{j}]")
        ratios[ivs[a], ivs[b]] = sign * coeffs.get(t, 0)
    values, zero = R.unscale(ratios, bracket._scale), R.zero
    return {pair: Scalar(R, values[pair]) if pair in values else zero for pair in ratios}


def is_standard(bracket: Bracket, check: bool = True) -> IncidenceElement | None:
    """The central element lam with B = lam [. , .], or None.

    Standard means B(f, g) = lam [f, g] for a single central lam, which
    happens exactly when the extracted sigma is constant on the strict
    pairs of each connected component.  Components with no strict pairs
    put no constraint on lam; their coefficient is set to zero.
    """
    sigma = extract_sigma(bracket, check=check)
    P, R = bracket.poset, bracket.ring
    components = P.connected_components()
    component_of = {x: k for k, component in enumerate(components) for x in component}
    # sigma's one nonzero value on each component its support meets, and
    # how many strict pairs of the component carry it
    constants: list[Scalar | None] = [None] * len(components)
    support = [0] * len(components)
    for pair, value in sigma.values.items():
        k = component_of[pair.lo]
        if constants[k] is None:
            constants[k] = value
        elif value != constants[k]:
            return None
        support[k] += 1
    # a component that the support meets must lie in it wholly
    strict = [0] * len(components)
    for lo, hi in P.intervals():
        if lo != hi:
            strict[component_of[lo]] += 1
    if any(n and n != m for n, m in zip(support, strict)):
        return None
    coeffs: dict[Interval, Scalar] = {}
    for component, constant in zip(components, constants):
        if constant is not None:
            for x in component:
                coeffs[Interval(x, x)] = constant
    return IncidenceElement(P, R, coeffs)


class PiecewiseWitness:
    """A claimed decomposition into Lie ideals with one scalar each."""

    def __init__(
        self, ideals: list[list[IncidenceElement]], lambdas: list[Scalar]
    ):
        if len(ideals) != len(lambdas):
            raise ValueError("need exactly one scalar per ideal")
        self.ideals = [list(gens) for gens in ideals]
        self.lambdas = list(lambdas)


def _coords(el: IncidenceElement, index: dict[Interval, int]) -> dict[int, object]:
    return {index[iv]: c.value for iv, c in el.coeffs.items()}


def _span(ring: RingSpec, vectors: Iterable[dict[int, object]]) -> Echelon:
    span = Echelon(ring)
    for vec in vectors:
        span.absorb(vec)
    span.back_substitute()
    return span


def verify_piecewise_witness(
    bracket: Bracket, witness: PiecewiseWitness, check: bool = True
) -> CheckReport:
    """Check a claimed piecewise decomposition B|_{A_i} = lambda_i [. , .].

    Three clauses: (a) each span is a Lie ideal, (b) the spans form a
    direct sum filling the whole algebra, (c) the bracket restricted to
    each ideal is lambda_i times the commutator.  Indecomposability of the
    ideals is not examined.
    """
    if not bracket.ring.is_field:
        raise NotAField("piecewise verification needs rank computations")
    if check:
        _require_biderivation(bracket)
    report = CheckReport("piecewise")
    P, R = bracket.poset, bracket.ring
    index = P.basis_products().rank
    bases = [_span(R, (_coords(g, index) for g in gens)) for gens in witness.ideals]
    elements = [(iv, IncidenceElement.basis(P, R, *iv)) for iv in P.intervals()]

    # clauses (a) and (c) share each commutator [g, e]; the scaling
    # failures are reported after clause (b)
    scaling: list[list[list[str]]] = []
    for pos, (gens, basis, lam) in enumerate(zip(witness.ideals, bases, witness.lambdas)):
        ok, bad = True, []
        for g in gens:
            for iv, e in elements:
                commutator = g.commutator(e)
                if basis.residue(_coords(commutator, index)):
                    ok = False
                    report.fail("piecewise.lie_ideal", {"ideal": pos, "basis": list(iv)})
                if bracket.evaluate(g, e) != commutator.scale(lam):
                    bad.append(list(iv))
        if ok:
            report.count_pass("piecewise.lie_ideal")
        scaling.append(bad)

    ranks = [b.rank for b in bases]
    joint = _span(R, (_coords(g, index) for gens in witness.ideals for g in gens))
    if joint.rank == sum(ranks) == len(index):
        report.count_pass("piecewise.direct_sum")
    else:
        report.fail(
            "piecewise.direct_sum",
            {
                "ranks": ranks,
                "joint_rank": joint.rank,
                "dimension": len(index),
            },
        )

    for pos, bad in enumerate(scaling):
        for iv in bad:
            report.fail("piecewise.scaling", {"ideal": pos, "basis": iv})
        if not bad:
            report.count_pass("piecewise.scaling")
    return report


# -- idempotent identity suite ------------------------------------------------


def lemma_suite(
    bracket: Bracket,
    samples: int = 20,
    seed: int = 0,
    strict: bool = False,
) -> CheckReport:
    """Idempotent identities for antisymmetric biderivations.

    Each identity is instantiated over all admissible tuples of the
    diagonal idempotents e_x and a deterministic batch of random elements.
    The suite reports violations instead of refusing corrupt input, so it
    can demonstrate why a table fails; pass strict=True to insist the
    bracket verify as an antisymmetric biderivation up front.

    Every instance is bilinear in the sandwiches x(e, f) e_ef and
    y(g, h) e_gh, so a side can be nonzero only where such a coefficient
    meets a stored entry of the table, or a term of B(e_e, x) or B(e_g, y).
    Both sides are built from those sources alone, as maps from tuples to
    values, and compared once in label order; every other admissible tuple
    is counted as a pass.
    """
    if strict:
        _require_biderivation(bracket)
    report = CheckReport("lemma_suite")
    P, R = bracket.poset, bracket.ring
    labels, ivs, rank = P.elements, P.intervals(), P.interval_index
    pos = {x: k for k, x in enumerate(labels)}
    n = len(labels)
    rng = random.Random(seed)
    xs = [random_element(P, R, rng) for _ in range(samples)]
    ys = [random_element(P, R, rng) for _ in range(samples)]
    table, reduce = bracket._table, R.reduce
    # the label positions of each interval's ends, the rank of each e_xx
    lo, hi = [pos[x] for x, _ in ivs], [pos[y] for _, y in ivs]
    idem = [rank((x, x)) for x in labels]
    row = _lines(table, 0)  # the stored B(e_i, e_j) as row[i] = [(j, coeffs), ...]
    diagonal = [i for i in row if lo[i] == hi[i]]

    # orthogonal idempotents bracket to zero
    orthogonal = sorted(
        (lo[i], lo[j]) for i, j in table if lo[i] == hi[i] and lo[j] == hi[j] and i != j
    )
    for e, f in orthogonal:
        report.fail("orthogonal_vanishing", {"e": labels[e], "f": labels[f]})
    _count_rest(report, "orthogonal_vanishing", n * (n - 1) - len(orthogonal))

    # per random-element lemma: its tuple's label names, instances per sample
    checks = {
        "sandwich_transport": ("efg", n**3),
        "endpoint_exchange": ("ef", n**2),
        "forward_chaining": ("efg", n * (n - 1) * (n - 2)),
        "backward_chaining": ("efg", n * (n - 1) * (n - 2)),
        "corner_support": ("efgh", n * (n - 1) * ((n - 1) + (n - 2) ** 2)),
    }
    failed = dict.fromkeys(checks, 0)

    def times(coeffs: Mapping, a) -> dict:
        return {k: r for k, v in coeffs.items() if (r := reduce(v * a))}

    def add(acc: dict, coeffs: Mapping, a):
        for k, v in coeffs.items():
            acc[k] = acc.get(k, 0) + a * v

    for s in range(samples):
        # x and y as scaled ints by rank: the two sides of each lemma are
        # sums of the same products of stored values with x, y or both, so
        # they carry one scale and are compared as ints
        X, Y = ({rank(iv): v for iv, v in el._scaled()[0].items()} for el in (xs[s], ys[s]))
        # each lemma's two sides: label-position tuple -> nonzero value,
        # reached at each tuple by exactly one term of the sources below
        sides = {check: ({}, {}) for check in checks}
        (sw_l, sw_r), (ex_l, ex_r), (fw_l, fw_r), (bw_l, bw_r), (co_l, co_r) = sides.values()

        # B(e, fxg) = f B(e, x) g, and = 0 when e differs from f and g;
        # lhs x(f, g) B(e_e, e_fg), rhs B(e_e, x)(f, g) e_fg
        bex, bgy = {}, {}  # B(e_e, x) by e and B(e_g, y) by g
        for i in diagonal:
            e, bx, by = lo[i], {}, {}
            for j, coeffs in row[i]:
                if j in X and (v := times(coeffs, X[j])):
                    sw_l[e, lo[j], hi[j]] = v
                    add(bx, v, 1)
                if j in Y:
                    add(by, coeffs, Y[j])
            bex[e] = bx = times(bx, 1)
            bgy[e] = times(by, 1)
            for fg, b in bx.items():
                sw_r[e, lo[fg], hi[fg]] = {fg: b}

        # B(e, exf) = B(exf, f); the lhs is the sandwich lhs at (e, e, f)
        ex_l.update(((e, g), v) for (e, f, g), v in sw_l.items() if e == f)
        for ef, a in X.items():
            if v := times(table.get((ef, idem[hi[ef]]), {}), a):
                ex_r[lo[ef], hi[ef]] = v

        # the stored B(e_ef, e_gh) with x(e, f) and y(g, h) nonzero, e < f:
        # the left sides of the chaining and corner instances
        x_from: dict[int, list[int]] = {}  # strict [e, f] of x by e
        for ef, a in X.items():
            e, f = lo[ef], hi[ef]
            if e == f:
                continue
            x_from.setdefault(e, []).append(ef)
            for gh, coeffs in row.get(ef, ()):
                if gh not in Y or not (v := times(coeffs, a * Y[gh])):
                    continue
                g, h = lo[gh], hi[gh]
                if g == f and h != f:
                    fw_l[e, f, h] = v
                if h == e and g != e:
                    bw_l[e, f, g] = v
                if g != f and h != e and h != g:
                    # e, g orthogonal to f, h: the value is its own corner
                    # sandwich eg B(exf, gyh) fh, and eg, fh are e_e, e_f or 0
                    co_l[e, f, g, h] = v
                    if ef == gh and ef in v:
                        co_r[e, f, g, h] = {ef: v[ef]}

        # distinct triples: B(exf, fyg) = e B(e, x) f y g, rhs B(e_e, x)(e, f) y(f, g) e_eg
        y_from: dict[int, list[int]] = {}  # strict [f, g] of y by f
        for fg in Y:
            if lo[fg] != hi[fg]:
                y_from.setdefault(lo[fg], []).append(fg)
        for e, b in bex.items():
            for ef, c in b.items():
                if lo[ef] == e and hi[ef] != e:
                    f = hi[ef]
                    for fg in y_from.get(f, ()):
                        if v := reduce(c * Y[fg]):
                            fw_r[e, f, hi[fg]] = {rank((labels[e], ivs[fg].hi)): v}

        # distinct triples: B(exf, gye) = -g B(g, y) exf, rhs -B(e_g, y)(g, e) x(e, f) e_gf
        for g, b in bgy.items():
            for ge, c in b.items():
                if lo[ge] == g and hi[ge] != g:
                    for ef in x_from.get(hi[ge], ()):
                        if v := reduce(-(c * X[ef])):
                            bw_r[lo[ef], hi[ef], g] = {rank((labels[g], ivs[ef].hi)): v}

        for check, (lhs, rhs) in sides.items():
            names = checks[check][0]
            for tup in sorted(lhs.keys() | rhs.keys()):
                if lhs.get(tup) != rhs.get(tup) or (
                    check == "sandwich_transport" and tup[0] not in tup[1:]
                ):
                    failed[check] += 1
                    report.fail(check, dict(zip(names, (labels[k] for k in tup)), sample=s))

    for check, (_, total) in checks.items():
        _count_rest(report, check, samples * total - failed[check])
    return report
