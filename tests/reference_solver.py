"""Reference Leibniz solvers for poisset.solver.

Both solve by Gaussian elimination on an EchelonSystem, never by the
signed union-find of poisset.solver; they share only its column layout.
reference_build_system is the original solver: it streams both Leibniz
identities and keeps the stored rows fully reduced after every absorbed
row, so each new pivot rewrites every stored row.  That is slow
(quadratic in the rank) but follows the definition directly.
full_stream_build_system is the solver before the live-column rule: it
streams the first identity on every basis triple into Echelon.absorb and
keeps every column live.  The tests check that build_system returns the
same zero columns, rank, free columns and basis vectors as both, and, through
idempotent_rows, that each column it drops is zero by the rows the
solver's module docstring names: a single-entry row of rule 1, or a chain
of transport rows ending at a single-entry row.  satisfied_by checks a
vector against the signed classes of a LinearSystem by a scan of every
live column.
"""

from fractions import Fraction

from poisset import Bracket, Interval, Poset, RingSpec
from poisset.coeff import Echelon
from poisset.solver import LinearSystem, SolutionBasis, _vector_to_bracket


class EchelonSystem(Echelon):
    """The unknowns of LinearSystem, every column live, with the rows kept
    in echelon form by Echelon.absorb; rank is the number of stored rows."""

    def __init__(self, poset: Poset, ring: RingSpec):
        super().__init__(ring)
        layout = LinearSystem(poset, ring)  # NotAField over a non-field
        self.poset = poset
        self.intervals = layout.intervals
        self.interval_rank = poset.basis_products().rank
        self.pair_start = layout.pair_start
        self.num_unknowns = layout.num_unknowns
        self.column = layout.column
        self.rows_streamed = 0

    def satisfied_by(self, vector: dict[int, object]) -> bool:
        """True iff the vector solves every stored row."""
        red = self.ring.reduce
        return not any(
            red(sum(coeff * vector.get(col, 0) for col, coeff in row.items()))
            for row in self.rows.values()
        )


class ReferenceSystem(EchelonSystem):
    """EchelonSystem whose rows are reduced and zero at every other pivot."""

    def _reduce(self, value):
        """Its own ring reduction: the reference shares no arithmetic with
        the solver it checks."""
        if self.ring.kind == "Zmod":
            return value % self.ring.modulus
        return value

    def _inv(self, value):
        if self.ring.kind == "Q":
            return 1 / value
        return pow(value, -1, self.ring.modulus)

    def _absorb(self, row: dict[int, object]):
        self.rows_streamed += 1
        rows = self.rows
        red = self._reduce
        for col in sorted(row):
            pivot_row = rows.get(col)
            if pivot_row is None or col not in row:
                continue
            factor = row[col]
            for k, v in pivot_row.items():
                value = red(row.get(k, 0) - factor * v)
                if value:
                    row[k] = value
                else:
                    row.pop(k, None)
        if not row:
            return
        pivot = min(row)
        inv = self._inv(row[pivot])
        normalized = {k: red(inv * v) for k, v in row.items()}
        for other in rows.values():
            if pivot in other:
                factor = other[pivot]
                for k, v in normalized.items():
                    value = red(other.get(k, 0) - factor * v)
                    if value:
                        other[k] = value
                    else:
                        other.pop(k, None)
        rows[pivot] = normalized


class _Identities:
    """Rows of both Leibniz identities on Intervals, with the reference's
    own products and ring reduction; each row maps column -> raw value."""

    def __init__(self, system: ReferenceSystem):
        poset, ring = system.poset, system.ring
        self.system = system
        self.intervals = intervals = system.intervals
        self.one = Fraction(1) if ring.kind == "Q" else 1
        self.modulus = ring.modulus if ring.kind == "Zmod" else None
        self.minus = -self.one if self.modulus is None else self.modulus - 1
        self.prod: dict[tuple[Interval, Interval], Interval] = {}
        for i in intervals:
            for j in intervals:
                if i.hi == j.lo:
                    self.prod[(i, j)] = Interval(i.lo, j.hi)
        self.down = {
            x: [y for y in poset.elements if poset.leq(y, x)]
            for x in poset.elements
        }
        self.up = {
            x: [y for y in poset.elements if poset.leq(x, y)]
            for x in poset.elements
        }

    def bump(self, acc, target: Interval, i: Interval, j: Interval, k: Interval, sign):
        if i == j:
            return
        modulus = self.modulus
        rank = self.system.interval_rank
        col, s = self.system.column(rank[i], rank[j], rank[k])
        value = sign if s > 0 else -sign
        if modulus is not None:
            value = value % modulus
        row = acc.setdefault(target, {})
        total = row.get(col, 0) + value
        if modulus is not None:
            total = total % modulus
        if total:
            row[col] = total
        else:
            row.pop(col, None)

    def first(self, a: Interval, b: Interval, c: Interval) -> dict:
        """B(ab, c) - B(a, c) e_b - e_a B(b, c) = 0, target -> row."""
        acc: dict = {}
        ab = self.prod.get((a, b))
        if ab is not None:
            for k in self.intervals:
                self.bump(acc, k, ab, c, k, self.one)
        for x in self.down[b.lo]:
            self.bump(acc, Interval(x, b.hi), a, c, Interval(x, b.lo), self.minus)
        for y in self.up[a.hi]:
            self.bump(acc, Interval(a.lo, y), b, c, Interval(a.hi, y), self.minus)
        return acc

    def second(self, a: Interval, b: Interval, c: Interval) -> dict:
        """B(a, bc) - B(a, b) e_c - e_b B(a, c) = 0, target -> row."""
        acc: dict = {}
        bc = self.prod.get((b, c))
        if bc is not None:
            for k in self.intervals:
                self.bump(acc, k, a, bc, k, self.one)
        for x in self.down[c.lo]:
            self.bump(acc, Interval(x, c.hi), a, b, Interval(x, c.lo), self.minus)
        for y in self.up[b.hi]:
            self.bump(acc, Interval(b.lo, y), a, c, Interval(b.hi, y), self.minus)
        return acc


def reference_build_system(poset: Poset, field: RingSpec) -> ReferenceSystem:
    """Stream both Leibniz identities on all basis triples into the system."""
    system = ReferenceSystem(poset, field)
    identities = _Identities(system)
    intervals = system.intervals
    for a in intervals:
        for b in intervals:
            for c in intervals:
                for identity in (identities.first, identities.second):
                    for row in identity(a, b, c).values():
                        if row:
                            system._absorb(row)
    return system


def idempotent_rows(poset: Poset, field: RingSpec) -> dict:
    """The nonzero rows of B(ab, c) - B(a, c) e_b - e_a B(b, c) = 0 at the
    triples (a, b, c) with an idempotent a or b, keyed by (a, b, c, target)."""
    identities = _Identities(ReferenceSystem(poset, field))
    intervals = identities.intervals
    rows = {}
    for a in intervals:
        for b in intervals:
            if a.lo != a.hi and b.lo != b.hi:
                continue
            for c in intervals:
                for t, row in identities.first(a, b, c).items():
                    if row:
                        rows[a, b, c, t] = row
    return rows


def full_stream_build_system(poset: Poset, field: RingSpec) -> EchelonSystem:
    """The solver streaming the first identity on every triple.

    Every column stays live.  For each triple (a, b, c) the terms of
    B(ab, c) - B(a, c) e_b - e_a B(b, c) are collected per target interval.
    A target that only one term reaches is the row +-x = 0, absorbed as the
    unit row {x: 1}; the other rows have their entries summed and zeros
    dropped, and are absorbed as they are.  rows_streamed counts every
    nonzero row.
    """
    system = EchelonSystem(poset, field)
    intervals = system.intervals
    n = len(intervals)
    axpy, absorb = field.axpy, system.absorb

    # unknown[i][j] = (offset, sign): B(e_i, e_j)(e_k) = sign * x[offset + k];
    # None on the diagonal, where antisymmetry makes B vanish
    unknown = [
        [None if i == j else system.column(i, j, 0) for j in range(n)]
        for i in range(n)
    ]
    basis = poset.basis_products()
    product, right, left = basis.product, basis.right, basis.left

    streamed = 0
    for a in range(n):
        for b in range(n):
            ab = product.get((a, b))
            # target -> [k in B(a, c) e_b, k in e_a B(b, c)], None if unreached;
            # B(ab, c) reaches every target t from t itself, so the targets
            # that no move reaches give the rows +-x = 0
            moves = {t: [k, None] for t, k in right[b]}
            for t, k in left[a]:
                moves.setdefault(t, [None, None])[1] = k
            alone = [] if ab is None else [t for t in range(n) if t not in moves]
            for c in range(n):
                first = unknown[ab][c] if ab is not None else None
                if first is not None:
                    offset = first[0]
                    for t in alone:
                        absorb({offset + t: 1})
                    streamed += len(alone)
                second, third = unknown[a][c], unknown[b][c]
                for t, (k2, k3) in moves.items():
                    entries = []
                    if first is not None:
                        entries.append((first[0] + t, first[1]))
                    if second is not None and k2 is not None:
                        entries.append((second[0] + k2, -second[1]))
                    if third is not None and k3 is not None:
                        entries.append((third[0] + k3, -third[1]))
                    if len(entries) == 1:  # +-x = 0
                        absorb({entries[0][0]: 1})
                        streamed += 1
                    elif entries:
                        # columns meet where two of the pairs coincide
                        raw: dict[int, int] = {}
                        for col, v in entries:
                            raw[col] = raw.get(col, 0) + v
                        row: dict[int, object] = {}
                        axpy(row, raw, 1)  # canonical values, zeros dropped
                        if row:
                            streamed += 1
                            absorb(row)
    system.rows_streamed = streamed
    return system


def reference_nullspace(system: EchelonSystem) -> SolutionBasis:
    """Basis of the solution space, free columns in ascending order; brings
    the rows to reduced row echelon form first."""
    system.back_substitute()
    one = Fraction(1) if system.ring.kind == "Q" else 1
    pivots = system.rows
    free = [c for c in range(system.num_unknowns) if c not in pivots]
    vectors = []
    for j in free:
        vec = {j: one}
        for p, row in pivots.items():
            v = row.get(j)
            if v is not None:
                vec[p] = -v if system.ring.kind == "Q" else (-v) % system.ring.modulus
        vectors.append(_vector_to_bracket(system, vec))
    return SolutionBasis(vectors, free)


def bracket_to_vector(system, bracket: Bracket) -> dict[int, object]:
    """The solution vector of an antisymmetric bracket, read pair by pair
    through Bracket.stored_pairs and the element wrappers."""
    rank, vector = system.poset.basis_products().rank, {}
    for i, j in bracket.stored_pairs():
        for k, c in bracket.value(i, j).coeffs.items():
            vector[system.column(rank[i], rank[j], rank[k])[0]] = c.value
    return vector


def satisfied_by(system: LinearSystem, vector: dict[int, object]) -> bool:
    """True iff the vector solves the system, by a scan of every live
    column: it is zero off the live columns and on the dead classes, and
    x_c = s x_root on every column c of a live class."""
    red, live, dead, find = system.ring.reduce, system.live, system.dead, system.find
    if any(red(v) for col, v in vector.items() if col not in live):
        return False
    for c in live:
        root, s = find(c)
        v = vector.get(c, 0)
        if red(v) if root in dead else red(v - s * vector.get(root, 0)):
            return False
    return True
