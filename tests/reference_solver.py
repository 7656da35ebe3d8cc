"""The original Leibniz solver, kept as a reference for poisset.solver.

It streams both Leibniz identities and keeps the stored rows fully
reduced after every absorbed row, so each new pivot rewrites every stored
row.  That is slow (quadratic in the rank) but follows the definition
directly; the tests check that the echelon-form solver returns the same
free columns and the same basis vectors.
"""

from fractions import Fraction

from poisset import Interval, Poset, RingSpec
from poisset.solver import LinearSystem, SolutionBasis, _vector_to_bracket


class ReferenceSystem(LinearSystem):
    """LinearSystem whose rows are reduced and zero at every other pivot."""

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


def reference_build_system(poset: Poset, field: RingSpec) -> ReferenceSystem:
    """Stream both Leibniz identities on all basis triples into the system."""
    system = ReferenceSystem(poset, field)
    intervals = system.intervals
    ring = field
    one = Fraction(1) if ring.kind == "Q" else 1
    modulus = ring.modulus if ring.kind == "Zmod" else None

    prod: dict[tuple[Interval, Interval], Interval] = {}
    for i in intervals:
        for j in intervals:
            if i.hi == j.lo:
                prod[(i, j)] = Interval(i.lo, j.hi)
    down = {
        x: [y for y in poset.elements if poset.leq(y, x)] for x in poset.elements
    }
    up = {
        x: [y for y in poset.elements if poset.leq(x, y)] for x in poset.elements
    }

    def emit(acc: dict):
        for row in acc.values():
            if row:
                system._absorb(row)

    def bump(acc, target: Interval, i: Interval, j: Interval, k: Interval, sign):
        if i == j:
            return
        col, s = system.column(i, j, k)
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

    minus = -one if modulus is None else modulus - 1
    for a in intervals:
        for b in intervals:
            ab = prod.get((a, b))
            for c in intervals:
                # B(ab, c) - B(a, c) e_b - e_a B(b, c) = 0
                acc: dict = {}
                if ab is not None:
                    for k in intervals:
                        bump(acc, k, ab, c, k, one)
                for x in down[b.lo]:
                    bump(acc, Interval(x, b.hi), a, c, Interval(x, b.lo), minus)
                for y in up[a.hi]:
                    bump(acc, Interval(a.lo, y), b, c, Interval(a.hi, y), minus)
                emit(acc)

                # B(a, bc) - B(a, b) e_c - e_b B(a, c) = 0
                acc = {}
                bc = prod.get((b, c))
                if bc is not None:
                    for k in intervals:
                        bump(acc, k, a, bc, k, one)
                for x in down[c.lo]:
                    bump(acc, Interval(x, c.hi), a, b, Interval(x, c.lo), minus)
                for y in up[b.hi]:
                    bump(acc, Interval(b.lo, y), a, c, Interval(b.hi, y), minus)
                emit(acc)
    return system


def reference_nullspace(system: ReferenceSystem) -> SolutionBasis:
    """Basis of the solution space, free columns in ascending order."""
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
