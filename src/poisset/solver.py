"""Brute-force oracle for antisymmetric biderivations over a field.

The unknowns are the coefficients B(e_i, e_j)(k) for ordered basis pairs
with i before j in canonical interval order; antisymmetry is built in by
rewriting B(e_j, e_i) as -B(e_i, e_j) and B(e_i, e_i) as 0.  Every basis
triple (a, b, c) contributes the coefficient-level rows of the first
Leibniz identity, B(ab, c) - B(a, c) e_b - e_a B(b, c) = 0.  The second
identity, B(a, bc) - B(a, b) e_c - e_b B(a, c) = 0, adds nothing: rewritten
by antisymmetry it is -(B(bc, a) - B(b, a) e_c - e_b B(c, a)), the first
identity at the triple (b, c, a), so it yields the same rows up to sign.

Rows are presolved as they are generated.  Most have a single entry,
+-x_c = 0, and only add c to a set of columns fixed at zero; no row is
stored for them.  Every other row drops its fixed columns; if one entry
is left, that column is fixed too, otherwise the row is eliminated at
once against the stored echelon rows.  At the end the fixed columns are
substituted into the stored rows, which are re-reduced until no new
single-entry row appears.  This is Gaussian elimination in another order:
x_c = 0 is itself a row of the system, so the unit rows of the fixed
columns together with the stored rows span exactly the streamed rows, and
no fact about chain components is used.  The reduced row echelon form of
the system, which is unique, is those unit rows plus the reduced stored
rows; rank, free columns and basis vectors do not depend on the order.
The nullspace of the system is exactly the module of antisymmetric
biderivations, computed with no reference to the chain classification;
classify() then cross-checks the two against each other.
"""

from __future__ import annotations

from .bracket import (
    Bracket,
    SigmaMap,
    extract_sigma,
    from_sigma,
)
from .coeff import Echelon, RingSpec
from .errors import BijectionViolation, NotABiderivation, NotAField, RingMismatch
from .poset import Interval, Poset


class LinearSystem(Echelon):
    """The constraint system: the set `fixed` of columns known to be zero,
    and the other independent rows in echelon form, which meet no fixed
    column once settle() has run.  The unit rows of the fixed columns and
    the stored rows together span the full streamed system, so the rank is
    len(fixed) + len(rows).  Fixed columns are kept as a set, never as rows.

    Every row is homogeneous for the Z^P grading deg e_xy = eps_x - eps_y
    (convolution respects it, and column B(e_i, e_j)(k) has degree
    deg k - deg i - deg j), and so is every stored row; a row therefore
    only ever meets pivot rows of its own degree block, and elimination is
    block-local without any block bookkeeping.
    """

    def __init__(self, poset: Poset, ring: RingSpec):
        if not ring.is_field:
            raise NotAField(f"{ring} is not a field")
        super().__init__(ring)
        self.poset = poset
        intervals = poset.intervals()
        self.intervals = intervals
        self.interval_rank = poset.basis_products().rank
        self.pairs = [
            (intervals[a], intervals[b])
            for a in range(len(intervals))
            for b in range(a + 1, len(intervals))
        ]
        self.pair_rank = {pair: r for r, pair in enumerate(self.pairs)}
        self.num_unknowns = len(self.pairs) * len(intervals)
        self.rows_streamed = 0
        self.fixed: set[int] = set()

    @property
    def rank(self) -> int:
        return len(self.fixed) + len(self.rows)

    def column(self, i: Interval, j: Interval, k: Interval) -> tuple[int, int]:
        """Column index and sign for the coefficient B(e_i, e_j)(k)."""
        r = self.pair_rank.get((i, j))
        if r is not None:
            return r * len(self.intervals) + self.interval_rank[k], 1
        r = self.pair_rank[(j, i)]
        return r * len(self.intervals) + self.interval_rank[k], -1

    def take(self, row: dict) -> None:
        """Add a canonical row (consumed): drop its fixed columns; if one
        entry is left its column is fixed, if more the row is absorbed."""
        fixed = self.fixed
        for col in fixed.intersection(row):
            del row[col]
        if len(row) == 1:
            fixed.update(row)
        elif row:
            self.absorb(row)

    def settle(self) -> None:
        """Substitute the fixed columns into the stored rows and re-reduce
        them until no new single-entry row appears.  Afterwards no stored
        row meets a fixed column, so the rank is |fixed| + len(rows)."""
        while True:
            before = len(self.fixed)
            rows, self.rows = self.rows, {}
            for row in rows.values():
                self.take(row)
            if len(self.fixed) == before and all(
                len(row) > 1 for row in self.rows.values()
            ):
                return

    def satisfied_by(self, vector: dict[int, object]) -> bool:
        """True iff the vector is zero on every fixed column and solves
        every stored row."""
        red, fixed = self.ring.reduce, self.fixed
        if any(red(v) for col, v in vector.items() if col in fixed):
            return False
        for row in self.rows.values():
            total = 0
            for col, coeff in row.items():
                v = vector.get(col)
                if v is not None:
                    total += coeff * v
            if red(total):
                return False
        return True


class SolutionBasis:
    """Deterministic basis of the solution space, one Bracket per vector."""

    def __init__(self, vectors: list[Bracket], free_columns: list[int]):
        self.vectors = vectors
        self.free_columns = free_columns

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def build_system(poset: Poset, field: RingSpec) -> LinearSystem:
    """Stream the first Leibniz identity on all basis triples into the system.

    Intervals are handled by their rank in canonical order.  For each
    triple (a, b, c) the terms of B(ab, c) - B(a, c) e_b - e_a B(b, c) are
    collected per target interval.  A target that only one term reaches is
    the row +-x = 0 and fixes its column at once, with no row built; the
    other rows have their entries summed and zeros dropped, and go to
    LinearSystem.take.
    """
    system = LinearSystem(poset, field)
    intervals = system.intervals
    n = len(intervals)
    axpy, take, fixed = field.axpy, system.take, system.fixed
    fix, fix_all = fixed.add, fixed.update

    # unknown[i][j] = (offset, sign): B(e_i, e_j)(e_k) = sign * x[offset + k];
    # None on the diagonal, where antisymmetry makes B vanish
    unknown = [
        [None if i == j else system.column(i, j, intervals[0]) for j in intervals]
        for i in intervals
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
                # B(ab, c) - B(a, c) e_b - e_a B(b, c) = 0
                first = unknown[ab][c] if ab is not None else None
                if first is not None:
                    offset = first[0]
                    fix_all([offset + t for t in alone])
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
                        fix(entries[0][0])
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
                            take(row)
    system.rows_streamed = streamed
    system.settle()
    return system


def _vector_to_bracket(system: LinearSystem, vector: dict[int, object]) -> Bracket:
    """The bracket of a solution vector of canonical nonzero raw values."""
    n = len(system.intervals)
    table: dict[tuple[Interval, Interval], dict] = {}
    for col, value in vector.items():
        r, k = divmod(col, n)
        table.setdefault(system.pairs[r], {})[system.intervals[k]] = value
    return Bracket(system.poset, system.ring, table, antisymmetric_mode=True)


def _bracket_to_vector(system: LinearSystem, bracket: Bracket) -> dict[int, object]:
    if bracket.ring != system.ring:
        raise RingMismatch("bracket ring differs from the system's field")
    n = len(system.intervals)
    vector: dict[int, object] = {}
    for (i, j) in bracket.stored_pairs():
        r = system.pair_rank[(i, j)]
        for k, c in bracket.value(i, j).coeffs.items():
            vector[r * n + system.interval_rank[k]] = c.value
    return vector


def nullspace(system: LinearSystem) -> SolutionBasis:
    """Basis of the solution space, free columns in ascending order.

    Back-substitutes the echelon rows in place first; reduced row echelon
    form is unique, so the basis depends only on the system, not on the
    order its rows were absorbed in.  Fixed columns are pivots of unit
    rows: never free, and zero in every basis vector.
    """
    system.back_substitute()
    pivots = system.rows
    red = system.ring.reduce
    fixed = system.fixed
    free = [
        c for c in range(system.num_unknowns) if c not in pivots and c not in fixed
    ]
    vecs: dict[int, dict[int, object]] = {j: {j: 1} for j in free}
    for p, row in pivots.items():
        for col, v in row.items():
            if col != p:
                vecs[col][p] = red(-v)
    vectors = [_vector_to_bracket(system, vecs[j]) for j in free]
    return SolutionBasis(vectors, free)


class ClassificationReport:
    """Outcome of the solver-vs-theorem cross-check for one poset."""

    def __init__(
        self,
        poset: Poset,
        ring: RingSpec,
        basis: SolutionBasis,
        chain_component_count: int,
        sigmas: list[SigmaMap],
        match: bool,
    ):
        self.poset = poset
        self.ring = ring
        self.basis = basis
        self.chain_component_count = chain_component_count
        self.sigmas = sigmas
        self.match = match

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "chain_components": self.chain_component_count,
            "match": self.match,
            "basis": [sigma.to_json() for sigma in self.sigmas],
        }


def classify(poset: Poset, field: RingSpec) -> ClassificationReport:
    """Solve for all antisymmetric biderivations and confirm the bijection.

    Raises BijectionViolation if the solver space and the chain-constant
    parametrization disagree in any way; that would mean a bug, not math.
    """
    system = build_system(poset, field)
    basis = nullspace(system)
    components = poset.chain_components()
    match = basis.dimension == len(components)

    sigmas = []
    for vector in basis.vectors:
        try:
            sigma = extract_sigma(vector)
        except NotABiderivation:
            raise BijectionViolation("solver vector fails a bracket check") from None
        if not sigma.is_chain_constant():
            raise BijectionViolation("solver vector's sigma is not chain-constant")
        if from_sigma(sigma) != vector:
            raise BijectionViolation("sigma does not reproduce its solver vector")
        sigmas.append(sigma)

    for cls in components:
        indicator = SigmaMap(
            poset, field, {pair: field.one for pair in cls}
        )
        candidate = from_sigma(indicator)
        if not system.satisfied_by(_bracket_to_vector(system, candidate)):
            raise BijectionViolation(
                "indicator bracket falls outside the solver space"
            )

    if not match:
        raise BijectionViolation(
            f"dimension {basis.dimension} != {len(components)} chain components"
        )
    return ClassificationReport(
        poset, field, basis, len(components), sigmas, match
    )
