"""Brute-force oracle for antisymmetric biderivations over a field.

The unknowns are the coefficients B(e_i, e_j)(e_t) for ordered basis pairs
with i before j in canonical interval order; antisymmetry is built in by
rewriting B(e_j, e_i) as -B(e_i, e_j) and B(e_i, e_i) as 0.  Every basis
triple (a, b, c) contributes the coefficient-level rows of the first
Leibniz identity, B(ab, c) - B(a, c) e_b - e_a B(b, c) = 0.  The second
identity, B(a, bc) - B(a, b) e_c - e_b B(a, c) = 0, adds nothing: rewritten
by antisymmetry it is -(B(bc, a) - B(b, a) e_c - e_b B(c, a)), the first
identity at the triple (b, c, a), so it yields the same rows up to sign.

Most unknowns are zero, by rows of basis triples alone.  Write t = [p, q].

Rule 1.  If t.lo != i.lo and t.hi != i.hi, the row of the triple (e_xx,
e_i, e_j), x = t.lo, at the target t reads -B(e_i, e_j)(e_t) = 0: e_xx e_i
= 0, B(e_xx, e_j) e_i reaches only targets ending at i.hi, and e_xx
B(e_i, e_j) reaches t only from B(e_i, e_j)(e_t).  The triple (e_xx, e_j,
e_i) does the same for j.  So B(e_i, e_j)(e_t) is zero unless t.lo = i.lo
or t.hi = i.hi, and t.lo = j.lo or t.hi = j.hi.

Rule 2.  B(e_i, e_j)(e_t), i != j, is zero unless e_t = e_i e_j or e_t =
e_j e_i (for i != j at most one of the two is nonzero); these are the
*live* columns.  Every row is homogeneous for the Z^P grading deg e_xy =
eps_x - eps_y, and B(e_i, e_j)(e_t) has degree deg t - deg i - deg j.
Comparing endpoints shows that a column rule 1 keeps has degree 0 iff e_t
is e_i e_j or e_j e_i.  So take a column that rule 1 keeps, of nonzero
degree.  Transport rows move a strict argument that meets t at one end
only onto an idempotent:
- if i = [p, y], y != q, the row of (e_i, e_yy, e_j) at t reads
  B(e_i, e_j)(e_t) - B(e_yy, e_j)([y, q]) = 0: e_i e_yy = e_i,
  B(e_i, e_j) e_yy reaches only targets ending at y, and e_i B(e_yy, e_j)
  reaches t only from [y, q];
- if i = [x, q], x != p, the row of (e_xx, e_i, e_j) at t reads
  B(e_i, e_j)(e_t) - B(e_xx, e_j)([p, x]) = 0 the same way;
- j moves likewise, through B(e_i, e_j) = -B(e_j, e_i).
A transport keeps the degree, and it is a single-entry row, which fixes
the column at zero, when the moved target is not an interval.  Each one
turns a strict argument into an idempotent, so after at most two the
column is zero by rule 1 or each argument is an idempotent or the target
itself.  B(e_xx, e_t)(e_t) has degree 0, and B(e_t, e_t) is no column; what
is left is B(e_zz, e_ww)(e_t) with t = [z, w] or [w, z], the one entry of
the row of (e_zz, e_ww, e_ww) at [z, w] (e_zz e_ww = 0, B(e_ww, e_ww) = 0)
or of (e_ww, e_zz, e_zz) at [w, z].  The proof uses antisymmetry, the
grading and rows of basis triples; it uses no fact about chain components.
Only the rows that meet a live column are built, their other entries
dropped; with the unit rows of the non-live columns they span the system.

Every row goes to Echelon.absorb as it is built; a single-entry row is
the unit row x_c = 0 and is stored as such (on every poset tested the live
build streams none).  The reduced row echelon form, which is unique, is
the unit rows of the non-live columns plus the reduced stored rows, so
rank, free columns and basis vectors do not depend on the order.  The
nullspace is exactly the module of antisymmetric biderivations;
classify() cross-checks it against the chain classification.
"""

from __future__ import annotations

from bisect import bisect_right

from .bracket import Bracket, SigmaMap, extract_sigma, from_sigma
from .coeff import Echelon, RingSpec
from .errors import (
    BijectionViolation,
    NotABiderivation,
    NotAField,
    NotChainConstant,
    RingMismatch,
)
from .poset import Interval, Poset


class LinearSystem(Echelon):
    """The constraint system: the `live` columns (every column until
    build_system narrows them to rule 2's) and the independent rows on
    them in echelon form.  The rank counts the unit rows of the non-live
    columns and the stored rows.  Column r * n + t is B(e_i, e_j)(e_t),
    r the rank of i < j.

    Every row is homogeneous for the Z^P grading deg e_xy = eps_x - eps_y
    (column B(e_i, e_j)(k) has degree deg k - deg i - deg j), so a row only
    meets pivot rows of its own degree block: elimination is block-local
    without any block bookkeeping.
    """

    def __init__(self, poset: Poset, ring: RingSpec):
        if not ring.is_field:
            raise NotAField(f"{ring} is not a field")
        super().__init__(ring)
        self.poset = poset
        self.intervals = intervals = poset.intervals()
        self.interval_rank = poset.basis_products().rank
        n = len(intervals)
        # the pair (i, j), i < j, has rank pair_start[i] + j - i - 1
        self.pair_start = [i * (2 * n - i - 1) // 2 for i in range(n)]
        self.num_unknowns = n * (n - 1) // 2 * n
        self.live: range | set[int] = range(self.num_unknowns)
        self.rows_streamed = 0

    @property
    def rank(self) -> int:
        return self.num_unknowns - len(self.live) + len(self.rows)

    def column(self, i: int, j: int, k: int) -> tuple[int, int]:
        """Column index and sign of B(e_i, e_j)(e_k), on interval ranks, i != j."""
        n = len(self.intervals)
        if i < j:
            return (self.pair_start[i] + j - i - 1) * n + k, 1
        return (self.pair_start[j] + i - j - 1) * n + k, -1

    def satisfied_by(self, vector: dict[int, object]) -> bool:
        """True iff the vector is zero off the live columns and solves
        every stored row."""
        red, live = self.ring.reduce, self.live
        if any(red(v) for col, v in vector.items() if col not in live):
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
    """Stream the rows of the first Leibniz identity that meet a live column.

    Intervals are handled by their rank.  The live columns are the
    B(e_u, e_v)(e_t) with e_t = e_u e_v or e_v e_u (rule 2), visited by
    target t, then (u, v).  Such a column is the term B(ab, c) of the
    triple (a, b, v) at t for each ab = u, B(a, c) e_b of (u, b, v) at t'
    for each e_t e_b = e_t', and e_a B(b, c) of (a, u, v) at t' for each
    e_a e_t = e_t'.  A row is built from its first live term, so once,
    without its non-live terms, and goes to LinearSystem.absorb.
    rows_streamed counts the nonzero rows built plus one unit row per
    non-live column.
    """
    system = LinearSystem(poset, field)
    intervals, column = system.intervals, system.column
    product, right, left, _ = poset.basis_products()
    factors: list[list[tuple[int, int]]] = [[] for _ in intervals]
    # commutator[u, v] = t iff e_t is e_u e_v or e_v e_u, u != v (at most
    # one is nonzero); pairs[t] lists those (u, v): B(e_u, e_v)(e_t) is live
    commutator: dict[tuple[int, int], int] = {}
    pairs: list[list[tuple[int, int]]] = [[] for _ in intervals]
    for (a, b), t in product.items():
        factors[t].append((a, b))
        if a != b:
            commutator[a, b] = commutator[b, a] = t
            pairs[t] += (a, b), (b, a)
    # below[b][t] = k with e_k e_b = e_t; above[a][t] = k with e_a e_k = e_t
    below, above = [dict(moves) for moves in right], [dict(moves) for moves in left]

    def term(i, j, k):
        """(column, sign) of B(e_i, e_j)(e_k); None if zero or not live."""
        if k is None or commutator.get((i, j)) != k:
            return None
        return column(i, j, k)

    system.live = {column(u, v, t)[0] for (u, v), t in commutator.items()}
    axpy, absorb, streamed = field.axpy, system.absorb, 0
    for t, ts in enumerate(pairs):
        for u, v in sorted(ts):
            own = column(u, v, t)
            rows = [  # B(ab, c) of (a, b, v) at t
                (own, term(a, v, below[b].get(t)), term(b, v, above[a].get(t)))
                for a, b in factors[u]
            ]
            for t2, b in left[t]:  # B(a, c) e_b of (u, b, v) at t2
                if not term(product.get((u, b)), v, t2):
                    rows.append((None, own, term(b, v, above[u].get(t2))))
            # e_a B(b, c) of (a, u, v) at e_a e_t is never a row's first
            # live term: B(au, v) is live there if e_t = e_u e_v or a = v,
            # and B(a, v), at e_a e_v, if e_t = e_v e_u and a != v
            for first, second, third in rows:
                # B(ab, c) - B(a, c) e_b - e_a B(b, c) = 0 on its live terms
                raw = {first[0]: first[1]} if first else {}
                for col, sign in filter(None, (second, third)):
                    raw[col] = raw.get(col, 0) - sign
                row: dict[int, object] = {}
                axpy(row, raw, 1)  # canonical values; terms on one column may cancel
                if row:
                    streamed += 1
                    absorb(row)
    system.rows_streamed = streamed + system.num_unknowns - len(system.live)
    return system


def _vector_to_bracket(system: LinearSystem, vector: dict[int, object]) -> Bracket:
    """The bracket of a solution vector of canonical nonzero raw values."""
    intervals, start = system.intervals, system.pair_start
    table: dict[tuple[Interval, Interval], dict] = {}
    for col, value in vector.items():
        r, k = divmod(col, len(intervals))  # LinearSystem.column inverted
        i = bisect_right(start, r) - 1
        pair = intervals[i], intervals[r - start[i] + i + 1]
        table.setdefault(pair, {})[intervals[k]] = value
    return Bracket(system.poset, system.ring, table, antisymmetric_mode=True)


def _bracket_to_vector(system: LinearSystem, bracket: Bracket) -> dict[int, object]:
    if bracket.ring != system.ring:
        raise RingMismatch("bracket ring differs from the system's field")
    rank, vector = system.interval_rank, {}
    for (i, j) in bracket.stored_pairs():
        for k, c in bracket.value(i, j).coeffs.items():
            vector[system.column(rank[i], rank[j], rank[k])[0]] = c.value
    return vector


def nullspace(system: LinearSystem) -> SolutionBasis:
    """Basis of the solution space, free columns in ascending order.

    Back-substitutes the echelon rows in place first; reduced row echelon
    form is unique, so the basis depends only on the system, not on the
    order its rows were absorbed in.  Non-live columns are pivots of
    unit rows: never free, and zero in every basis vector.
    """
    system.back_substitute()
    pivots, red = system.rows, system.ring.reduce
    free = sorted(c for c in system.live if c not in pivots)
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
        try:
            reproduced = from_sigma(sigma)
        except NotChainConstant:
            raise BijectionViolation("solver vector's sigma is not chain-constant") from None
        if reproduced != vector:
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
