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

Rule 3.  Fix c and write D = B(., e_c): the coefficients of R(a, b) =
D(e_a e_b) - D(e_a) e_b - e_a D(e_b) are the rows of the triple (a, b, c).
The build keeps those of R(a, b) with e_a e_b = 0 or with a a cover and b
strict.  With the unit rows of the non-live columns they span the rows of
the family H of poisset.bracket (Leibniz family), and so every row, by
integer combinations: the pairs of H left are the (e_xx, e_xx), and the
coefficient of R(e_xx, e_xx) at t is zero if t meets x at one end only
and else +-B(e_xx, e_c)(e_t), a non-live column.  So no dropped row
changes a solution over any ring, and nullspace gives the same basis.
The proof uses no chain components.  classify stays self-certifying:
every basis vector still passes extract_sigma's Leibniz gate, so a row
dropped in error would raise BijectionViolation, not give a wrong answer.

Row shape.  Each row the live build streams reads x_p = +-x_q, with p != q
live, or x_p = 0.  The row of the triple (a, b, c) at a target t has three
terms: B(ab, c)(e_t), B(a, c)(e_k) with e_k e_b = e_t, and B(b, c)(e_k')
with e_a e_k' = e_t.  k and k' are unique where they exist, so each term
is one column with coefficient +1, -1, -1, times the sign antisymmetry
gives the column, or is absent.  By rule 2 a term is live only if its
target is a product of its two arguments, so, writing abc for the product
e_a e_b e_c and so on, B(ab, c)(e_t) is live only if e_t is abc or cab,
B(a, c)(e_k) only if e_t = e_k e_b is acb or cab, and B(b, c)(e_k') only
if e_t = e_a e_k' is abc or acb.  A product of basis elements is nonzero
only if each one ends where the next starts.  abc and acb both nonzero
force b = c = [a.hi, a.hi], and then B(b, c) = 0; acb and cab force a = c
= [a.lo, a.lo], and B(a, c) = 0; abc and cab force a = b = c, and every
term vanishes.  One nonzero order makes at most two terms live (abc the
first and third, acb the second and third, cab the first and second), so
no row has three live terms.  Two live terms on one column have equal
unordered argument pairs.  For the first and second, {ab, c} = {a, c}:
ab = c = a would make B(a, c) vanish, so ab = a, the columns are the same
ordered pair and the coefficients s and -s cancel; the first and third
cancel the same way.  For the second and third, a = b (b = c = a would
make B(b, c) vanish), and e_k e_a = e_a e_k = e_t force k = a = t, an
idempotent; B(a, c)(e_a), a != c, is not live, since e_a e_c = e_a or
e_c e_a = e_a only for c = a.  So two terms never add to +-2: once the
terms on one column are summed and zero sums dropped, a row is empty, one
entry +-1, or two entries +-1 on distinct columns.  The rows the build
keeps need no sum: the second and third terms never share a column, and
the first shares one only if ab = a or ab = b, which a cover a and a
strict b exclude; the other rows kept have no first term.  So
LinearSystem.take gets each row as its three terms, None where one is not
live.  The argument uses the products of basis elements, antisymmetry and
rule 2; it uses no fact about chain components.

Solving.  Rows x_p = s x_q, s = +-1, and x_p = 0 make a signed graph on
the live columns (Zaslavsky, "Signed graphs", Discrete Appl. Math. 4,
1982).  LinearSystem keeps it as a disjoint-set forest with a sign on
each parent edge, x_c = s x_parent, joined by size with path compression
(Tarjan, "Efficiency of a good but not linear set union algorithm", JACM
22, 1975).  A class is the columns of one tree.  It is dead when a unit
row meets it, or when a cycle's signs multiply to -1, which gives x = -x
and so x = 0 over a field of characteristic other than 2; over Z/2, -1 =
1 and no cycle kills a class.  A class that is not dead is a line of
solutions, +-1 on each of its columns.  A row of any other shape raises
ValueError: the build makes none, and nothing falls back to elimination.
The reduced row echelon form of the system, which is unique, has the unit rows of the
non-live and dead columns and, in a live class, one row x_c = +-x_f per
column but the largest, f, its one free column.  So rank, free columns
and basis vectors are those of elimination and do not depend on the
order of the rows.  The nullspace is exactly the module of antisymmetric
biderivations; classify() cross-checks it against the chain
classification.
"""

from __future__ import annotations

from bisect import bisect_right

from .bracket import Bracket, SigmaMap, _from_sigma, extract_sigma
from .coeff import RingSpec
from .errors import (
    BijectionViolation,
    NotABiderivation,
    NotAField,
    NotChainConstant,
)
from .poset import Poset


class LinearSystem:
    """The constraint system: the `live` columns (every column until
    build_system narrows them to rule 2's) and a signed disjoint-set forest
    on them.  up[c] = (p, s) says x_c = s x_p; a column absent from up is
    the root of its class.  dead holds the roots of the classes held at
    zero.  The rank counts the unit rows of the non-live columns and the
    rows that joined two classes or killed a live one.  Column r * n + t is
    B(e_i, e_j)(e_t), r the rank of i < j.
    """

    def __init__(self, poset: Poset, ring: RingSpec):
        if not ring.is_field:
            raise NotAField(f"{ring} is not a field")
        self.poset = poset
        self.ring = ring
        self.intervals = intervals = poset.intervals()
        n = len(intervals)
        # the pair (i, j), i < j, has rank pair_start[i] + j - i - 1
        self.pair_start = [i * (2 * n - i - 1) // 2 for i in range(n)]
        self.num_unknowns = n * (n - 1) // 2 * n
        self.live: range | set[int] = range(self.num_unknowns)
        self.rows_streamed = 0
        self.up: dict[int, tuple[int, int]] = {}
        self.size: dict[int, int] = {}  # of the classes of more than one column, at roots
        self.dead: set[int] = set()
        self.merged = 0
        # over Z/2, x = -x holds for every x: no cycle kills a class
        self.signed = ring.modulus != 2

    @property
    def rank(self) -> int:
        return self.num_unknowns - len(self.live) + self.merged

    def column(self, i: int, j: int, k: int) -> tuple[int, int]:
        """Column index and sign of B(e_i, e_j)(e_k), on interval ranks, i != j."""
        n = len(self.intervals)
        if i < j:
            return (self.pair_start[i] + j - i - 1) * n + k, 1
        return (self.pair_start[j] + i - j - 1) * n + k, -1

    def find(self, c: int) -> tuple[int, int]:
        """(root, s) with x_c = s x_root; points c and the columns above it
        straight at the root."""
        up = self.up
        step = up.get(c)
        if step is None:
            return c, 1
        root, s = step
        step = up.get(root)
        if step is None:
            return root, s
        path = [c]
        while step is not None:
            path.append(root)
            root, s = step[0], s * step[1]
            step = up.get(root)
        total = s
        for col in path:  # s is the sign of col to the root
            old = up[col][1]
            up[col] = root, s
            s *= old
        return root, total

    def join(self, p: int, q: int, s: int) -> None:
        """Take the row x_p = s x_q, s = +-1."""
        (rp, sp), (rq, sq) = self.find(p), self.find(q)
        s *= sp * sq  # x_rp = s x_rq
        dead = self.dead
        if rp == rq:
            if s != 1 and self.signed and rp not in dead:
                dead.add(rp)
                self.merged += 1
            return
        size = self.size
        np, nq = size.pop(rp, 1), size.pop(rq, 1)
        if np > nq:
            rp, rq = rq, rp
        self.up[rp] = rq, s  # x_rp = s x_rq either way round, as s = 1 / s
        size[rq] = np + nq
        if rp in dead:
            dead.discard(rp)
            if rq in dead:
                return
            dead.add(rq)
        self.merged += 1

    def kill(self, p: int) -> None:
        """Take the row x_p = 0."""
        root, _ = self.find(p)
        if root not in self.dead:
            self.dead.add(root)
            self.merged += 1

    def take(self, first, second, third) -> None:
        """Take the row B(ab, c) - B(a, c) e_b - e_a B(b, c) = 0 of one
        triple at one target, each term the (column, sign) of its column or
        None where it is not live.  The row must read x_p = +-x_q or x_p = 0;
        any other raises ValueError, and the module docstring proves that
        build_system makes none."""
        # the live terms are (p, a), then (q, b) if any; the first term
        # enters the row with +, the others with -, so x_p = s a b x_q
        if first:
            lead, other, s = first, second or third, 1
        else:
            lead, other, s = second or third, second and third, -1
        if lead and lead[1] in (1, -1) and not (first and second and third):
            p, a = lead
            if other is None:
                return self.kill(p)
            q, b = other
            if b in (1, -1) and p != q:
                return self.join(p, q, s * a * b)
        raise ValueError(f"row {first} - {second} - {third} is not x_p = +-x_q or x_p = 0")

    def classes(self) -> dict[int, list[tuple[int, int]]]:
        """Each class by its root: its (column, s) with x_column = s x_root,
        columns ascending."""
        found: dict[int, list[tuple[int, int]]] = {}
        find = self.find
        for c in sorted(self.live):
            root, s = find(c)
            found.setdefault(root, []).append((c, s))
        return found


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
    B(e_u, e_v)(e_t) with e_t = e_u e_v or e_v e_u (rule 2), visited in
    the order of term, which is product order, each (u, v) followed by
    (v, u); no result depends on the order of the rows (module docstring,
    Solving).  Such a column is the term B(ab, c) of the triple (a, b, v)
    at t for each ab = u, B(a, c) e_b of (u, b, v) at t' for each
    e_t e_b = e_t', and e_a B(b, c) of (a, u, v) at t' for each
    e_a e_t = e_t'.  The third is never a row's first live term: B(au, v)
    is live there if e_t = e_u e_v or a = v, and B(a, v), at e_a e_v, if
    e_t = e_v e_u and a != v.  So a row is built once, from its first live
    term, and LinearSystem.take gets its three terms; of the rows of the
    first kind only those with a a cover and b strict are built (rule 3).
    rows_streamed counts the rows built plus one unit row per non-live
    column.
    """
    system = LinearSystem(poset, field)
    column = system.column
    product, _, right, left, _ = poset.basis_products()
    factors = poset.leibniz_index().factors
    # term[u, v, t] is the (column, sign) of B(e_u, e_v)(e_t) for e_t = e_u e_v
    # or e_v e_u, u != v (at most one is nonzero): the live terms
    term: dict[tuple[int, int, int], tuple[int, int]] = {}
    for (a, b), t in product.items():
        if a != b:
            term[a, b, t], term[b, a, t] = column(a, b, t), column(b, a, t)
    # below[b][t] = k with e_k e_b = e_t; above[a][t] = k with e_a e_k = e_t
    below, above = [dict(moves) for moves in right], [dict(moves) for moves in left]

    system.live = {col for col, _ in term.values()}
    live, take, streamed = term.get, system.take, 0
    for (u, v, t), own in term.items():
        for a, b in factors[u]:  # B(ab, c) of (a, b, v) at t, a a cover and b strict (rule 3)
            take(own, live((a, v, below[b].get(t))), live((b, v, above[a].get(t))))
        streamed += len(factors[u])
        for t2, b in left[t]:  # B(a, c) e_b of (u, b, v) at t2
            if not live((product.get((u, b)), v, t2)):
                streamed += 1
                take(None, own, live((b, v, above[u].get(t2))))
    system.rows_streamed = streamed + system.num_unknowns - len(system.live)
    return system


def _vector_to_bracket(system: LinearSystem, vector: dict[int, object]) -> Bracket:
    """The bracket of a solution vector of canonical nonzero raw values."""
    n, start = len(system.intervals), system.pair_start
    table: dict[tuple[int, int], dict] = {}
    for col, value in vector.items():
        r, k = divmod(col, n)  # LinearSystem.column inverted
        i = bisect_right(start, r) - 1
        table.setdefault((i, r - start[i] + i + 1), {})[k] = value
    return Bracket(system.poset, system.ring, table, antisymmetric_mode=True)


def nullspace(system: LinearSystem) -> SolutionBasis:
    """Basis of the solution space, free columns in ascending order.

    One vector per live class, free at its largest column f and x_c = +-x_f
    on its other columns c: the basis of the reduced row echelon form.
    Non-live columns and dead classes are zero in every vector.
    """
    red, dead = system.ring.reduce, system.dead
    vecs = []
    for root, members in system.classes().items():
        if root not in dead:
            free, s = members[-1]
            vecs.append((free, {c: red(s * sc) for c, sc in members}))
    vecs.sort(key=lambda pair: pair[0])
    vectors = [_vector_to_bracket(system, vec) for _, vec in vecs]
    return SolutionBasis(vectors, [free for free, _ in vecs])


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

    Each basis vector v passes three checks: extract_sigma's Leibniz gate,
    so v is an antisymmetric biderivation, a point of the solver space; its
    sigma is chain-constant and reproduces v; and sigma's support meets
    exactly one chain component C, which no other vector's support meets.
    With dimension = number of chain components they prove the bijection.
    A chain-constant sigma whose support meets C alone is c 1_C, where c is
    an entry of v: +-1 in nullspace's vectors and nonzero in any case, so a
    unit of the field.  So the indicator bracket of C, B_C = c^-1 B_sigma =
    c^-1 v, lies in the solver space.  The vectors meet distinct
    components, as many as there are, so every component is met: every
    indicator bracket lies in the solver space, and the basis is the
    indicator brackets up to units.

    Raises BijectionViolation if the solver space and the chain-constant
    parametrization disagree in any way.  Should that ever happen, report
    the poset and the ring: it is a finding about the classification.
    """
    system = build_system(poset, field)
    basis = nullspace(system)
    components = poset.chain_components()
    match = basis.dimension == len(components)

    sigmas, met = [], set()
    for vector in basis.vectors:
        try:
            sigma = extract_sigma(vector)
        except NotABiderivation:
            raise BijectionViolation("solver vector fails a bracket check") from None
        try:
            reproduced = _from_sigma(sigma, components)
        except NotChainConstant:
            raise BijectionViolation("solver vector's sigma is not chain-constant") from None
        if reproduced != vector:
            raise BijectionViolation("sigma does not reproduce its solver vector")
        meets = {components.class_index(pair) for pair in sigma.values}
        if len(meets) != 1 or meets <= met:
            raise BijectionViolation("indicator bracket falls outside the solver space")
        met |= meets
        sigmas.append(sigma)

    if not match:
        raise BijectionViolation(
            f"dimension {basis.dimension} != {len(components)} chain components"
        )
    return ClassificationReport(
        poset, field, basis, len(components), sigmas, match
    )
