"""The exhaustive verifiers, kept as a reference for poisset.bracket.

Each check visits every basis pair or triple, n^2 or n^3 of them, and
counts a pass one instance at a time; `lemma_suite` likewise evaluates
every label triple and quadruple through `evaluate` below.  That
follows the definitions directly and is slow on large posets;
`tests/test_bracket.py` checks that the output-sensitive verifiers and
lemma suite return the same report, failures in the same order, and
that `is_standard` returns the same witness.  The references read a
bracket only through its public readers: `raw_table` gives every stored
B(e_i, e_j) by interval, as raw ring values, from `stored_pairs` and
`value`, and `evaluate` sums f(i) g(j) B(e_i, e_j) through `value` and
element arithmetic; `ranked` turns an interval-keyed raw table into the
rank-keyed one that the `Bracket` constructor takes.  `require_biderivation`,
the gate of every check=True entry point and of `lemma_suite(strict=True)`,
runs both exhaustive checks, and `extract_sigma` reads sigma and
`extract_lambda` each proportionality scalar through `Bracket.value` and
`IncidenceElement.coeff`.  The product helpers are
copied here so that the reference shares no enumeration code with the
module it checks; `_basis_products`, the n^2 scan over all interval
pairs, is also the reference that `tests/test_poset.py` checks
`Poset.basis_products` against.  `from_sigma` walks the whole product
table, where poisset's walks only the factorisations of sigma's nonzero
targets.  Sigma is read as a total map, every strict pair through
`SigmaMap.value`, where poisset walks only its support:
`is_chain_constant` visits every chain component, and `extract_sigma`
and `is_standard` every strict pair.  The loaders `element_from_json`,
`from_basis_table` and `bracket_from_json` build one validated
`IncidenceElement` per pair, then fold each pair onto i before j
themselves, negating a reversed one and comparing it with its mirror,
and give the constructor only keys with i before j; poisset parses each
interval once and leaves orientations to the constructor.
"""

from __future__ import annotations

import random

from poisset import (
    Bracket,
    CheckReport,
    IncidenceElement,
    Interval,
    SigmaMap,
    random_element,
)
from poisset.coeff import RingSpec, parse_scalar
from poisset.errors import (
    InconsistentAntisymmetry,
    InvalidPair,
    NotABiderivation,
    NotChainConstant,
    NotComparable,
    NotProportional,
    PosetMismatch,
    RingMismatch,
    UnknownLabel,
)


def _basis_products(poset):
    """e_i e_j for all basis pairs with nonzero product."""
    out = {}
    for i in poset.intervals():
        for j in poset.intervals():
            if i.hi == j.lo:
                out[(i, j)] = Interval(i.lo, j.hi)
    return out


def _mul_right(coeffs: dict, b: Interval) -> dict:
    """coeffs * e_b at the coefficient level."""
    u, v = b
    return {Interval(x, v): c for (x, z), c in coeffs.items() if z == u}


def _mul_left(a: Interval, coeffs: dict) -> dict:
    """e_a * coeffs at the coefficient level."""
    x, u = a
    return {Interval(x, y): c for (z, y), c in coeffs.items() if z == u}


def raw_table(bracket) -> dict:
    """Every nonzero B(e_i, e_j), both orientations, as {(i, j): {k: raw
    value}} by interval, read through stored_pairs and value."""
    pairs = bracket.stored_pairs()
    if bracket.antisymmetric_mode:
        pairs += [(j, i) for i, j in pairs]
    return {pair: bracket.value(*pair)._values() for pair in pairs}


def ranked(poset, table: dict) -> dict:
    """An interval-keyed raw table keyed by interval rank, as the Bracket
    constructor takes it."""
    rank = poset.interval_index
    return {
        (rank(i), rank(j)): {rank(k): v for k, v in coeffs.items()}
        for (i, j), coeffs in table.items()
    }


def element_from_json(poset, data, ring=None) -> IncidenceElement:
    """IncidenceElement.from_json through the validating constructor."""
    if not isinstance(data, dict):
        raise ValueError("element JSON must be an object")
    if ring is None:
        ring = RingSpec.from_json(data["ring"])
    coeffs = {}
    for entry in data["entries"]:
        lo, hi = entry["lo"], entry["hi"]
        if lo not in poset or hi not in poset:
            raise UnknownLabel(f"{lo!r} or {hi!r} is not an element of the poset")
        if not poset.leq(lo, hi):
            raise NotComparable(f"{lo!r} <= {hi!r} does not hold")
        iv = Interval(lo, hi)
        if iv in coeffs:
            raise InvalidPair(f"duplicate entry for ({lo!r}, {hi!r})")
        coeffs[iv] = parse_scalar(ring, entry["coeff"])
    return IncidenceElement(poset, ring, coeffs)


def from_basis_table(poset, ring, entries, antisymmetric=True) -> Bracket:
    """Bracket.from_basis_table folding each pair onto i before j here: a
    reversed pair is negated and compared with its mirror, a diagonal one
    must vanish."""

    def as_interval(key) -> Interval:
        lo, hi = key
        if not poset.is_interval(lo, hi):
            raise InvalidPair(f"({lo!r}, {hi!r}) is not an interval")
        return Interval(lo, hi)

    rank = poset.interval_index
    table = {}
    for (left_key, right_key), value in entries.items():
        left, right = as_interval(left_key), as_interval(right_key)
        if not isinstance(value, IncidenceElement):
            raise InvalidPair(f"value at ({left}, {right}) is not an element")
        if value.poset != poset:
            raise PosetMismatch(f"value at ({left}, {right}) uses another poset")
        if value.ring != ring:
            raise RingMismatch(f"value at ({left}, {right}) lives in {value.ring}")
        a, b = rank(left), rank(right)
        if antisymmetric:
            if a == b:
                if value:
                    raise InconsistentAntisymmetry(
                        f"B(e_{left}, e_{left}) must vanish, got {value!r}"
                    )
                continue
            if a > b:
                a, b, left, right, value = b, a, right, left, -value
        values = {rank(k): c.value for k, c in value.coeffs.items()}
        if antisymmetric and table.get((a, b), values) != values:
            raise InconsistentAntisymmetry(
                f"B{(left, right)} and its mirror disagree with antisymmetry"
            )
        table[a, b] = values
    return Bracket(poset, ring, table, antisymmetric)


def bracket_from_json(poset, ring, data, antisymmetric=True) -> Bracket:
    """Bracket.from_json as one element_from_json per pair, then
    from_basis_table."""
    if not isinstance(data, dict):
        raise ValueError("bracket JSON must be an object")
    entries = {}
    for pair in data.get("pairs", []):
        left = (pair["left"]["lo"], pair["left"]["hi"])
        right = (pair["right"]["lo"], pair["right"]["hi"])
        el = element_from_json(poset, {"entries": pair["value"]}, ring=ring)
        key = (left, right)
        if key in entries:
            raise InvalidPair(f"duplicate table entry for {key}")
        entries[key] = el
    return from_basis_table(poset, ring, entries, antisymmetric)


def evaluate(bracket, f, g):
    """Bracket.evaluate as the sum of f(i) g(j) B(e_i, e_j) over the terms
    of f and g, through Bracket.value, IncidenceElement.scale and +."""
    out = IncidenceElement.zero(bracket.poset, bracket.ring)
    for i, fi in f.coeffs.items():
        for j, gj in g.coeffs.items():
            out = out + bracket.value(i, j).scale(fi * gj)
    return out


def is_chain_constant(sigma: SigmaMap) -> bool:
    """SigmaMap.is_chain_constant as a walk over every chain component,
    reading sigma as a total map through SigmaMap.value."""
    for cls in sigma.poset.chain_components():
        first = sigma.value(*cls[0])
        if any(sigma.value(*pair) != first for pair in cls[1:]):
            return False
    return True


def from_sigma(sigma: SigmaMap) -> Bracket:
    """The bracket [e_a, e_b] = sigma(t) e_t for each product e_a e_b = e_t,
    a != b, found by a scan of every product."""
    if not is_chain_constant(sigma):
        raise NotChainConstant("sigma takes two values on one chain component")
    P, R = sigma.poset, sigma.ring
    rank = P.interval_index
    table = {}
    for (i, j), t in _basis_products(P).items():
        if i != j and (w := sigma.value(*t).value):
            if rank(i) < rank(j):
                table[i, j] = {t: w}
            else:
                table[j, i] = {t: R.reduce(-w)}
    return Bracket(P, R, ranked(P, table), antisymmetric_mode=True)


def check_antisymmetric(bracket) -> CheckReport:
    """B(e_i, e_i) = 0 and B(e_i, e_j) + B(e_j, e_i) = 0 for all pairs."""
    report = CheckReport("antisymmetry")
    ivs = bracket.poset.intervals()
    full = raw_table(bracket)
    empty: dict = {}
    for i in ivs:
        if full.get((i, i)):
            report.fail("antisymmetry", {"left": list(i), "right": list(i)})
        else:
            report.count_pass("antisymmetry")
    for a in range(len(ivs)):
        for b in range(a + 1, len(ivs)):
            i, j = ivs[a], ivs[b]
            forward = full.get((i, j), empty)
            backward = full.get((j, i), empty)
            residual = dict(forward)
            bracket.ring.axpy(residual, backward, 1)
            if residual:
                report.fail("antisymmetry", {"left": list(i), "right": list(j)})
            else:
                report.count_pass("antisymmetry")
    return report


def check_biderivation(bracket) -> CheckReport:
    """Both Leibniz identities on all ordered basis triples (a, b, c):

        B(ab, c) = B(a, c) b + a B(b, c)
        B(a, bc) = B(a, b) c + b B(a, c)

    When the bracket is antisymmetric the two are equivalent; the report
    still records both, plus whether their verdicts agreed triple by triple.
    """
    report = CheckReport("biderivation")
    P = bracket.poset
    ivs = P.intervals()
    prod = _basis_products(P)
    full = raw_table(bracket)
    axpy = bracket.ring.axpy
    empty: dict = {}
    antisym = check_antisymmetric(bracket).ok
    fail1: set = set()
    fail2: set = set()

    for a in ivs:
        for b in ivs:
            ab = prod.get((a, b))
            for c in ivs:
                f_ac = full.get((a, c), empty)
                f_bc = full.get((b, c), empty)
                lhs1 = full.get((ab, c), empty) if ab is not None else empty
                if lhs1 or f_ac or f_bc:
                    residual = dict(lhs1)
                    axpy(residual, _mul_right(f_ac, b), -1)
                    axpy(residual, _mul_left(a, f_bc), -1)
                    ok1 = not residual
                else:
                    ok1 = True
                if ok1:
                    report.count_pass("leibniz_1")
                else:
                    fail1.add((a, b, c))
                    report.fail(
                        "leibniz_1", {"a": list(a), "b": list(b), "c": list(c)}
                    )

                bc = prod.get((b, c))
                f_ab = full.get((a, b), empty)
                lhs2 = full.get((a, bc), empty) if bc is not None else empty
                if lhs2 or f_ab or f_ac:
                    residual = dict(lhs2)
                    axpy(residual, _mul_right(f_ab, c), -1)
                    axpy(residual, _mul_left(b, f_ac), -1)
                    ok2 = not residual
                else:
                    ok2 = True
                if ok2:
                    report.count_pass("leibniz_2")
                else:
                    fail2.add((a, b, c))
                    report.fail(
                        "leibniz_2", {"a": list(a), "b": list(b), "c": list(c)}
                    )

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


def check_jacobi(bracket) -> CheckReport:
    """B(a, B(b, c)) + B(b, B(c, a)) + B(c, B(a, b)) = 0 on basis triples."""
    report = CheckReport("jacobi")
    ivs = bracket.poset.intervals()
    full = raw_table(bracket)
    axpy = bracket.ring.axpy
    empty: dict = {}

    def apply(left: Interval, coeffs: dict, acc: dict):
        for k, ck in coeffs.items():
            inner = full.get((left, k))
            if inner:
                axpy(acc, inner, ck)

    for a in ivs:
        for b in ivs:
            f_ab = full.get((a, b), empty)
            for c in ivs:
                f_bc = full.get((b, c), empty)
                f_ca = full.get((c, a), empty)
                if not (f_ab or f_bc or f_ca):
                    report.count_pass("jacobi")
                    continue
                acc: dict[Interval, object] = {}
                apply(a, f_bc, acc)
                apply(b, f_ca, acc)
                apply(c, f_ab, acc)
                if acc:
                    report.fail(
                        "jacobi", {"a": list(a), "b": list(b), "c": list(c)}
                    )
                else:
                    report.count_pass("jacobi")
    return report


def require_biderivation(bracket):
    """Raise NotABiderivation unless both exhaustive checks pass."""
    if not check_antisymmetric(bracket).ok:
        raise NotABiderivation("bracket is not antisymmetric")
    if not check_biderivation(bracket).ok:
        raise NotABiderivation("bracket violates a Leibniz identity")


def extract_sigma(bracket, check: bool = True) -> SigmaMap:
    """sigma(x, y) = B(e_x, e_xy)(x, y), read through the element wrappers."""
    if check:
        require_biderivation(bracket)
    P, R = bracket.poset, bracket.ring
    values = {}
    for lo, hi in P.strict_pairs():
        val = bracket.value(Interval(lo, lo), Interval(lo, hi))
        values[(lo, hi)] = val.coeff(lo, hi)
    return SigmaMap(P, R, values)


def extract_lambda(bracket, check: bool = True) -> dict:
    """lambda(i, j) = B(e_i, e_j)(t) / [e_i, e_j](t) on the pairs with
    [e_i, e_j] = +-e_t nonzero, read through the element wrappers, in
    canonical pair order; NotProportional at the first pair in that order
    whose value has support outside t."""
    if check:
        require_biderivation(bracket)
    P, one = bracket.poset, bracket.ring.one
    rank = {iv: k for k, iv in enumerate(P.intervals())}
    commutators = []
    for (i, j), t in _basis_products(P).items():
        if i != j:
            commutators += (i, j, t, one), (j, i, t, -one)
    out = {}
    for i, j, t, sign in sorted(commutators, key=lambda c: (rank[c[0]], rank[c[1]])):
        value = bracket.value(i, j)
        if any(iv != t for iv in value.coeffs):
            raise NotProportional(f"B(e_{i}, e_{j}) has support outside [e_{i}, e_{j}]")
        out[(i, j)] = value.coeff(*t) * sign
    return out


def is_standard(bracket, check: bool = True):
    """The central witness of poisset.is_standard, or None, one scan of
    all strict pairs per connected component."""
    sigma = extract_sigma(bracket, check=check)
    P, R = bracket.poset, bracket.ring
    coeffs = {}
    for component in P.connected_components():
        members = set(component)
        values = [
            sigma.value(*pair) for pair in P.strict_pairs() if pair.lo in members
        ]
        if values and any(v != values[0] for v in values[1:]):
            return None
        constant = values[0] if values else R.zero
        if not constant.is_zero():
            for x in component:
                coeffs[Interval(x, x)] = constant
    return IncidenceElement(P, R, coeffs)


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
    """
    if strict:
        require_biderivation(bracket)
    report = CheckReport("lemma_suite")
    P, R = bracket.poset, bracket.ring
    labels = P.elements
    idem = {x: IncidenceElement.basis(P, R, x, x) for x in labels}
    zero_el = IncidenceElement.zero(P, R)
    rng = random.Random(seed)
    xs = [random_element(P, R, rng) for _ in range(samples)]
    ys = [random_element(P, R, rng) for _ in range(samples)]

    # orthogonal idempotents bracket to zero
    for e in labels:
        for f in labels:
            if e == f:
                continue
            if bracket.value(Interval(e, e), Interval(f, f)):
                report.fail("orthogonal_vanishing", {"e": e, "f": f})
            else:
                report.count_pass("orthogonal_vanishing")

    for s in range(samples):
        x, y = xs[s], ys[s]
        bex = {e: evaluate(bracket, idem[e], x) for e in labels}
        sx = {(a, b): x.sandwich(a, b) for a in labels for b in labels}
        sy = {(a, b): y.sandwich(a, b) for a in labels for b in labels}

        # B(e, fxg) = f B(e, x) g, and = 0 when e differs from f and g
        for e in labels:
            for f in labels:
                for g in labels:
                    fxg = sx[(f, g)]
                    lhs = evaluate(bracket, idem[e], fxg)
                    rhs = bex[e].sandwich(f, g)
                    bad = lhs != rhs
                    if not bad and e != f and e != g and lhs:
                        bad = True
                    if bad:
                        report.fail(
                            "sandwich_transport",
                            {"e": e, "f": f, "g": g, "sample": s},
                        )
                    else:
                        report.count_pass("sandwich_transport")

        # B(e, exf) = B(exf, f)
        for e in labels:
            for f in labels:
                exf = sx[(e, f)]
                lhs = evaluate(bracket, idem[e], exf)
                rhs = evaluate(bracket, exf, idem[f])
                if lhs != rhs:
                    report.fail("endpoint_exchange", {"e": e, "f": f, "sample": s})
                else:
                    report.count_pass("endpoint_exchange")

        # distinct triples: B(exf, fyg) = e B(e, x) f y g
        for e in labels:
            for f in labels:
                if f == e:
                    continue
                exf = sx[(e, f)]
                ebexf = bex[e].sandwich(e, f)
                for g in labels:
                    if g == e or g == f:
                        continue
                    lhs = evaluate(bracket, exf, sy[(f, g)])
                    rhs = ebexf * y * idem[g]
                    if lhs != rhs:
                        report.fail(
                            "forward_chaining",
                            {"e": e, "f": f, "g": g, "sample": s},
                        )
                    else:
                        report.count_pass("forward_chaining")

        # distinct triples: B(exf, gye) = -g B(g, y) exf
        gby = {g: idem[g] * evaluate(bracket, idem[g], y) for g in labels}
        for e in labels:
            for f in labels:
                if f == e:
                    continue
                exf = sx[(e, f)]
                for g in labels:
                    if g == e or g == f:
                        continue
                    lhs = evaluate(bracket, exf, sy[(g, e)])
                    rhs = -(gby[g] * exf)
                    if lhs != rhs:
                        report.fail(
                            "backward_chaining",
                            {"e": e, "f": f, "g": g, "sample": s},
                        )
                    else:
                        report.count_pass("backward_chaining")

        # quadruples with e, g orthogonal to f, h: the value is its own
        # corner sandwich eg B(exf, gyh) fh
        for e in labels:
            for f in labels:
                if f == e:
                    continue
                exf = sx[(e, f)]
                for g in labels:
                    if g == f:
                        continue
                    for h in labels:
                        if h == e or h == g:
                            continue
                        val = evaluate(bracket, exf, sy[(g, h)])
                        if not val:
                            report.count_pass("corner_support")
                            continue
                        # eg and fh collapse to e_e, e_f or vanish outright
                        if e == g and f == h:
                            rhs = val.sandwich(e, f)
                        else:
                            rhs = zero_el
                        if val != rhs:
                            report.fail(
                                "corner_support",
                                {"e": e, "f": f, "g": g, "h": h, "sample": s},
                            )
                        else:
                            report.count_pass("corner_support")
    return report


# -- the Leibniz family H, as coefficient rows -----------------------------------


def leibniz_rows(poset, keep) -> list[dict]:
    """The coefficient rows of R(a, b) = D(ab) - D(a) e_b - e_a D(b) at each
    target t, for the basis pairs (a, b) with keep(a, b), as linear forms in
    the unknowns D(e_i)(e_k) of a linear map D, column (i, k).  These rows
    vanish at D exactly when R does on those pairs; c is fixed, so the rows
    are those of the first Leibniz identity at the triples (a, b, c) for
    D = B(., e_c)."""
    ivs = poset.intervals()
    prod = _basis_products(poset)
    rows = []
    for a in ivs:
        for b in ivs:
            if not keep(a, b):
                continue
            for t in ivs:
                row: dict = {}
                if (a, b) in prod:
                    row[prod[a, b], t] = 1
                # e_k e_b = e_t for k = [t.lo, b.lo], e_a e_k = e_t for k = [a.hi, t.hi]
                if t.hi == b.hi and poset.leq(t.lo, b.lo):
                    k = (a, Interval(t.lo, b.lo))
                    row[k] = row.get(k, 0) - 1
                if t.lo == a.lo and poset.leq(a.hi, t.hi):
                    k = (b, Interval(a.hi, t.hi))
                    row[k] = row.get(k, 0) - 1
                rows.append(row)
    return rows


def rank_mod(rows, p: int) -> int:
    """The rank over Z/p, p prime, of sparse rows {column: int}, by
    Gaussian elimination on a dict of pivot rows, each 1 at its least
    column."""
    pivots: dict = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inverse = pow(row[lead], -1, p)
                pivots[lead] = {c: v * inverse % p for c, v in row.items()}
                break
            factor = row[lead]
            for c, v in pivot.items():
                w = (row.get(c, 0) - factor * v) % p
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
    return len(pivots)
