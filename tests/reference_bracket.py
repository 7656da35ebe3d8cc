"""The exhaustive verifiers, kept as a reference for poisset.bracket.

Each check visits every basis pair or triple, n^2 or n^3 of them, and
counts a pass one instance at a time.  That follows the definitions
directly and is slow on large posets; `tests/test_bracket.py` checks that
the output-sensitive verifiers return the same report, failures in the
same order.  The product helpers are copied here so that the reference
shares no enumeration code with the module it checks; `_basis_products`,
the n^2 scan over all interval pairs, is also the reference that
`tests/test_poset.py` checks `Poset.basis_products` against.
"""

from __future__ import annotations

from poisset import CheckReport, Interval


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


def check_antisymmetric(bracket) -> CheckReport:
    """B(e_i, e_i) = 0 and B(e_i, e_j) + B(e_j, e_i) = 0 for all pairs."""
    report = CheckReport("antisymmetry")
    ivs = bracket.poset.intervals()
    full = bracket._full_coeffs()
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
    full = bracket._full_coeffs()
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
    full = bracket._full_coeffs()
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
