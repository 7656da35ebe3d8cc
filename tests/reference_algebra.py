"""The term-by-term convolution, kept as a reference for poisset.algebra.

`IncidenceElement.__mul__` and `commutator` scale each operand to ints by
the lcm of its denominators, convolve on ints and build one canonical raw
value per output entry (RingSpec.scale and unscale).  The functions here
are the definition they replace: every term f(x, z) g(z, v) is added with
`RingSpec.axpy` on raw values, Fractions over Q, and the commutator is
the difference of two products.  `tests/test_algebra.py` checks that both
give the same elements, with the same raw value types.
"""

from __future__ import annotations

from poisset import IncidenceElement, Interval


def mul(f: IncidenceElement, g: IncidenceElement) -> IncidenceElement:
    """f g, one axpy per row of f's terms."""
    starting: dict[str, dict] = {z: {} for _, z in f.coeffs}
    for (z, v), b in g.coeffs.items():
        if z in starting:
            starting[z][v] = b.value
    rows: dict[str, dict] = {}
    for (x, z), a in f.coeffs.items():
        if starting[z]:
            f.ring.axpy(rows.setdefault(x, {}), starting[z], a.value)
    return f._wrap({Interval(x, v): c for x, row in rows.items() for v, c in row.items()})


def commutator(f: IncidenceElement, g: IncidenceElement) -> IncidenceElement:
    """[f, g] = f g - g f, the difference taken with axpy."""
    out = mul(f, g)._values()
    f.ring.axpy(out, mul(g, f)._values(), -1)
    return f._wrap(out)
