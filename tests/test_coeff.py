"""Coefficient rings: canonical forms, ring axioms, parsing, and the kernel.

Ring laws are property-tested over Q and Z/m; field detection for Z/m is
cross-checked against an independent primality oracle.  The raw-value
kernel (inv, axpy, Echelon) is checked against dense arithmetic, sympy's
rank and rref over Q, and a dense textbook rref over Z/5.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from poisset import (
    INTEGERS,
    RATIONALS,
    RingSpec,
    Scalar,
    format_scalar,
    integers_mod,
    parse_scalar,
)
from poisset.coeff import Echelon
from poisset.errors import (
    NotInvertible,
    RingMismatch,
    ScalarParseError,
    ZeroDenominator,
)

rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**6
).map(RATIONALS.scalar)
moduli = st.integers(min_value=2, max_value=97)


@st.composite
def zmod_scalars(draw, ring=None):
    if ring is None:
        ring = integers_mod(draw(moduli))
    return ring.scalar(draw(st.integers(min_value=-(10**6), max_value=10**6)))


def scalars_over(ring):
    if ring.kind == "Q":
        return rationals
    return zmod_scalars(ring=ring)


class TestRingSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            RingSpec("R")
        with pytest.raises(ValueError):
            RingSpec("Zmod")
        with pytest.raises(ValueError):
            RingSpec("Zmod", 1)
        with pytest.raises(ValueError):
            RingSpec("Q", 5)

    def test_field_flags(self):
        assert RATIONALS.is_field
        assert not INTEGERS.is_field
        for m, expected in [(2, True), (3, True), (4, False), (5, True),
                            (6, False), (9, False), (91, False), (97, True)]:
            assert integers_mod(m).is_field is expected

    def test_field_flag_matches_primality(self):
        for m in range(2, 200):
            assert integers_mod(m).is_field == sympy.isprime(m)

    def test_field_flag_matches_trial_division(self):
        def trial(m):
            return m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))

        for m in range(2, 1001):
            assert integers_mod(m).is_field is trial(m), m

    def test_large_moduli(self):
        assert integers_mod(10**18 + 9).is_field
        assert not integers_mod((10**9 + 7) * (10**9 + 9)).is_field
        # Carmichael numbers, the last a strong pseudoprime to bases 2..7
        for m in (561, 41041, 825265, 3215031751):
            assert not integers_mod(m).is_field, m
        below = 3_317_044_064_679_887_385_961_981 - 2
        assert integers_mod(below).is_field == sympy.isprime(below)

    def test_modulus_past_the_primality_bound_is_refused(self):
        with pytest.raises(ValueError, match="too large"):
            RingSpec("Zmod", 3_317_044_064_679_887_385_961_981)

    def test_zmod_cache_returns_identical_specs(self):
        assert integers_mod(7) is integers_mod(7)
        assert integers_mod(7) == RingSpec("Zmod", 7)
        assert integers_mod(7) != integers_mod(5)
        assert RATIONALS != INTEGERS

    def test_json_roundtrip(self):
        for ring in (RATIONALS, INTEGERS, integers_mod(6)):
            assert RingSpec.from_json(ring.to_json()) == ring
        with pytest.raises(ValueError):
            RingSpec.from_json("F4")

    def test_str(self):
        assert str(RATIONALS) == "Q"
        assert str(integers_mod(5)) == "Z/5"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            RATIONALS.kind = "Z"


class TestScalarConstruction:
    def test_zmod_reduces_to_canonical_residue(self):
        r5 = integers_mod(5)
        assert r5.scalar(7).value == 2
        assert r5.scalar(-1).value == 4
        assert r5.scalar(Fraction(10, 2)).value == 0

    def test_integer_rings_reject_proper_fractions(self):
        with pytest.raises(ValueError):
            INTEGERS.scalar(Fraction(1, 2))
        with pytest.raises(ValueError):
            integers_mod(5).scalar(Fraction(1, 2))

    def test_rationals_accept_ints_and_fractions(self):
        assert RATIONALS.scalar(3).value == Fraction(3)
        assert RATIONALS.scalar(Fraction(4, 6)).value == Fraction(2, 3)

    def test_zero_one(self):
        for ring in (RATIONALS, INTEGERS, integers_mod(7)):
            assert ring.zero.is_zero() and not ring.zero
            assert ring.one.is_one() and ring.one

    def test_cross_ring_arithmetic_rejected(self):
        with pytest.raises(RingMismatch):
            RATIONALS.one + INTEGERS.one
        with pytest.raises(RingMismatch):
            integers_mod(5).one * integers_mod(7).one

    def test_immutable(self):
        with pytest.raises(AttributeError):
            RATIONALS.one.value = 2


class TestRingAxioms:
    """Commutative-ring laws, checked per ring on random scalars."""

    @given(a=rationals, b=rationals, c=rationals)
    def test_rational_laws(self, a, b, c):
        self._laws(RATIONALS, a, b, c)

    @given(data=st.data(), m=moduli)
    def test_zmod_laws(self, data, m):
        ring = integers_mod(m)
        a = data.draw(scalars_over(ring))
        b = data.draw(scalars_over(ring))
        c = data.draw(scalars_over(ring))
        self._laws(ring, a, b, c)
        assert 0 <= a.value < m

    @staticmethod
    def _laws(ring, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ring.zero == a
        assert a * ring.one == a
        assert a - a == ring.zero
        assert a + (-a) == ring.zero
        assert a - b == a + (-b)

    @given(a=rationals)
    def test_rational_inverse(self, a):
        if a.is_zero():
            with pytest.raises(NotInvertible):
                a.inverse()
        else:
            assert a * a.inverse() == RATIONALS.one

    @given(data=st.data(), m=moduli)
    def test_zmod_inverse(self, data, m):
        import math

        ring = integers_mod(m)
        a = data.draw(scalars_over(ring))
        if math.gcd(a.value, m) == 1:
            assert a * a.inverse() == ring.one
        else:
            with pytest.raises(NotInvertible):
                a.inverse()

    def test_integer_units(self):
        assert INTEGERS.scalar(-1).inverse() == INTEGERS.scalar(-1)
        assert INTEGERS.one.inverse() == INTEGERS.one
        with pytest.raises(NotInvertible):
            INTEGERS.scalar(2).inverse()

    @given(a=rationals, b=rationals)
    def test_division(self, a, b):
        if b.is_zero():
            with pytest.raises(NotInvertible):
                a / b
        else:
            assert (a / b) * b == a


class TestParseFormat:
    @given(a=rationals)
    def test_rational_roundtrip(self, a):
        assert parse_scalar(RATIONALS, format_scalar(a)) == a

    @given(data=st.data(), m=moduli)
    def test_zmod_roundtrip(self, data, m):
        ring = integers_mod(m)
        a = data.draw(scalars_over(ring))
        assert parse_scalar(ring, format_scalar(a)) == a

    @given(n=st.integers(min_value=-(10**9), max_value=10**9))
    def test_integer_roundtrip(self, n):
        a = INTEGERS.scalar(n)
        assert parse_scalar(INTEGERS, format_scalar(a)) == a

    def test_fractions_are_reduced(self):
        assert format_scalar(parse_scalar(RATIONALS, "3/6")) == "1/2"
        assert format_scalar(parse_scalar(RATIONALS, "-4/8")) == "-1/2"
        assert format_scalar(parse_scalar(RATIONALS, "8/4")) == "2"

    def test_whitespace_is_stripped(self):
        assert parse_scalar(RATIONALS, "  7 ").value == Fraction(7)

    def test_zmod_literal_is_reduced(self):
        assert parse_scalar(integers_mod(5), "7").value == 2
        assert parse_scalar(integers_mod(5), "-1").value == 4

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            parse_scalar(RATIONALS, "1/0")
        assert issubclass(ZeroDenominator, ScalarParseError)

    @pytest.mark.parametrize("text", ["", "a", "1.5", "1/2/3", "1 / 2", "+/2"])
    def test_rational_rejects_garbage(self, text):
        with pytest.raises(ScalarParseError):
            parse_scalar(RATIONALS, text)

    @pytest.mark.parametrize("text", ["1/2", "x", "2.0"])
    def test_integer_rings_reject_non_integers(self, text):
        with pytest.raises(ScalarParseError):
            parse_scalar(INTEGERS, text)
        with pytest.raises(ScalarParseError):
            parse_scalar(integers_mod(7), text)


class TestScalarMisc:
    def test_equality_requires_same_ring(self):
        assert RATIONALS.scalar(2) != integers_mod(5).scalar(2)
        assert RATIONALS.scalar(2) != 2

    def test_hashable(self):
        assert len({RATIONALS.scalar(2), RATIONALS.scalar(2)}) == 1

    def test_repr_and_str(self):
        a = RATIONALS.scalar(Fraction(1, 2))
        assert str(a) == "1/2"
        assert "Scalar" in repr(a)

    def test_scalar_requires_scalar_operand(self):
        with pytest.raises(TypeError):
            RATIONALS.one + 1


# -- the raw-value kernel: inv, axpy and Echelon --------------------------------


def rref_mod(rows: list[list[int]], p: int) -> list[list[int]]:
    """Reduced row echelon form over Z/p by the dense textbook algorithm;
    returns the nonzero rows, top to bottom."""
    m = [[v % p for v in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return m[:r]


def rref_q(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Nonzero rows of sympy's reduced row echelon form, as Fractions."""
    if not rows:
        return []
    reduced, pivots = sympy.Matrix(rows).rref()
    return [
        [Fraction(int(v.p), int(v.q)) for v in reduced.row(i)]
        for i in range(len(pivots))
    ]


def dense(row: dict, ncols: int) -> list:
    return [row.get(c, 0) for c in range(ncols)]


KERNEL_RINGS = [RATIONALS, integers_mod(5)]


@st.composite
def sparse_matrices(draw, ring):
    """(ncols, rows): up to 7 sparse rows over ring, zeros never stored."""
    ncols = draw(st.integers(min_value=1, max_value=7))
    if ring.kind == "Q":
        values = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        values = st.integers(min_value=0, max_value=ring.modulus - 1)
    rows = draw(
        st.lists(
            st.dictionaries(st.integers(0, ncols - 1), values, max_size=ncols),
            max_size=7,
        )
    )
    return ncols, [{c: v for c, v in row.items() if v} for row in rows]


def reference_rref(ring, rows, ncols):
    matrix = [dense(row, ncols) for row in rows]
    if ring.kind == "Q":
        return rref_q(matrix, ncols)
    return rref_mod(matrix, ring.modulus)


def echelon_of(ring, rows):
    echelon = Echelon(ring)
    raised = sum(echelon.absorb(dict(row)) for row in rows)
    assert raised == echelon.rank
    return echelon


class TestKernel:
    def test_inv_rejects_non_units(self):
        with pytest.raises(NotInvertible):
            RATIONALS.inv(0)
        with pytest.raises(NotInvertible):
            INTEGERS.inv(2)
        with pytest.raises(NotInvertible):
            integers_mod(4).inv(2)

    def test_inv_keeps_rational_units_integral(self):
        assert type(RATIONALS.inv(1)) is int and RATIONALS.inv(-1) == -1
        assert RATIONALS.inv(2) == Fraction(1, 2)
        assert RATIONALS.inv(Fraction(-2, 3)) == Fraction(-3, 2)
        assert INTEGERS.inv(-1) == -1
        assert integers_mod(5).inv(2) == 3

    @pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, integers_mod(4), integers_mod(5)], ids=str)
    @given(data=st.data())
    def test_axpy_matches_dense_addition(self, ring, data):
        if ring.kind == "Q":
            values = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        else:
            values = st.integers(min_value=-6, max_value=6).map(ring.reduce)
        vectors = st.dictionaries(st.integers(0, 5), values, max_size=6)
        acc = {k: v for k, v in data.draw(vectors).items() if v}
        x = data.draw(vectors)
        a = data.draw(values)
        want = [ring.reduce(p + a * q) for p, q in zip(dense(acc, 6), dense(x, 6))]
        ring.axpy(acc, x, a)
        assert dense(acc, 6) == want
        assert all(acc.values())

    # sympy is slow on rational matrices: 50 of them per ring
    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @settings(max_examples=50)
    @given(data=st.data())
    def test_echelon_matches_reference(self, ring, data):
        ncols, rows = data.draw(sparse_matrices(ring))
        want = reference_rref(ring, rows, ncols)
        echelon = echelon_of(ring, rows)
        assert echelon.rank == len(want)
        for pivot, row in echelon.rows.items():
            assert min(row) == pivot and row[pivot] == 1 and all(row.values())
        echelon.back_substitute()
        got = [dense(echelon.rows[p], ncols) for p in sorted(echelon.rows)]
        assert got == want

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @settings(max_examples=50)
    @given(data=st.data())
    def test_residue_is_empty_iff_in_row_space(self, ring, data):
        ncols, rows = data.draw(sparse_matrices(ring))
        echelon = echelon_of(ring, rows)
        echelon.back_substitute()  # residue reads reduced rows
        _, (probe, *_) = data.draw(sparse_matrices(ring).filter(lambda m: m[1]))
        probe = {c: v for c, v in probe.items() if c < ncols}
        # a combination of the rows lies in the span by construction
        combo: dict = {}
        for row in rows:
            ring.axpy(combo, row, data.draw(st.integers(-2, 2)))
        for vector in (probe, combo):
            rank = len(reference_rref(ring, rows + [vector], ncols))
            before = dict(vector)
            residue = echelon.residue(vector)
            assert vector == before
            assert (not residue) == (rank == echelon.rank)
            assert all(residue.values())
        assert not echelon.residue(combo)
