"""Incidence algebra arithmetic: convolution, commutators, restriction.

The convolution oracles below were multiplied out by hand on chain-3 and
the diamond before being frozen here.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_algebra
import reference_bracket
from conftest import corpus_params, crown_plus_chain3, diamond, posets, ring_elements
from poisset import (
    INTEGERS,
    RATIONALS,
    Bracket,
    IncidenceElement,
    Interval,
    center_basis,
    check_antisymmetric,
    integers_mod,
    linear_combination,
    make_chain,
    make_crown,
    random_element,
)
from poisset.errors import (
    InvalidPair,
    NotComparable,
    PosetMismatch,
    RingMismatch,
    UnknownLabel,
)

CHAIN3 = make_chain(3)
DIAMOND = diamond()


def el(poset, table, ring=RATIONALS):
    return IncidenceElement(
        poset,
        ring,
        {Interval(lo, hi): ring.scalar(c) for (lo, hi), c in table.items()},
    )


@st.composite
def elements(draw, poset, ring=RATIONALS):
    coeffs = {}
    for iv in poset.intervals():
        v = draw(st.integers(min_value=-4, max_value=4))
        if v:
            coeffs[iv] = ring.scalar(v)
    return IncidenceElement(poset, ring, coeffs)


class TestConstruction:
    def test_zero_coefficients_are_pruned(self):
        f = el(CHAIN3, {("1", "2"): 0, ("1", "3"): 2})
        assert f.support() == (Interval("1", "3"),)
        assert f.coeff("1", "2").is_zero()

    def test_basis_requires_an_interval(self):
        with pytest.raises(NotComparable):
            IncidenceElement.basis(CHAIN3, RATIONALS, "3", "1")
        with pytest.raises(UnknownLabel):
            IncidenceElement.basis(CHAIN3, RATIONALS, "1", "x")
        with pytest.raises(NotComparable):
            IncidenceElement.basis(make_crown(), RATIONALS, "1", "2")

    def test_keys_must_be_intervals(self):
        one = RATIONALS.one
        for key in [Interval("3", "1"), Interval("1", "x"), ("1", "x")]:
            with pytest.raises(InvalidPair):
                IncidenceElement(CHAIN3, RATIONALS, {key: one, Interval("1", "2"): one})
        with pytest.raises(InvalidPair):
            IncidenceElement(make_crown(), RATIONALS, {Interval("1", "2"): one})

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            IncidenceElement(
                CHAIN3, RATIONALS, {Interval("1", "2"): INTEGERS.one}
            )

    def test_poset_mismatch(self):
        f = IncidenceElement.delta(CHAIN3, RATIONALS)
        g = IncidenceElement.delta(make_chain(4), RATIONALS)
        with pytest.raises(PosetMismatch):
            f * g

    def test_foreign_operands(self):
        f = IncidenceElement.delta(CHAIN3, RATIONALS)
        for op in (lambda: f + 1, lambda: f - 1, lambda: f * "x"):
            with pytest.raises(TypeError):
                op()
        with pytest.raises(TypeError, match="expected IncidenceElement, got int"):
            f.commutator(1)
        assert f != 1

    def test_ring_mismatch_between_elements(self):
        f = IncidenceElement.delta(CHAIN3, RATIONALS)
        g = IncidenceElement.delta(CHAIN3, integers_mod(5))
        with pytest.raises(RingMismatch, match="elements live over Q and Z/5"):
            f * g

    def test_zero_and_bool(self):
        z = IncidenceElement.zero(CHAIN3, RATIONALS)
        assert z.is_zero() and not z
        assert IncidenceElement.delta(CHAIN3, RATIONALS)


class TestConvolution:
    # f = e11 + 2 e12 + 3 e13 + 4 e22,  g = 5 e12 + 6 e23 + 7 e33
    F = {("1", "1"): 1, ("1", "2"): 2, ("1", "3"): 3, ("2", "2"): 4}
    G = {("1", "2"): 5, ("2", "3"): 6, ("3", "3"): 7}

    def test_frozen_product(self):
        f, g = el(CHAIN3, self.F), el(CHAIN3, self.G)
        assert f * g == el(CHAIN3, {("1", "2"): 5, ("1", "3"): 33, ("2", "3"): 24})
        assert g * f == el(CHAIN3, {("1", "2"): 20})

    def test_frozen_commutator(self):
        f, g = el(CHAIN3, self.F), el(CHAIN3, self.G)
        assert f.commutator(g) == el(
            CHAIN3, {("1", "2"): -15, ("1", "3"): 33, ("2", "3"): 24}
        )
        assert g.commutator(f) == -f.commutator(g)

    def test_two_paths_through_the_diamond(self):
        f = el(DIAMOND, {("1", "a"): 1, ("1", "b"): 1})
        g = el(DIAMOND, {("a", "2"): 1, ("b", "2"): 1})
        assert f * g == el(DIAMOND, {("1", "2"): 2})
        assert (g * f).is_zero()

    def test_zeta_squared_counts_interval_size(self):
        one = RATIONALS.one
        zeta = IncidenceElement(
            DIAMOND, RATIONALS, {iv: one for iv in DIAMOND.intervals()}
        )
        sq = zeta * zeta
        for lo, hi in DIAMOND.intervals():
            assert sq.coeff(lo, hi).value == len(DIAMOND.between(lo, hi))

    def test_basis_multiplication_rule(self):
        # e_xy e_uv = e_xv when y == u, else 0
        P = make_crown()
        for i in P.intervals():
            for j in P.intervals():
                ei = IncidenceElement.basis(P, RATIONALS, *i)
                ej = IncidenceElement.basis(P, RATIONALS, *j)
                prod = ei * ej
                if i.hi == j.lo:
                    assert prod == IncidenceElement.basis(P, RATIONALS, i.lo, j.hi)
                else:
                    assert prod.is_zero()

    def test_delta_is_identity(self):
        delta = IncidenceElement.delta(CHAIN3, RATIONALS)
        rng = random.Random(7)
        for _ in range(10):
            f = random_element(CHAIN3, RATIONALS, rng)
            assert delta * f == f
            assert f * delta == f

    @given(f=elements(CHAIN3), g=elements(CHAIN3), h=elements(CHAIN3))
    def test_associativity(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(f=elements(DIAMOND), g=elements(DIAMOND), h=elements(DIAMOND))
    def test_distributivity(self, f, g, h):
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h

    @given(f=elements(CHAIN3), g=elements(CHAIN3))
    def test_commutator_antisymmetry(self, f, g):
        assert f.commutator(g) == -(g.commutator(f))
        assert f.commutator(f).is_zero()


SCALED_RINGS = [RATIONALS, INTEGERS, integers_mod(4), integers_mod(7)]
SCALED_IDS = ["Q", "Z", "Z4", "Z7"]


def raw(el):
    """The raw values with their types: equal Fractions and ints compare
    equal, so the types are compared too."""
    return {iv: (type(c.value), c.value) for iv, c in el.coeffs.items()}


def assert_canonical(el):
    # no stored zero, and every value in the ring's canonical form
    ring = el.ring
    for c in el.coeffs.values():
        assert c.value != 0
        assert ring.reduce(c.value) == c.value
        assert type(c.value) is (Fraction if ring.kind == "Q" else int)


class TestScaledConvolution:
    """Products and commutators convolve the operands' scaled int
    coefficients and build one raw value per entry; the reference adds
    every term with axpy.  Over Q the coefficients have denominators 2, 3,
    4 and 6, so the scale is not 1."""

    @pytest.mark.parametrize("ring", SCALED_RINGS, ids=SCALED_IDS)
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_products_and_commutators_match_reference(self, ring, data):
        poset = data.draw(posets(max_size=5))
        f, g = data.draw(ring_elements(poset, ring)), data.draw(ring_elements(poset, ring))
        for got, want in (
            (f * g, reference_algebra.mul(f, g)),
            (g * f, reference_algebra.mul(g, f)),
            (f.commutator(g), reference_algebra.commutator(f, g)),
            (f.commutator(f), reference_algebra.commutator(f, f)),
        ):
            assert got == want
            assert raw(got) == raw(want)
            assert_canonical(got)

    def test_scale_is_cleared_once_per_entry(self):
        # (1/2 e12 + 1/3 e13)(3/4 e23 + 1/6 e33): denominators 2 and 3 on
        # the left, 4 and 6 on the right, scale 6 * 12
        half, third = Fraction(1, 2), Fraction(1, 3)
        f = el(CHAIN3, {("1", "2"): half, ("1", "3"): third})
        g = el(CHAIN3, {("2", "3"): Fraction(3, 4), ("3", "3"): Fraction(1, 6)})
        assert f * g == el(CHAIN3, {("1", "3"): Fraction(3, 8) + Fraction(1, 18)})
        assert f.commutator(g) == f * g
        assert (g * f).is_zero()
        # a third of the identity is central: every entry cancels
        central = el(CHAIN3, {("1", "1"): third, ("2", "2"): third, ("3", "3"): third})
        assert central.commutator(f).coeffs == {} and (central * f).coeffs == {
            Interval("1", "2"): RATIONALS.scalar(Fraction(1, 6)),
            Interval("1", "3"): RATIONALS.scalar(Fraction(1, 9)),
        }

    @pytest.mark.parametrize("ring", SCALED_RINGS, ids=SCALED_IDS)
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_antisymmetry_reports_match_reference(self, ring, data):
        # raw tables of such elements, each mirror the exact negative,
        # which passes, the negated numerators over other denominators,
        # which fails unless the scale is cleared, or a drawn element
        poset = data.draw(posets(max_size=4))
        ivs = poset.intervals()
        index = st.integers(0, len(ivs) - 1)
        table = {}
        for i, j, mirror in data.draw(st.lists(st.tuples(index, index, st.integers(0, 2)), max_size=6)):
            value = data.draw(ring_elements(poset, ring))
            table[ivs[i], ivs[j]] = value
            if i != j:
                if mirror == 0:
                    other = -value
                elif mirror == 1:
                    dens = st.sampled_from((1, 2, 3)) if ring == RATIONALS else st.just(1)
                    other = IncidenceElement(poset, ring, {
                        iv: ring.scalar(Fraction(-c.value.numerator, data.draw(dens)))
                        for iv, c in value.coeffs.items()
                    })
                else:
                    other = data.draw(ring_elements(poset, ring))
                table[ivs[j], ivs[i]] = other
        bracket = Bracket.from_basis_table(poset, ring, table, antisymmetric=False)
        got, want = check_antisymmetric(bracket), reference_bracket.check_antisymmetric(bracket)
        assert got.to_json() == want.to_json()
        assert got.pass_counts == want.pass_counts


class TestModuleStructure:
    @given(f=elements(CHAIN3), g=elements(CHAIN3), h=elements(CHAIN3))
    def test_additive_group(self, f, g, h):
        zero = IncidenceElement.zero(CHAIN3, RATIONALS)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f + zero == f
        assert f - f == zero
        assert -(-f) == f

    @given(f=elements(CHAIN3), a=st.integers(-5, 5), b=st.integers(-5, 5))
    def test_scaling(self, f, a, b):
        sa, sb = RATIONALS.scalar(a), RATIONALS.scalar(b)
        assert f.scale(sa) + f.scale(sb) == f.scale(sa + sb)
        assert f.scale(sa).scale(sb) == f.scale(sa * sb)
        assert f.scale(RATIONALS.one) == f

    def test_scale_ring_mismatch(self):
        f = IncidenceElement.delta(CHAIN3, RATIONALS)
        with pytest.raises(RingMismatch):
            f.scale(INTEGERS.one)

    def test_linear_combination(self):
        f = IncidenceElement.basis(CHAIN3, RATIONALS, "1", "2")
        g = IncidenceElement.basis(CHAIN3, RATIONALS, "2", "3")
        two, three = RATIONALS.scalar(2), RATIONALS.scalar(3)
        assert linear_combination([(two, f), (three, g)]) == el(
            CHAIN3, {("1", "2"): 2, ("2", "3"): 3}
        )
        with pytest.raises(ValueError):
            linear_combination([])


class TestSandwichAndRestriction:
    def test_sandwich_extracts_one_coefficient(self):
        f = el(CHAIN3, {("1", "2"): 2, ("1", "3"): 5, ("2", "3"): 7})
        assert f.sandwich("1", "3") == el(CHAIN3, {("1", "3"): 5})
        assert f.sandwich("2", "2").is_zero()
        assert f.sandwich("3", "1").is_zero()

    @given(data=st.data())
    def test_sandwich_identity(self, data):
        # every label pair against the definition e_x f e_y, incomparable
        # and reversed pairs included
        for poset in (DIAMOND, make_crown()):
            f = data.draw(elements(poset))
            for x in poset.elements:
                for y in poset.elements:
                    e_x = IncidenceElement.basis(poset, RATIONALS, x, x)
                    e_y = IncidenceElement.basis(poset, RATIONALS, y, y)
                    assert f.sandwich(x, y) == e_x * f * e_y
            for lo, hi in poset.intervals():
                expected = IncidenceElement(
                    poset,
                    RATIONALS,
                    {Interval(lo, hi): f.coeff(lo, hi)},
                )
                assert f.sandwich(lo, hi) == expected
            for lo, hi in (("z", "1"), ("1", "z")):
                with pytest.raises(UnknownLabel):
                    f.sandwich(lo, hi)

    def test_restriction_keeps_the_corner_shape(self):
        chain4 = make_chain(4)
        f = IncidenceElement(
            chain4,
            RATIONALS,
            {
                iv: RATIONALS.scalar(k + 1)
                for k, iv in enumerate(chain4.intervals())
            },
        )
        g = f.restrict("2", "4")
        # rows starting at 2, columns ending at 4 -- but not interior (3,3)
        assert set(g.support()) == {
            Interval("2", "2"),
            Interval("2", "3"),
            Interval("2", "4"),
            Interval("3", "4"),
            Interval("4", "4"),
        }
        for iv in g.support():
            assert g.coeff(*iv) == f.coeff(*iv)

    def test_restriction_requires_an_interval(self):
        f = IncidenceElement.delta(CHAIN3, RATIONALS)
        with pytest.raises(NotComparable):
            f.restrict("3", "1")

    @given(f=elements(DIAMOND), g=elements(DIAMOND))
    def test_product_is_local_at_the_interval_top(self, f, g):
        for lo, hi in DIAMOND.intervals():
            restricted = f.restrict(lo, hi) * g.restrict(lo, hi)
            assert (f * g).coeff(lo, hi) == restricted.coeff(lo, hi)

    @given(f=elements(CHAIN3))
    def test_restriction_is_idempotent(self, f):
        for lo, hi in CHAIN3.intervals():
            once = f.restrict(lo, hi)
            assert once.restrict(lo, hi) == once


class TestPredicatesAndCenter:
    def test_delta_is_central(self):
        for poset in (CHAIN3, DIAMOND, make_crown()):
            assert IncidenceElement.delta(poset, RATIONALS).is_central()

    def test_off_diagonal_basis_is_not_central(self):
        assert not IncidenceElement.basis(CHAIN3, RATIONALS, "1", "2").is_central()

    def test_diagonal_is_not_automatically_central(self):
        f = el(make_chain(2), {("1", "1"): 1, ("2", "2"): 2})
        assert f.is_diagonal()
        assert not f.is_central()

    def test_center_of_connected_poset_is_spanned_by_delta(self):
        assert center_basis(DIAMOND, RATIONALS) == (
            IncidenceElement.delta(DIAMOND, RATIONALS),
        )

    def test_center_basis_of_disjoint_union(self):
        P = crown_plus_chain3()
        basis = center_basis(P, RATIONALS)
        assert len(basis) == 2
        assert basis[0] == el(
            P, {(x, x): 1 for x in ("1", "2", "3", "4")}
        )
        assert basis[1] == el(P, {(x, x): 1 for x in ("c1", "c2", "c3")})
        for b in basis:
            assert b.is_central()
        assert sum(basis[1:], basis[0]) == IncidenceElement.delta(P, RATIONALS)

    def test_center_by_exhaustion_over_gf2(self):
        # chain-2 over Z/2 is small enough to enumerate all 8 elements
        chain2 = make_chain(2)
        ring = integers_mod(2)
        ivs = chain2.intervals()
        central = set()
        for mask in range(2 ** len(ivs)):
            coeffs = {
                iv: ring.one for k, iv in enumerate(ivs) if (mask >> k) & 1
            }
            f = IncidenceElement(chain2, ring, coeffs)
            if f.is_central():
                central.add(f)
        assert central == {
            IncidenceElement.zero(chain2, ring),
            IncidenceElement.delta(chain2, ring),
        }


class TestSerialization:
    @given(f=elements(DIAMOND))
    def test_json_roundtrip(self, f):
        data = f.to_json()
        assert set(data) == {"ring", "entries"}
        assert IncidenceElement.from_json(DIAMOND, data) == f

    def test_json_ring_override(self):
        f = el(CHAIN3, {("1", "2"): 7})
        data = {"ring": "Q", "entries": [{"lo": "1", "hi": "2", "coeff": "7"}]}
        g = IncidenceElement.from_json(CHAIN3, data, ring=integers_mod(5))
        assert g == el(CHAIN3, {("1", "2"): 2}, ring=integers_mod(5))
        assert IncidenceElement.from_json(CHAIN3, data) == f
        del data["ring"]  # needed only when no ring is given
        assert IncidenceElement.from_json(CHAIN3, data, ring=integers_mod(5)) == g

    def test_json_rejects_non_intervals(self):
        with pytest.raises(NotComparable):
            IncidenceElement.from_json(
                CHAIN3,
                {"ring": "Q", "entries": [{"lo": "3", "hi": "1", "coeff": "1"}]},
            )
        with pytest.raises(UnknownLabel):
            IncidenceElement.from_json(
                CHAIN3,
                {"ring": "Q", "entries": [{"lo": "1", "hi": "x", "coeff": "1"}]},
            )

    def test_json_rejects_duplicate_entries(self):
        # summing them would let 1 and -1 at (1, 2) cancel unseen
        entries = [
            {"lo": "1", "hi": "2", "coeff": "1"},
            {"lo": "1", "hi": "2", "coeff": "-1"},
        ]
        with pytest.raises(InvalidPair, match="duplicate"):
            IncidenceElement.from_json(CHAIN3, {"ring": "Q", "entries": entries})

    def test_json_rejects_non_object(self):
        with pytest.raises(ValueError):
            IncidenceElement.from_json(CHAIN3, [], ring=RATIONALS)

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"entries": []}, "^element JSON .* has no 'ring'$"),
            ({"ring": "Q"}, "^element JSON .* has no 'entries'$"),
            ({"ring": "Q", "entries": 3}, "^entries 3 must be a list$"),
        ],
        ids=["no-ring", "no-entries", "entries-not-a-list"],
    )
    def test_json_names_the_malformed_field(self, data, message):
        with pytest.raises(ValueError, match=message):
            IncidenceElement.from_json(CHAIN3, data)

    def test_repr(self):
        assert repr(el(CHAIN3, {("1", "2"): 2})) == "2*e[1,2]"
        assert repr(el(CHAIN3, {("1", "2"): 1, ("2", "3"): -1})) == (
            "e[1,2] + -1*e[2,3]"
        )
        assert repr(IncidenceElement.zero(CHAIN3, RATIONALS)) == "0"


class TestRandomElements:
    def test_same_seed_same_element(self):
        a = random_element(DIAMOND, RATIONALS, random.Random(3))
        b = random_element(DIAMOND, RATIONALS, random.Random(3))
        assert a == b

    def test_density_zero_gives_zero(self):
        f = random_element(DIAMOND, RATIONALS, random.Random(0), density=0.0)
        assert f.is_zero()

    @pytest.mark.parametrize("poset", corpus_params())
    def test_support_lies_in_intervals(self, poset):
        rng = random.Random(11)
        for _ in range(5):
            f = random_element(poset, RATIONALS, rng, density=0.9)
            assert set(f.support()) <= set(poset.intervals())

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_support_matches_the_interval_scan(self, data):
        poset = data.draw(posets())
        f = data.draw(elements(poset))
        for g in (f, IncidenceElement.zero(poset, RATIONALS)):
            scan = tuple(iv for iv in poset.intervals() if iv in g.coeffs)
            assert g.support() == scan
