"""Bracket tables, verification checks, and the chain-constant picture.

The 4-crown table with weights (1, 2, 3, 4) is frozen below entry by
entry; it doubles as the reference non-standard structure.  All other
oracles were derived by hand from the defining formula
B(f, g)(x, y) = sigma(x, y) [f, g](x, y).
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import poisset.bracket
import reference_bracket
from reference_bracket import ranked, raw_table
from conftest import (
    CORPUS,
    antichain,
    antisymmetric_tables,
    corpus_params,
    crown_plus_chain3,
    diamond,
    fence3,
    natural_posets,
    posets,
    random_sigma,
    ring_elements,
    shuffled_posets,
)
from poisset import (
    INTEGERS,
    RATIONALS,
    Bracket,
    IncidenceElement,
    Interval,
    PiecewiseWitness,
    Poset,
    SigmaMap,
    StrictPair,
    check_antisymmetric,
    check_biderivation,
    check_jacobi,
    extract_lambda,
    extract_sigma,
    from_covers,
    from_sigma,
    integers_mod,
    is_chain_constant,
    is_standard,
    lemma_suite,
    make_chain,
    make_crown,
    random_element,
    verify_piecewise_witness,
)
from poisset.coeff import format_scalar
from poisset.errors import (
    InconsistentAntisymmetry,
    InvalidPair,
    NotABiderivation,
    NotAField,
    NotChainConstant,
    NotProportional,
    PoissetError,
    PosetMismatch,
    RingMismatch,
)

CROWN = make_crown()
CHAIN3 = make_chain(3)
Q = RATIONALS


def el(poset, table, ring=Q):
    return IncidenceElement(
        poset,
        ring,
        {Interval(lo, hi): ring.scalar(c) for (lo, hi), c in table.items()},
    )


def crown_sigma(l, m, n, e, ring=Q):
    return SigmaMap(
        CROWN, ring, {("1", "3"): l, ("1", "4"): m, ("2", "3"): n, ("2", "4"): e}
    )


def crown_table(l, m, n, e, ring=Q):
    """The 4-crown bracket table with weights (l, m, n, e), one side."""
    return {
        (("1", "1"), ("1", "3")): el(CROWN, {("1", "3"): l}, ring),
        (("1", "1"), ("1", "4")): el(CROWN, {("1", "4"): m}, ring),
        (("2", "2"), ("2", "3")): el(CROWN, {("2", "3"): n}, ring),
        (("2", "2"), ("2", "4")): el(CROWN, {("2", "4"): e}, ring),
        (("1", "3"), ("3", "3")): el(CROWN, {("1", "3"): l}, ring),
        (("1", "4"), ("4", "4")): el(CROWN, {("1", "4"): m}, ring),
        (("2", "3"), ("3", "3")): el(CROWN, {("2", "3"): n}, ring),
        (("2", "4"), ("4", "4")): el(CROWN, {("2", "4"): e}, ring),
    }


class TestSigmaMap:
    def test_missing_pairs_default_to_zero(self):
        sigma = SigmaMap(CROWN, Q, {("1", "3"): 1})
        assert sigma.value("1", "4").is_zero()
        assert sigma.value("1", "3") == Q.one

    def test_rejects_non_strict_pairs(self):
        with pytest.raises(InvalidPair):
            SigmaMap(CROWN, Q, {("1", "1"): 1})
        with pytest.raises(InvalidPair):
            SigmaMap(CROWN, Q, {("3", "4"): 1})
        with pytest.raises(InvalidPair):
            SigmaMap(CROWN, Q, {("3", "1"): 1})
        sigma = SigmaMap(CROWN, Q, {})
        with pytest.raises(InvalidPair):
            sigma.value("1", "1")

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            SigmaMap(CROWN, Q, {("1", "3"): INTEGERS.one})

    def test_accepts_raw_integers(self):
        sigma = SigmaMap(CROWN, integers_mod(5), {("1", "3"): 7})
        assert sigma.value("1", "3").value == 2

    def test_chain_constancy(self):
        # every crown map is chain-constant: the components are singletons
        assert crown_sigma(1, 2, 3, 4).is_chain_constant()
        assert not SigmaMap(
            CHAIN3, Q, {("1", "2"): 1, ("2", "3"): 2}
        ).is_chain_constant()
        assert SigmaMap(
            CHAIN3, Q, {("1", "2"): 2, ("2", "3"): 2, ("1", "3"): 2}
        ).is_chain_constant()
        f3 = fence3()
        assert SigmaMap(f3, Q, {("a", "b"): 1, ("c", "b"): 2}).is_chain_constant()
        assert is_chain_constant(SigmaMap(antichain(3), Q, {}))

    def test_json_roundtrip(self):
        sigma = crown_sigma(1, -2, 0, 4)
        data = sigma.to_json()
        assert len(data["entries"]) == 4  # total map, zeros included
        assert SigmaMap.from_json(CROWN, Q, data) == sigma

    def test_json_rejects_duplicates_and_non_objects(self):
        data = crown_sigma(1, 2, 3, 4).to_json()
        data["entries"].append(dict(data["entries"][0], value="7"))
        with pytest.raises(InvalidPair, match="duplicate"):
            SigmaMap.from_json(CROWN, Q, data)
        with pytest.raises(ValueError):
            SigmaMap.from_json(CROWN, Q, [])

    def test_equality_and_hash(self):
        assert crown_sigma(1, 2, 3, 4) == crown_sigma(1, 2, 3, 4)
        assert crown_sigma(1, 2, 3, 4) != crown_sigma(1, 2, 3, 5)
        assert len({crown_sigma(0, 0, 0, 0), SigmaMap(CROWN, Q, {})}) == 1

    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_support_reads_as_the_total_map(self, data):
        # values given with explicit zeros and in any order: the map keeps
        # the nonzero ones in canonical order and reads, prints and compares
        # as the total map over every strict pair
        poset = data.draw(posets(max_size=6))
        ring = data.draw(st.sampled_from([Q, integers_mod(2), integers_mod(7)]))
        pairs = poset.strict_pairs()
        raw = st.sampled_from((0, 0, 1, -1, 3) if ring is not Q else (0, 0, 1, Fraction(-1, 2), 3))
        given_values = {}
        for cls in poset.chain_components():
            # one value per component, or one per pair: both verdicts of
            # is_chain_constant
            if data.draw(st.booleans()):
                given_values.update(dict.fromkeys(cls, data.draw(raw)))
            else:
                given_values.update((pair, data.draw(raw)) for pair in cls)
        kept = [
            pair for pair in data.draw(st.permutations(pairs))
            if given_values[pair] or data.draw(st.booleans())
        ]
        sigma = SigmaMap(poset, ring, {pair: given_values[pair] for pair in kept})
        total = {pair: ring.scalar(given_values[pair]) for pair in pairs}

        assert list(sigma.values.items()) == [(p, v) for p, v in total.items() if v]
        assert all(sigma.value(*pair) == v for pair, v in total.items())
        texts = [(pair, format_scalar(v)) for pair, v in total.items()]
        assert sigma.to_json() == {
            "entries": [{"lo": lo, "hi": hi, "value": text} for (lo, hi), text in texts]
        }
        assert repr(sigma) == "SigmaMap(" + ", ".join(f"({lo},{hi})={t}" for (lo, hi), t in texts) + ")"
        same = SigmaMap(poset, ring, total)
        assert sigma == same and hash(sigma) == hash(same)
        assert SigmaMap.from_json(poset, ring, sigma.to_json()) == sigma
        assert sigma.is_chain_constant() == reference_bracket.is_chain_constant(sigma)
        if sigma.is_chain_constant():
            bracket = from_sigma(sigma)
            assert extract_sigma(bracket, check=False) == sigma
            assert is_standard(bracket, check=False) == reference_bracket.is_standard(
                bracket, check=False
            )
        if pairs:
            pair = data.draw(st.sampled_from(pairs))
            other = SigmaMap(poset, ring, {**total, pair: total[pair] + ring.one})
            assert other != sigma


class TestBracketTable:
    def test_crown_table_is_a_poisson_structure(self):
        bracket = Bracket.from_basis_table(CROWN, Q, crown_table(1, 2, 3, 4))
        assert check_antisymmetric(bracket).ok
        assert check_biderivation(bracket).ok
        assert check_jacobi(bracket).ok

    def test_crown_table_matches_from_sigma(self):
        assert Bracket.from_basis_table(
            CROWN, Q, crown_table(1, 2, 3, 4)
        ) == from_sigma(crown_sigma(1, 2, 3, 4))

    def test_mirror_values_are_negated(self):
        bracket = Bracket.from_basis_table(CROWN, Q, crown_table(1, 2, 3, 4))
        e11, e13 = Interval("1", "1"), Interval("1", "3")
        assert bracket.value(e11, e13) == el(CROWN, {("1", "3"): 1})
        assert bracket.value(e13, e11) == el(CROWN, {("1", "3"): -1})
        assert bracket.value(e11, e11).is_zero()

    def test_consistent_mirror_entries_accepted(self):
        table = dict(crown_table(1, 2, 3, 4))
        table[(("1", "3"), ("1", "1"))] = el(CROWN, {("1", "3"): -1})
        assert Bracket.from_basis_table(CROWN, Q, table) == Bracket.from_basis_table(
            CROWN, Q, crown_table(1, 2, 3, 4)
        )

    def test_inconsistent_mirror_rejected(self):
        table = dict(crown_table(1, 2, 3, 4))
        table[(("1", "3"), ("1", "1"))] = el(CROWN, {("1", "3"): 1})
        with pytest.raises(InconsistentAntisymmetry):
            Bracket.from_basis_table(CROWN, Q, table)

    @pytest.mark.parametrize("zero_first", [True, False])
    def test_zero_against_nonzero_mirror_rejected_in_either_order(self, zero_first):
        chain2 = make_chain(2)
        e11, e12 = Interval("1", "1"), Interval("1", "2")
        entries = [((e11, e12), el(chain2, {})), ((e12, e11), el(chain2, {("1", "2"): 1}))]
        if not zero_first:
            entries.reverse()
        with pytest.raises(InconsistentAntisymmetry):
            Bracket.from_basis_table(chain2, Q, dict(entries))

    def test_stored_pairs_and_repr_in_both_storages(self):
        bracket = from_sigma(crown_sigma(1, 2, 3, 4))
        half = [
            ("11", "13"), ("11", "14"), ("13", "33"), ("14", "44"),
            ("22", "23"), ("22", "24"), ("23", "33"), ("24", "44"),
        ]
        full = [
            ("11", "13"), ("11", "14"), ("13", "11"), ("13", "33"),
            ("14", "11"), ("14", "44"), ("22", "23"), ("22", "24"),
            ("23", "22"), ("23", "33"), ("24", "22"), ("24", "44"),
            ("33", "13"), ("33", "23"), ("44", "14"), ("44", "24"),
        ]
        raw = Bracket.from_json(CROWN, Q, bracket.to_json(), antisymmetric=False)
        for b, pairs, text in [
            (bracket, half, "Bracket(antisymmetric, 8 stored pairs)"),
            (raw, full, "Bracket(raw, 16 stored pairs)"),
        ]:
            assert b.stored_pairs() == [(Interval(*i), Interval(*j)) for i, j in pairs]
            assert repr(b) == text
        assert raw.to_json() == bracket.to_json()

    E11, E13 = Interval("1", "1"), Interval("1", "3")

    def anti(self, table: dict) -> Bracket:
        return Bracket(CROWN, Q, ranked(CROWN, table), antisymmetric_mode=True)

    def test_constructor_reads_a_reversed_key_as_the_negated_pair(self):
        reversed_only = self.anti({(self.E13, self.E11): {self.E13: -1}})
        assert reversed_only == self.anti({(self.E11, self.E13): {self.E13: 1}})
        assert reversed_only.stored_pairs() == [(self.E11, self.E13)]
        assert reversed_only.value(self.E11, self.E13) == el(CROWN, {("1", "3"): 1})
        assert reversed_only.value(self.E13, self.E11) == el(CROWN, {("1", "3"): -1})

    @pytest.mark.parametrize("forward_first", [True, False])
    def test_constructor_checks_two_given_orientations(self, forward_first):
        def table(forward, backward):
            entries = [((self.E11, self.E13), forward), ((self.E13, self.E11), backward)]
            return dict(entries if forward_first else entries[::-1])

        one = self.anti({(self.E11, self.E13): {self.E13: 1}})
        assert self.anti(table({self.E13: 1}, {self.E13: -1})) == one
        assert self.anti(table({}, {self.E13: 0})) == self.anti({})
        message = (
            "B(Interval(lo='1', hi='1'), Interval(lo='1', hi='3')) "
            "and its mirror disagree with antisymmetry"
        )
        for forward, backward in [({self.E13: 1}, {self.E13: 1}), ({}, {self.E13: 1}), ({self.E13: 1}, {})]:
            with pytest.raises(InconsistentAntisymmetry) as info:
                self.anti(table(forward, backward))
            assert str(info.value) == message

    def test_constructor_checks_the_diagonal(self):
        assert self.anti({(self.E13, self.E13): {self.E13: 0}}) == self.anti({})
        with pytest.raises(InconsistentAntisymmetry) as info:
            self.anti({(self.E13, self.E13): {self.E13: Fraction(1, 2)}})
        assert str(info.value) == (
            "B(e_Interval(lo='1', hi='3'), e_Interval(lo='1', hi='3')) must vanish, got 1/2*e[1,3]"
        )

    @pytest.mark.parametrize("key", [("13", "13"), ("33", "13")])
    def test_raw_constructor_keeps_diagonal_and_reversed_keys(self, key):
        i, j = (Interval(*k) for k in key)
        raw = Bracket(CROWN, Q, ranked(CROWN, {(i, j): {self.E13: 1}}), antisymmetric_mode=False)
        assert raw.value(i, j) == el(CROWN, {("1", "3"): 1})
        assert raw.stored_pairs() == [(i, j)]
        if i != j:
            assert raw.value(j, i).is_zero()  # no derived mirror

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(InconsistentAntisymmetry):
            Bracket.from_basis_table(
                CROWN,
                Q,
                {(("1", "3"), ("1", "3")): el(CROWN, {("1", "3"): 1})},
            )

    def test_non_interval_key_rejected(self):
        with pytest.raises(InvalidPair):
            Bracket.from_basis_table(
                CROWN,
                Q,
                {(("3", "1"), ("1", "1")): el(CROWN, {("1", "3"): 1})},
            )

    def test_foreign_value_rejected(self):
        with pytest.raises(PosetMismatch):
            Bracket.from_basis_table(
                CROWN,
                Q,
                {(("1", "1"), ("1", "3")): el(CHAIN3, {("1", "2"): 1})},
            )
        with pytest.raises(RingMismatch):
            Bracket.from_basis_table(
                CROWN,
                Q,
                {
                    (("1", "1"), ("1", "3")): el(
                        CROWN, {("1", "3"): 1}, ring=INTEGERS
                    )
                },
            )

    def test_evaluate_is_bilinear(self):
        bracket = from_sigma(crown_sigma(1, 2, 3, 4))
        rng = random.Random(5)
        f = random_element(CROWN, Q, rng)
        g = random_element(CROWN, Q, rng)
        h = random_element(CROWN, Q, rng)
        two = Q.scalar(2)
        assert bracket.evaluate(f + g, h) == bracket.evaluate(
            f, h
        ) + bracket.evaluate(g, h)
        assert bracket.evaluate(f.scale(two), g) == bracket.evaluate(f, g).scale(two)
        assert bracket.evaluate(f, g) == -bracket.evaluate(g, f)

    def test_raw_mode_reads_table_literally(self):
        e11, e13 = Interval("1", "1"), Interval("1", "3")
        raw = Bracket.from_basis_table(
            CROWN,
            Q,
            {(e11, e13): el(CROWN, {("1", "3"): 1})},
            antisymmetric=False,
        )
        assert raw.value(e11, e13) == el(CROWN, {("1", "3"): 1})
        assert raw.value(e13, e11).is_zero()  # no derived mirror
        assert raw.value(Interval("3", "1"), e11).is_zero()  # no interval, no entry

    def test_raw_vs_antisymmetric_equality_compares_full_tables(self):
        one_sided = crown_table(1, 2, 3, 4)
        full = dict(one_sided)
        for (i, j), v in one_sided.items():
            full[(j, i)] = -v
        raw = Bracket.from_basis_table(CROWN, Q, full, antisymmetric=False)
        antisym = Bracket.from_basis_table(CROWN, Q, one_sided)
        assert raw == antisym
        assert antisym == raw

    @pytest.mark.parametrize("ring", [Q, integers_mod(5)], ids=["Q", "Z5"])
    def test_raw_reload_hashes_like_its_source(self, ring):
        bracket = from_sigma(crown_sigma(1, 2, 3, 4, ring))
        raw = Bracket.from_json(CROWN, ring, bracket.to_json(), antisymmetric=False)
        assert bracket == raw
        assert hash(bracket) == hash(raw)
        assert len({bracket, raw}) == 1


class TestBracketSerialization:
    def test_antisymmetric_json_carries_both_orientations(self):
        bracket = from_sigma(crown_sigma(1, 2, 3, 4))
        data = bracket.to_json()
        assert len(data["pairs"]) == 16  # 8 stored pairs and their mirrors

    def test_json_roundtrip_antisymmetric(self):
        bracket = from_sigma(crown_sigma(1, 2, 3, 4))
        assert Bracket.from_json(CROWN, Q, bracket.to_json()) == bracket

    def test_json_reloaded_raw_still_passes_checks(self):
        bracket = from_sigma(crown_sigma(1, 2, 3, 4))
        raw = Bracket.from_json(CROWN, Q, bracket.to_json(), antisymmetric=False)
        assert check_antisymmetric(raw).ok
        assert check_biderivation(raw).ok
        assert raw == bracket

    def test_duplicate_pair_rejected(self):
        bracket = from_sigma(crown_sigma(1, 0, 0, 0))
        data = bracket.to_json()
        data["pairs"].append(data["pairs"][0])
        with pytest.raises(InvalidPair):
            Bracket.from_json(CROWN, Q, data)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            Bracket.from_json(CROWN, Q, [])


class TestChecks:
    def test_half_table_fails_antisymmetry_once(self):
        # mirror left unset: B(e11, e13) = e13 but B(e13, e11) = 0
        raw = Bracket.from_basis_table(
            CROWN,
            Q,
            {(("1", "1"), ("1", "3")): el(CROWN, {("1", "3"): 1})},
            antisymmetric=False,
        )
        report = check_antisymmetric(raw)
        assert not report.ok
        assert len(report.failures) == 1

    def test_check_instance_counts_on_crown(self):
        bracket = from_sigma(crown_sigma(1, 2, 3, 4))
        anti = check_antisymmetric(bracket)
        assert anti.ok and anti.total_passes() == 36  # 8 diagonal + 28 pairs
        bider = check_biderivation(bracket)
        assert bider.ok
        assert bider.pass_counts["leibniz_1"] == 512  # 8^3 triples
        assert bider.pass_counts["leibniz_2"] == 512
        jac = check_jacobi(bracket)
        assert jac.ok and jac.total_passes() == 512

    def test_leibniz_violation_detected(self):
        chain2 = make_chain(2)
        bad = Bracket.from_basis_table(
            chain2,
            Q,
            {(("1", "1"), ("1", "2")): el(chain2, {("1", "1"): 1})},
        )
        report = check_biderivation(bad)
        assert not report.ok
        failed_checks = {check for check, _ in report.failures}
        assert "leibniz_1" in failed_checks and "leibniz_2" in failed_checks
        # under antisymmetry the two identities fail on matching triples
        assert "leibniz_equivalence" not in failed_checks
        assert report.pass_counts.get("leibniz_equivalence") == 1

    def test_jacobi_violation_detected(self):
        bad = Bracket.from_basis_table(
            CHAIN3,
            Q,
            {
                (("1", "1"), ("1", "2")): el(CHAIN3, {("1", "2"): 1}),
                (("1", "2"), ("2", "3")): el(CHAIN3, {("1", "3"): 1}),
            },
        )
        assert not check_jacobi(bad).ok

    def test_zero_bracket_passes_everything(self):
        zero = Bracket.from_basis_table(CHAIN3, Q, {})
        assert check_antisymmetric(zero).ok
        assert check_biderivation(zero).ok
        assert check_jacobi(zero).ok

    def test_report_json_shape(self):
        raw = Bracket.from_basis_table(
            CROWN,
            Q,
            {(("1", "1"), ("1", "3")): el(CROWN, {("1", "3"): 1})},
            antisymmetric=False,
        )
        records = check_antisymmetric(raw).to_json()
        assert all(set(r) == {"check", "instance", "status"} for r in records)
        # a check name that failed anywhere lists its failures, not a summary
        assert all(r["status"] == "fail" for r in records)
        assert records[0]["instance"] == {"left": ["1", "1"], "right": ["1", "3"]}

        passing = check_antisymmetric(from_sigma(crown_sigma(1, 2, 3, 4)))
        records = passing.to_json()
        assert records == [
            {
                "check": "antisymmetry",
                "instance": {"instances": 36},
                "status": "pass",
            }
        ]


class TestFromSigma:
    def test_rejects_non_chain_constant(self):
        with pytest.raises(NotChainConstant):
            from_sigma(SigmaMap(CHAIN3, Q, {("1", "2"): 1, ("2", "3"): 2}))

    def test_matches_defining_formula(self):
        # B(f, g)(x, y) = sigma(x, y) [f, g](x, y) on random arguments
        for poset, sigma_values in [
            (CROWN, {("1", "3"): 1, ("1", "4"): -2, ("2", "3"): 3, ("2", "4"): 5}),
            (fence3(), {("a", "b"): 2, ("c", "b"): -1}),
        ]:
            sigma = SigmaMap(poset, Q, sigma_values)
            bracket = from_sigma(sigma)
            rng = random.Random(17)
            for _ in range(10):
                f = random_element(poset, Q, rng)
                g = random_element(poset, Q, rng)
                out = bracket.evaluate(f, g)
                com = f.commutator(g)
                for x, y in poset.strict_pairs():
                    assert out.coeff(x, y) == sigma.value(x, y) * com.coeff(x, y)
                for x in poset.elements:
                    assert out.coeff(x, x).is_zero()

    @settings(deadline=None, max_examples=80)
    @given(poset=posets(max_size=6), seed=st.integers(0, 999))
    def test_target_walk_matches_product_walk(self, poset, seed):
        # a random sigma, zeros on some components, and each indicator:
        # the same table, JSON, stored pairs and key as the product scan;
        # with the labels reversed, factors e_a e_b of a target come with a
        # after b too, and their commutator is stored negated
        rng = random.Random(seed)
        data = poset.to_json()
        reversed_labels = Poset(data["elements"][::-1], [tuple(c) for c in data["covers"]])
        for ring, poset in itertools.product(RINGS, (poset, reversed_labels)):
            sigmas = [random_sigma(poset, ring, rng)]
            sigmas += [SigmaMap(poset, ring, dict.fromkeys(cls, 1)) for cls in poset.chain_components()]
            for sigma in sigmas:
                got, want = from_sigma(sigma), reference_bracket.from_sigma(sigma)
                assert raw_table(got) == raw_table(want)
                assert got.to_json() == want.to_json()
                assert got.stored_pairs() == want.stored_pairs()
                assert got._key() == want._key()

    @pytest.mark.parametrize("poset", corpus_params())
    def test_extract_sigma_roundtrip(self, poset):
        rng = random.Random(23)
        for ring in (Q, integers_mod(3)):
            for _ in range(3):
                sigma = random_sigma(poset, ring, rng)
                assert extract_sigma(from_sigma(sigma), check=False) == sigma

    def test_extract_sigma_gates_on_checks(self):
        raw = Bracket.from_basis_table(
            CROWN,
            Q,
            {(("1", "1"), ("1", "3")): el(CROWN, {("1", "3"): 1})},
            antisymmetric=False,
        )
        with pytest.raises(NotABiderivation):
            extract_sigma(raw)

    def test_extract_sigma_checks_antisymmetry_once(self, monkeypatch):
        calls = []
        check = poisset.bracket.check_antisymmetric
        monkeypatch.setattr(
            poisset.bracket, "check_antisymmetric", lambda b: calls.append(b) or check(b)
        )
        bracket = from_sigma(crown_sigma(1, 2, 3, 4))
        assert extract_sigma(bracket) == crown_sigma(1, 2, 3, 4)
        assert calls == [bracket]
        # the two verdicts keep their messages
        half = Bracket.from_basis_table(
            CROWN, Q, {(("1", "1"), ("1", "3")): el(CROWN, {("1", "3"): 1})},
            antisymmetric=False,
        )
        with pytest.raises(NotABiderivation, match="not antisymmetric"):
            extract_sigma(half)
        leibniz = Bracket.from_basis_table(
            CROWN, Q, {(("1", "1"), ("2", "2")): el(CROWN, {("1", "3"): 1})}
        )
        with pytest.raises(NotABiderivation, match="violates a Leibniz identity"):
            extract_sigma(leibniz)
        assert len(calls) == 3

    def test_works_over_non_field_rings(self):
        sigma = SigmaMap(CHAIN3, INTEGERS, {p: INTEGERS.scalar(2) for p in CHAIN3.strict_pairs()})
        bracket = from_sigma(sigma)
        assert check_biderivation(bracket).ok
        assert extract_sigma(bracket) == sigma


class TestExtractLambda:
    def test_crown_values(self):
        lam = extract_lambda(from_sigma(crown_sigma(1, 2, 3, 4)))
        e = Interval
        expected_one_sided = {
            (e("1", "1"), e("1", "3")): 1,
            (e("1", "1"), e("1", "4")): 2,
            (e("2", "2"), e("2", "3")): 3,
            (e("2", "2"), e("2", "4")): 4,
            (e("1", "3"), e("3", "3")): 1,
            (e("1", "4"), e("4", "4")): 2,
            (e("2", "3"), e("3", "3")): 3,
            (e("2", "4"), e("4", "4")): 4,
        }
        assert len(lam) == 16  # both orientations of the eight pairs
        for (i, j), value in expected_one_sided.items():
            assert lam[(i, j)] == Q.scalar(value)

    def test_symmetric(self):
        lam = extract_lambda(from_sigma(crown_sigma(1, 2, 3, 4)))
        for (i, j), value in lam.items():
            assert lam[(j, i)] == value

    def test_defined_exactly_on_noncommuting_pairs(self):
        bracket = from_sigma(crown_sigma(1, 2, 3, 4))
        lam = extract_lambda(bracket)
        ivs = CROWN.intervals()
        for i in ivs:
            for j in ivs:
                ei = IncidenceElement.basis(CROWN, Q, *i)
                ej = IncidenceElement.basis(CROWN, Q, *j)
                assert ((i, j) in lam) == (not ei.commutator(ej).is_zero())

    def test_reproduces_bracket_values(self):
        bracket = from_sigma(crown_sigma(2, 0, -1, 7))
        lam = extract_lambda(bracket)
        for (i, j), value in lam.items():
            ei = IncidenceElement.basis(CROWN, Q, *i)
            ej = IncidenceElement.basis(CROWN, Q, *j)
            assert bracket.value(i, j) == ei.commutator(ej).scale(value)

    def test_lemma_relations_on_chain(self):
        chain4 = make_chain(4)
        sigma = SigmaMap(
            chain4, Q, {p: Q.scalar(3) for p in chain4.strict_pairs()}
        )
        lam = extract_lambda(from_sigma(sigma))
        assert_lambda_relations(chain4, lam)

    def test_lemma_relations_on_crown(self):
        lam = extract_lambda(from_sigma(crown_sigma(1, 2, 3, 4)))
        assert_lambda_relations(CROWN, lam)

    def test_unchecked_raw_table_names_first_off_commutator_pair(self):
        # two pairs with terms outside their commutator: the later one in
        # canonical order is stored first, and its mirror (e_13, e_33) is a
        # product found before (e_24, e_44)
        entries = {(("3", "3"), ("1", "3")): el(CROWN, {("1", "3"): -1, ("1", "1"): 2})}
        entries.update(crown_table(1, 2, 3, 4))
        entries[("2", "4"), ("4", "4")] = el(CROWN, {("2", "4"): 4, ("1", "1"): 1})
        bracket = Bracket.from_basis_table(CROWN, Q, entries, antisymmetric=False)
        with pytest.raises(NotProportional) as raised:
            extract_lambda(bracket, check=False)
        i, j = Interval("2", "4"), Interval("4", "4")
        assert str(raised.value) == f"B(e_{i}, e_{j}) has support outside [e_{i}, e_{j}]"


def assert_lambda_relations(poset, lam):
    """The four equational constraints a proportionality map satisfies."""
    e = Interval
    els = poset.elements
    lt = poset.lt
    for x in els:
        for y in els:
            if not lt(x, y):
                continue
            assert lam[(e(x, x), e(x, y))] == lam[(e(x, y), e(y, y))]
            for z in els:
                if not lt(y, z):
                    continue
                assert lam[(e(x, y), e(y, z))] == lam[(e(x, x), e(x, y))]
    for x in els:
        for y in els:
            if not poset.leq(x, y):
                continue
            for z in els:
                if not lt(y, z):
                    continue
                for u in els:
                    if lt(z, u):
                        assert lam[(e(x, y), e(y, z))] == lam[(e(x, y), e(y, u))]
    for x in els:
        for y in els:
            if not lt(x, y):
                continue
            for z in els:
                if not lt(y, z):
                    continue
                for u in els:
                    if poset.leq(z, u):
                        assert lam[(e(y, z), e(z, u))] == lam[(e(x, z), e(z, u))]


class TestIsStandard:
    def test_constant_sigma_gives_scaled_delta(self):
        sigma = SigmaMap(CHAIN3, Q, {p: Q.scalar(5) for p in CHAIN3.strict_pairs()})
        bracket = from_sigma(sigma)
        witness = is_standard(bracket)
        assert witness == IncidenceElement.delta(CHAIN3, Q).scale(Q.scalar(5))
        rng = random.Random(2)
        for _ in range(5):
            f = random_element(CHAIN3, Q, rng)
            g = random_element(CHAIN3, Q, rng)
            assert bracket.evaluate(f, g) == witness * f.commutator(g)

    def test_crown_with_distinct_weights_is_not_standard(self):
        assert is_standard(from_sigma(crown_sigma(1, 2, 3, 4))) is None

    def test_crown_with_equal_weights_is_standard(self):
        witness = is_standard(from_sigma(crown_sigma(5, 5, 5, 5)))
        assert witness == IncidenceElement.delta(CROWN, Q).scale(Q.scalar(5))

    def test_fence_needs_one_value_per_connected_component(self):
        f3 = fence3()
        split = from_sigma(SigmaMap(f3, Q, {("a", "b"): 1, ("c", "b"): 2}))
        assert is_standard(split) is None
        flat = from_sigma(SigmaMap(f3, Q, {("a", "b"): 2, ("c", "b"): 2}))
        assert is_standard(flat) == IncidenceElement.delta(f3, Q).scale(Q.scalar(2))

    def test_disjoint_components_scale_independently(self):
        P = crown_plus_chain3()
        values = {pair: Q.scalar(2) for pair in P.strict_pairs()}
        for pair in P.strict_pairs():
            if pair.lo.startswith("c"):
                values[pair] = Q.scalar(3)
        bracket = from_sigma(SigmaMap(P, Q, values))
        witness = is_standard(bracket)
        expected = el(
            P,
            {(x, x): 2 for x in ("1", "2", "3", "4")}
            | {(x, x): 3 for x in ("c1", "c2", "c3")},
        )
        assert witness == expected
        assert witness.is_central()

    def test_partly_covered_component_is_not_standard(self):
        # sigma zero on some strict pairs of a connected component and not
        # on others: its support meets the component without covering it
        assert is_standard(from_sigma(SigmaMap(CROWN, Q, {("1", "3"): 1}))) is None
        assert is_standard(from_sigma(SigmaMap(fence3(), Q, {("a", "b"): 2}))) is None
        assert is_standard(from_sigma(SigmaMap(CROWN, Q, {}))) == IncidenceElement.zero(CROWN, Q)

    def test_antichain_bracket_is_standard_with_zero_witness(self):
        P = antichain(3)
        bracket = from_sigma(SigmaMap(P, Q, {}))
        assert is_standard(bracket) == IncidenceElement.zero(P, Q)

    def test_gates_on_checks(self):
        raw = Bracket.from_basis_table(
            CROWN,
            Q,
            {(("1", "1"), ("1", "3")): el(CROWN, {("1", "3"): 1})},
            antisymmetric=False,
        )
        with pytest.raises(NotABiderivation):
            is_standard(raw)


class TestPiecewiseWitness:
    @staticmethod
    def two_chains():
        P = from_covers(
            ["a1", "a2", "b1", "b2", "b3"],
            [("a1", "a2"), ("b1", "b2"), ("b2", "b3")],
        )
        values = {
            pair: Q.scalar(2 if pair.lo.startswith("a") else 3)
            for pair in P.strict_pairs()
        }
        bracket = from_sigma(SigmaMap(P, Q, values))
        gens_a = [
            IncidenceElement.basis(P, Q, lo, hi)
            for lo, hi in P.intervals()
            if lo.startswith("a")
        ]
        gens_b = [
            IncidenceElement.basis(P, Q, lo, hi)
            for lo, hi in P.intervals()
            if lo.startswith("b")
        ]
        return P, bracket, gens_a, gens_b

    def test_valid_witness_passes(self):
        _, bracket, gens_a, gens_b = self.two_chains()
        witness = PiecewiseWitness(
            [gens_a, gens_b], [Q.scalar(2), Q.scalar(3)]
        )
        report = verify_piecewise_witness(bracket, witness)
        assert report.ok

    def test_wrong_scalar_fails_scaling(self):
        _, bracket, gens_a, gens_b = self.two_chains()
        witness = PiecewiseWitness(
            [gens_a, gens_b], [Q.scalar(2), Q.scalar(4)]
        )
        report = verify_piecewise_witness(bracket, witness)
        assert not report.ok
        assert {check for check, _ in report.failures} == {"piecewise.scaling"}

    def test_single_ideal_cannot_carry_two_scalars(self):
        _, bracket, gens_a, gens_b = self.two_chains()
        witness = PiecewiseWitness([gens_a + gens_b], [Q.scalar(2)])
        report = verify_piecewise_witness(bracket, witness)
        assert not report.ok
        assert {check for check, _ in report.failures} == {"piecewise.scaling"}

    def test_partial_cover_fails_direct_sum(self):
        _, bracket, gens_a, _ = self.two_chains()
        witness = PiecewiseWitness([gens_a], [Q.scalar(2)])
        report = verify_piecewise_witness(bracket, witness)
        assert any(check == "piecewise.direct_sum" for check, _ in report.failures)

    def test_non_ideal_detected(self):
        P, bracket, gens_a, gens_b = self.two_chains()
        # span{e_a1a1} is no Lie ideal: [e_a1a1, e_a1a2] = e_a1a2 escapes
        witness = PiecewiseWitness(
            [[gens_a[0]], gens_b], [Q.scalar(2), Q.scalar(3)]
        )
        report = verify_piecewise_witness(bracket, witness)
        assert any(check == "piecewise.lie_ideal" for check, _ in report.failures)

    def test_crown_rejects_single_scalar_witness(self):
        bracket = from_sigma(crown_sigma(1, 2, 3, 4))
        gens = [IncidenceElement.basis(CROWN, Q, *iv) for iv in CROWN.intervals()]
        witness = PiecewiseWitness([gens], [Q.one])
        report = verify_piecewise_witness(bracket, witness)
        assert not report.ok

    def test_requires_a_field(self):
        sigma = SigmaMap(CHAIN3, INTEGERS, {})
        bracket = from_sigma(sigma)
        witness = PiecewiseWitness([], [])
        with pytest.raises(NotAField):
            verify_piecewise_witness(bracket, witness)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseWitness([[]], [])


class TestLemmaSuite:
    def test_passes_on_crown_poisson_structure(self):
        bracket = from_sigma(crown_sigma(1, 2, 3, 4))
        report = lemma_suite(bracket, samples=3)
        assert report.ok
        assert report.pass_counts["orthogonal_vanishing"] == 12  # 4 * 3 ordered pairs

    def test_detects_non_orthogonal_idempotent_values(self):
        bad = Bracket.from_basis_table(
            CROWN,
            Q,
            {(("1", "1"), ("2", "2")): el(CROWN, {("1", "3"): 1})},
        )
        report = lemma_suite(bad, samples=1)
        assert not report.ok
        assert ("orthogonal_vanishing", {"e": "1", "f": "2"}) in report.failures

    def test_strict_mode_gates_on_biderivation(self):
        bad = Bracket.from_basis_table(
            CROWN,
            Q,
            {(("1", "1"), ("2", "2")): el(CROWN, {("1", "3"): 1})},
        )
        with pytest.raises(NotABiderivation):
            lemma_suite(bad, strict=True)

    def test_deterministic_under_seed(self):
        bracket = from_sigma(crown_sigma(1, 2, 3, 4))
        a = lemma_suite(bracket, samples=2, seed=9)
        b = lemma_suite(bracket, samples=2, seed=9)
        assert a.pass_counts == b.pass_counts and a.failures == b.failures


class TestRestrictionLocality:
    def test_bracket_value_depends_only_on_the_restrictions(self):
        for poset, sigma_builder in [
            (CROWN, lambda: crown_sigma(1, -2, 3, 7)),
            (diamond(), None),
        ]:
            if sigma_builder is None:
                rng0 = random.Random(1)
                sigma = random_sigma(poset, Q, rng0)
            else:
                sigma = sigma_builder()
            bracket = from_sigma(sigma)
            rng = random.Random(31)
            for _ in range(20):
                f = random_element(poset, Q, rng)
                g = random_element(poset, Q, rng)
                for lo, hi in poset.intervals():
                    expected = bracket.evaluate(f, g).coeff(lo, hi)
                    restricted = bracket.evaluate(
                        f.restrict(lo, hi), g.restrict(lo, hi)
                    )
                    assert restricted.coeff(lo, hi) == expected


# -- the output-sensitive verifiers against the exhaustive ones ----------------

CHECKS = [
    (check_antisymmetric, reference_bracket.check_antisymmetric),
    (check_biderivation, reference_bracket.check_biderivation),
    (check_jacobi, reference_bracket.check_jacobi),
]
# Z has no denominators to clear and Z/4 has zero divisors
RINGS = [Q, integers_mod(5), INTEGERS, integers_mod(4)]
RING_IDS = ["Q", "Z5", "Z", "Z4"]


def assert_same_reports(bracket):
    """Each verifier reports exactly what the exhaustive reference does:
    the same failures in the same order and the same pass counts."""
    for check, reference in CHECKS:
        got, want = check(bracket), reference(bracket)
        assert got.to_json() == want.to_json(), check.__name__
        assert got.pass_counts == want.pass_counts, check.__name__


@st.composite
def raw_tables(draw, rings=RINGS):
    """A sparse raw table: any ordered pairs, diagonal ones included, no
    mirror implied, values of one to three terms; over Q with mixed
    denominators, so that the verifiers must clear them.  The poset's
    element order need not be a linear extension."""
    poset = draw(shuffled_posets(max_size=5))
    ring = draw(st.sampled_from(rings))
    ivs = poset.intervals()
    index = st.integers(0, len(ivs) - 1)
    denominator = st.sampled_from((1, 2, 3, 4, 6)) if ring == Q else st.just(1)
    table = {}
    for i, j, terms in draw(
        st.lists(
            st.tuples(
                index,
                index,
                st.lists(
                    st.tuples(index, st.integers(-3, 3), denominator),
                    min_size=1,
                    max_size=3,
                ),
            ),
            max_size=8,
        )
    ):
        coeffs = {ivs[k]: ring.scalar(Fraction(c, d)) for k, c, d in terms}
        table[(ivs[i], ivs[j])] = IncidenceElement(poset, ring, coeffs)
    return Bracket.from_basis_table(poset, ring, table, antisymmetric=False)


@st.composite
def corrupted_sigma_tables(draw, rings=RINGS):
    """from_sigma of a random chain-constant sigma with one coefficient of
    one stored value changed: in antisymmetric storage, or in a raw table
    of both orientations, where only one of them changes."""
    poset = draw(shuffled_posets(max_size=5))
    ring = draw(st.sampled_from(rings))
    bracket = from_sigma(random_sigma(poset, ring, random.Random(draw(st.integers(0, 999)))))
    antisymmetric = draw(st.booleans())
    pairs = bracket.stored_pairs() if antisymmetric else raw_table(bracket)
    table = {p: bracket.value(*p) for p in pairs}
    if table:
        pair = draw(st.sampled_from(list(table)))
        target = draw(st.sampled_from(poset.intervals()))
        table[pair] = table[pair] + el(poset, {target: draw(st.integers(1, 4))}, ring)
    return Bracket.from_basis_table(poset, ring, table, antisymmetric=antisymmetric)


class TestAgainstReference:
    @settings(deadline=None, max_examples=150)
    @given(bracket=raw_tables())
    def test_random_raw_tables(self, bracket):
        assert_same_reports(bracket)

    @settings(deadline=None, max_examples=150)
    @given(bracket=corrupted_sigma_tables())
    def test_corrupted_sigma_tables(self, bracket):
        assert_same_reports(bracket)

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    @pytest.mark.parametrize("name,poset", CORPUS, ids=[name for name, _ in CORPUS])
    def test_sigma_tables_on_the_corpus(self, name, poset, ring):
        assert_same_reports(from_sigma(random_sigma(poset, ring, random.Random(7))))

    @pytest.mark.parametrize("name,poset", CORPUS, ids=[name for name, _ in CORPUS])
    def test_fractional_tables_on_the_corpus(self, name, poset):
        # sigma over Q with mixed denominators, then one coefficient moved
        # by 1/3 in raw storage: the checks must clear the denominators
        rng = random.Random(13)
        values = {}
        for cls in poset.chain_components():
            value = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 4, 6)))
            values.update(dict.fromkeys(cls, value))
        bracket = from_sigma(SigmaMap(poset, Q, values))
        assert_same_reports(bracket)
        table = {p: bracket.value(*p) for p in raw_table(bracket)}
        ivs = poset.intervals()
        pair = (rng.choice(ivs), rng.choice(ivs))
        table[pair] = table.get(pair, IncidenceElement.zero(poset, Q)) + el(
            poset, {rng.choice(ivs): Fraction(1, 3)}
        )
        assert_same_reports(Bracket.from_basis_table(poset, Q, table, antisymmetric=False))

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_zero_tables_on_antichains(self, n, ring):
        for antisymmetric in (True, False):
            assert_same_reports(
                Bracket.from_basis_table(antichain(n), ring, {}, antisymmetric=antisymmetric)
            )

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    def test_every_triple_failing(self, ring):
        # one element, B(e11, e11) = e11: no instance passes, so no check
        # gets a pass count
        chain1 = make_chain(1)
        bad = Bracket.from_basis_table(
            chain1, ring, {(("1", "1"), ("1", "1")): el(chain1, {("1", "1"): 1}, ring)},
            antisymmetric=False,
        )
        assert_same_reports(bad)
        for check, _ in CHECKS:
            report = check(bad)
            assert report.failures and not report.pass_counts

    def test_jacobi_of_a_diagonal_triple_counts_three_terms(self):
        # at (e11, e11, e11) all three Jacobi terms are B(e11, B(e11, e11)),
        # so the left side is 3 e11: zero over Z/3, nonzero over Z/5
        chain1 = make_chain(1)
        for ring, ok in ((integers_mod(3), True), (integers_mod(5), False)):
            bracket = Bracket.from_basis_table(
                chain1, ring, {(("1", "1"), ("1", "1")): el(chain1, {("1", "1"): 1}, ring)},
                antisymmetric=False,
            )
            assert_same_reports(bracket)
            assert check_jacobi(bracket).ok is ok


class TestCanonicalTable:
    """The constructor reduces every raw value and drops zero values and the
    pairs they leave empty, so a table that spells a bracket differently is
    the same bracket, with the same values, JSON and verdicts."""

    E11, E13 = Interval("1", "1"), Interval("1", "3")

    @pytest.mark.parametrize("antisymmetric", [False, True], ids=["raw", "antisymmetric"])
    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    def test_stored_zero_is_no_entry(self, ring, antisymmetric):
        table = ranked(CROWN, {(self.E11, self.E13): {self.E13: 0}})
        bracket = Bracket(CROWN, ring, table, antisymmetric_mode=antisymmetric)
        empty = Bracket.from_basis_table(CROWN, ring, {}, antisymmetric=antisymmetric)
        assert not bracket.value(self.E11, self.E13).coeffs
        assert bracket.to_json() == {"pairs": []} and bracket.stored_pairs() == []
        assert check_antisymmetric(bracket).to_json() == check_antisymmetric(empty).to_json()
        assert bracket == empty and hash(bracket) == hash(empty)

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    def test_unreduced_value_is_reduced(self, ring):
        # 2 + m over Z/m, and an int over Q, where the raw value is a Fraction
        raw = 2 + (ring.modulus or 0)
        bracket = Bracket(CROWN, ring, ranked(CROWN, {(self.E11, self.E13): {self.E13: raw}}), False)
        want = Bracket.from_basis_table(
            CROWN, ring, {(self.E11, self.E13): el(CROWN, {("1", "3"): 2}, ring)}, antisymmetric=False
        )
        got = bracket.value(self.E11, self.E13).coeff("1", "3").value
        assert (type(got), got) == (type(ring.scalar(2).value), 2)
        assert bracket.to_json() == want.to_json()
        assert bracket == want and hash(bracket) == hash(want)


# -- Bracket.evaluate against the sum of its values -----------------------------

# -- the loaders against the reference fold -----------------------------------

LOADER_RINGS = [Q, integers_mod(5), INTEGERS]
LOADER_POSETS = [CROWN, CHAIN3, diamond(), fence3()]
# faults the JSON loader and the basis-table loader both meet, then those
# of one of them; the first three are faults in antisymmetric mode only
SHARED_FAULTS = ["disagreeing", "zero_against_mirror", "diagonal", "non_interval_key", "unknown_key_label"]
JSON_FAULTS = ["duplicate_entry", "duplicate_pair", "non_interval_entry", "unknown_entry_label", "bad_scalar"]
VALUE_FAULTS = ["not_an_element", "foreign_poset", "foreign_ring"]
LOAD_ERRORS = (PoissetError, ValueError, TypeError, KeyError)


def scalar_text(value) -> str:
    return f"{value.numerator}/{value.denominator}" if isinstance(value, Fraction) else str(value)


@st.composite
def loader_tables(draw, faults):
    """A bracket table as JSON pairs (left, right, entries) with at most one
    fault, drawn from faults or none.  The pairs hold zero values and zero
    entries, pairs given in one orientation (either), both orientations
    agreeing, and zero diagonals, in random order."""
    poset, ring = draw(st.sampled_from(LOADER_POSETS)), draw(st.sampled_from(LOADER_RINGS))
    ivs = poset.intervals()
    rank = st.integers(0, len(ivs) - 1)
    if ring is Q:
        scalars = st.fractions(-3, 3, max_denominator=3)
    else:
        scalars = st.integers(-6, 6)

    def entries(values: dict) -> list:
        return [{"lo": ivs[k].lo, "hi": ivs[k].hi, "coeff": scalar_text(v)} for k, v in values.items()]

    def pair(i, j, values: dict) -> list:
        return [list(ivs[i]), list(ivs[j]), entries(values)]

    pairs, used = [], set()
    for i, j in draw(st.lists(st.tuples(rank, rank), max_size=6, unique_by=lambda ij: frozenset(ij))):
        used.add(frozenset((i, j)))
        values = draw(st.dictionaries(rank, scalars, max_size=3))
        if i == j:
            values = dict.fromkeys(values, 0)
        pairs.append(pair(i, j, values))
        if i != j and draw(st.booleans()):
            pairs.append(pair(j, i, {k: -v for k, v in values.items()}))
    pairs = draw(st.permutations(pairs))

    fault = draw(st.sampled_from([None, *faults]))
    free = [(i, j) for i in range(len(ivs)) for j in range(len(ivs)) if i != j and frozenset((i, j)) not in used]
    i, j = draw(st.sampled_from(free))
    k = draw(rank)
    nonzero = draw(scalars.filter(lambda v: ring.reduce(v) != 0))
    new: list = []
    if fault == "disagreeing":
        # the mirror's sign, or its support, is wrong
        k2 = draw(rank.filter(lambda r: r != k))
        mirror = draw(st.sampled_from([{k: nonzero}, {k: -nonzero, k2: nonzero}]))
        new = draw(st.permutations([pair(i, j, {k: nonzero}), pair(j, i, mirror)]))
    elif fault == "zero_against_mirror":
        zero = draw(st.sampled_from([{}, {k: 0}]))
        new = draw(st.permutations([pair(i, j, zero), pair(j, i, {k: nonzero})]))
    elif fault == "diagonal":
        diagonals = [r for r in range(len(ivs)) if frozenset((r,)) not in used]
        assume(diagonals)
        d = draw(st.sampled_from(diagonals))
        new = [pair(d, d, {k: nonzero})]
    elif fault in ("non_interval_key", "unknown_key_label"):
        lo, hi = draw(st.sampled_from([(x, y) for x in poset.elements for y in poset.elements if not poset.leq(x, y)]))
        if fault == "unknown_key_label":
            lo = "zz"
        bad = pair(i, j, {k: nonzero})
        bad[draw(st.sampled_from([0, 1]))] = [lo, hi]
        new = [bad]
    elif fault == "duplicate_entry":
        bad = pair(i, j, {k: nonzero})
        bad[2].append(dict(bad[2][0], coeff=scalar_text(-nonzero)))
        new = [bad]
    elif fault == "duplicate_pair":
        new = [pair(i, j, {k: nonzero}), pair(i, j, draw(st.dictionaries(rank, scalars, max_size=2)))]
    elif fault in ("non_interval_entry", "unknown_entry_label", "bad_scalar"):
        bad = pair(i, j, {k: nonzero})
        hi, lo = draw(st.sampled_from([iv for iv in ivs if iv.lo != iv.hi]))
        if fault == "non_interval_entry":
            bad[2].append({"lo": lo, "hi": hi, "coeff": "1"})
        elif fault == "unknown_entry_label":
            bad[2].append({"lo": lo, "hi": "zz", "coeff": "1"})
        else:
            bad[2][0]["coeff"] = draw(st.sampled_from(["x", "1/0", "1.5", 2]))
        new = [bad]
    elif fault in VALUE_FAULTS:
        new = [pair(i, j, {k: nonzero}) + [fault]]
    for p in new:
        pairs.insert(draw(st.integers(0, len(pairs))), p)
    return poset, ring, pairs


def as_json(pairs) -> dict:
    return {
        "pairs": [
            {"left": {"lo": l[0], "hi": l[1]}, "right": {"lo": r[0], "hi": r[1]}, "value": v}
            for l, r, v, *_ in pairs
        ]
    }


def as_basis_table(poset, ring, pairs) -> dict:
    """The JSON pairs as {(left, right): value}, a value fault applied."""
    entries = {}
    for left, right, value, *fault in pairs:
        el = reference_bracket.element_from_json(poset, {"entries": value}, ring)
        if fault == ["not_an_element"]:
            el = value
        elif fault == ["foreign_poset"]:
            el = IncidenceElement.zero(make_chain(2), ring)
        elif fault == ["foreign_ring"]:
            el = IncidenceElement.zero(poset, integers_mod(7))
        entries[tuple(left), tuple(right)] = el
    return entries


def load_outcome(load, *args):
    """A loaded bracket as everything it shows, or the error's type and text."""
    try:
        bracket = load(*args)
    except LOAD_ERRORS as exc:
        return type(exc), str(exc)
    return bracket, bracket.to_json(), bracket.stored_pairs(), repr(bracket), hash(bracket)


class TestLoadersAgainstReference:
    """Bracket.from_json and from_basis_table against the reference loaders,
    which build one element per pair and fold the orientations themselves:
    every table with at most one fault gives an equal bracket, or the same
    error type and message."""

    @settings(max_examples=300, deadline=None)
    @given(table=loader_tables(SHARED_FAULTS + JSON_FAULTS), antisymmetric=st.booleans())
    def test_from_json(self, table, antisymmetric):
        poset, ring, pairs = table
        data = as_json(pairs)
        assert load_outcome(Bracket.from_json, poset, ring, data, antisymmetric) == load_outcome(
            reference_bracket.bracket_from_json, poset, ring, data, antisymmetric
        )

    @settings(max_examples=200, deadline=None)
    @given(table=loader_tables(SHARED_FAULTS + VALUE_FAULTS), antisymmetric=st.booleans())
    def test_from_basis_table(self, table, antisymmetric):
        poset, ring, pairs = table
        entries = as_basis_table(poset, ring, pairs)
        assert load_outcome(Bracket.from_basis_table, poset, ring, entries, antisymmetric) == load_outcome(
            reference_bracket.from_basis_table, poset, ring, entries, antisymmetric
        )

    @settings(max_examples=100, deadline=None)
    @given(table=loader_tables([]))
    def test_element_from_json(self, table):
        poset, ring, pairs = table
        for _, _, value in pairs:
            data = {"ring": ring.to_json(), "entries": value}
            got, want = IncidenceElement.from_json(poset, data), reference_bracket.element_from_json(poset, data)
            assert (got, got.to_json(), repr(got)) == (want, want.to_json(), repr(want))


EVALUATE_RINGS = [Q, INTEGERS, integers_mod(4), integers_mod(7)]


class TestEvaluateAgainstReference:
    """evaluate sums on the scaled ints of its arguments and of the table;
    the reference sums f(i) g(j) B(e_i, e_j) through Bracket.value and
    element arithmetic.  Over Q the arguments have denominators 1 to 6."""

    @pytest.mark.parametrize("kind", ["raw", "antisymmetric"])
    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_same_element_as_the_sum_of_values(self, kind, data):
        tables = raw_tables if kind == "raw" else antisymmetric_tables
        bracket = data.draw(tables(EVALUATE_RINGS))
        f = data.draw(ring_elements(bracket.poset, bracket.ring))
        g = data.draw(ring_elements(bracket.poset, bracket.ring))
        got = bracket.evaluate(f, g)
        want = reference_bracket.evaluate(bracket, f, g)
        assert got == want
        assert [(iv, type(c.value)) for iv, c in sorted(got.coeffs.items())] == [
            (iv, type(c.value)) for iv, c in sorted(want.coeffs.items())
        ]


# -- the output-sensitive lemma suite against the exhaustive one ---------------

# Z/4 has zero divisors: a product of two nonzero coefficients can vanish
LEMMA_RINGS = [Q, integers_mod(5), integers_mod(4)]
LEMMA_SAMPLES = (0, 1, 3)


def assert_same_lemma_reports(bracket, samples, seed=0):
    """lemma_suite reports exactly what the exhaustive reference does, from
    the same random draws: the same failures in the same order and the
    same pass counts."""
    got = lemma_suite(bracket, samples=samples, seed=seed)
    want = reference_bracket.lemma_suite(bracket, samples=samples, seed=seed)
    assert got.failures == want.failures
    assert got.pass_counts == want.pass_counts
    assert got.to_json() == want.to_json()


@st.composite
def sigma_tables(draw, rings=LEMMA_RINGS):
    poset = draw(shuffled_posets(max_size=5))
    ring = draw(st.sampled_from(rings))
    return from_sigma(random_sigma(poset, ring, random.Random(draw(st.integers(0, 999)))))


def chained_raw_table(poset, ring, rng):
    """A raw table of up to ten values of one to three terms, half of them
    at pairs e_ef, e_fg or e_ef, e_ge that the chaining lemmas read."""
    ivs = poset.intervals()
    table = {}
    for _ in range(rng.randint(1, 10)):
        i = rng.choice(ivs)
        if rng.random() < 0.5:
            j = rng.choice(ivs)
        else:
            j = rng.choice([j for j in ivs if i.hi == j.lo or j.hi == i.lo])
        terms = {rng.choice(ivs): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))}
        table[(i, j)] = el(poset, terms, ring)
    return Bracket.from_basis_table(poset, ring, table, antisymmetric=False)


def small_raw_tables():
    """The one-element poset and the 3-element antichain with raw tables
    that fail orthogonality, exchange and transport: B(e_x, e_x) = e_x,
    B(e_1, e_2) = e_3 and B(e_2, e_1) = 2 e_1 - e_2; and the 2-chain with
    B(e_12, e_12) = e_12, which passes corner support, and = e_12 + e_11,
    which fails it."""
    out = []
    for ring in LEMMA_RINGS:
        chain2 = make_chain(2)
        for value in ({("1", "2"): 1}, {("1", "2"): 1, ("1", "1"): 1}):
            out.append(
                Bracket.from_basis_table(
                    chain2,
                    ring,
                    {(("1", "2"), ("1", "2")): el(chain2, value, ring)},
                    antisymmetric=False,
                )
            )
        chain1 = make_chain(1)
        out.append(
            Bracket.from_basis_table(
                chain1,
                ring,
                {(("1", "1"), ("1", "1")): el(chain1, {("1", "1"): 1}, ring)},
                antisymmetric=False,
            )
        )
        anti = antichain(3)
        out.append(
            Bracket.from_basis_table(
                anti,
                ring,
                {
                    (("1", "1"), ("1", "1")): el(anti, {("1", "1"): 1}, ring),
                    (("1", "1"), ("2", "2")): el(anti, {("3", "3"): 1}, ring),
                    (("2", "2"), ("1", "1")): el(anti, {("1", "1"): 2, ("2", "2"): -1}, ring),
                },
                antisymmetric=False,
            )
        )
        out.append(Bracket.from_basis_table(anti, ring, {}))
    return out


class TestLemmaSuiteAgainstReference:
    @settings(deadline=None, max_examples=150)
    @given(
        bracket=raw_tables(rings=LEMMA_RINGS),
        samples=st.sampled_from(LEMMA_SAMPLES),
        seed=st.integers(0, 99),
    )
    def test_random_raw_tables(self, bracket, samples, seed):
        assert_same_lemma_reports(bracket, samples, seed)

    @settings(deadline=None, max_examples=100)
    @given(
        bracket=corrupted_sigma_tables(rings=LEMMA_RINGS),
        samples=st.sampled_from(LEMMA_SAMPLES),
        seed=st.integers(0, 99),
    )
    def test_corrupted_sigma_tables(self, bracket, samples, seed):
        assert_same_lemma_reports(bracket, samples, seed)

    @settings(deadline=None, max_examples=60)
    @given(bracket=sigma_tables(), samples=st.sampled_from(LEMMA_SAMPLES))
    def test_sigma_tables(self, bracket, samples):
        assert_same_lemma_reports(bracket, samples)

    @pytest.mark.parametrize("ring", LEMMA_RINGS, ids=["Q", "Z5", "Z4"])
    @pytest.mark.parametrize("name,poset", CORPUS, ids=[name for name, _ in CORPUS])
    def test_corpus(self, name, poset, ring):
        rng = random.Random(11)
        bracket = from_sigma(random_sigma(poset, ring, rng))
        # the same table with one coefficient changed, in raw storage
        corrupted = {p: bracket.value(*p) for p in raw_table(bracket)}
        ivs = poset.intervals()
        pair = (rng.choice(ivs), rng.choice(ivs))
        corrupted[pair] = corrupted.get(pair, IncidenceElement.zero(poset, ring)) + el(
            poset, {rng.choice(ivs): 1}, ring
        )
        brackets = [bracket, Bracket.from_basis_table(poset, ring, corrupted, antisymmetric=False)]
        brackets += [chained_raw_table(poset, ring, rng) for _ in range(3)]
        for samples in LEMMA_SAMPLES:
            for b in brackets:
                assert_same_lemma_reports(b, samples, seed=samples)

    @pytest.mark.parametrize("samples", LEMMA_SAMPLES)
    def test_one_element_and_antichain(self, samples):
        for bracket in small_raw_tables():
            assert_same_lemma_reports(bracket, samples, seed=samples)

    def test_every_lemma_fails_somewhere(self):
        # the corpus, corrupted: each check of the suite has a failing
        # instance, so a candidate source left out would show above
        seen = set()
        for bracket in small_raw_tables():
            seen.update(check for check, _ in lemma_suite(bracket, samples=3).failures)
        rng = random.Random(4)
        for ring in LEMMA_RINGS:
            for _, poset in CORPUS:
                ivs = poset.intervals()
                table = {
                    (rng.choice(ivs), rng.choice(ivs)): el(poset, {rng.choice(ivs): 1}, ring)
                    for _ in range(6)
                }
                bracket = Bracket.from_basis_table(poset, ring, table, antisymmetric=False)
                seen.update(check for check, _ in lemma_suite(bracket, samples=3).failures)
        assert seen == {
            "orthogonal_vanishing",
            "sandwich_transport",
            "endpoint_exchange",
            "forward_chaining",
            "backward_chaining",
            "corner_support",
        }


class TestIsStandardAgainstReference:
    @settings(deadline=None, max_examples=150)
    @given(
        poset=posets(max_size=7),
        ring=st.sampled_from(RINGS),
        values=st.lists(st.integers(0, 2), min_size=40, max_size=40),
    )
    def test_witness_unchanged(self, poset, ring, values):
        # small values, so that both outcomes come up: a sigma constant on
        # each connected component, or one that is not
        sigma = SigmaMap(
            poset,
            ring,
            {pair: values[k] for k, cls in enumerate(poset.chain_components()) for pair in cls},
        )
        bracket = from_sigma(sigma)
        assert is_standard(bracket, check=False) == reference_bracket.is_standard(
            bracket, check=False
        )


# -- the one-pass gate and the raw sigma read against their references --------


@st.composite
def bench_corrupted_tables(draw, rings=RINGS):
    """A from_sigma table in raw storage, both orientations, with one
    coefficient added: B(e_i, e_j) gains e_xx for a stored pair whose left
    interval i = [x, y] is strict, as the bench's corrupted tables do."""
    bracket = draw(sigma_tables(rings))
    poset, ring = bracket.poset, bracket.ring
    table = {p: bracket.value(*p) for p in raw_table(bracket)}
    strict = [p for p in table if p[0].lo != p[0].hi]
    if strict:
        pair = draw(st.sampled_from(strict))
        table[pair] = table[pair] + el(poset, {(pair[0].lo, pair[0].lo): 1}, ring)
    return Bracket.from_basis_table(poset, ring, table, antisymmetric=False)


TABLE_KINDS = {
    "sigma": sigma_tables(RINGS),
    "antisymmetric": antisymmetric_tables(RINGS),
    "raw": raw_tables(),
    "bench_corrupted": bench_corrupted_tables(),
}


def gate_verdict(require, bracket):
    """The message of the NotABiderivation that require raises, or None."""
    try:
        require(bracket)
    except NotABiderivation as exc:
        return str(exc)
    return None


def raw_sigma(sigma):
    """Each value of a sigma map with the type of its raw ring value."""
    return [(pair, type(v.value), v.value) for pair, v in sigma.values.items()]


@st.composite
def perturbed_tables(draw, rings):
    """A from_sigma table with c e_k added to one B(e_i, e_j), i before j,
    and so -c e_k to its mirror, at any pair and any target: antisymmetric,
    and most often no longer a biderivation."""
    bracket = draw(sigma_tables(rings))
    poset, ring = bracket.poset, bracket.ring
    ivs = poset.intervals()
    table = {p: bracket.value(*p) for p in bracket.stored_pairs()}
    if len(ivs) > 1:
        i, j = sorted(draw(st.lists(st.sampled_from(ivs), min_size=2, max_size=2, unique=True)), key=ivs.index)
        k, c = draw(st.sampled_from(ivs)), draw(st.integers(1, 6))
        table[i, j] = table.get((i, j), IncidenceElement.zero(poset, ring)) + el(poset, {k: c}, ring)
    return Bracket.from_basis_table(poset, ring, table)


# Z has no denominators, Z/2 reads -1 as 1, Z/4 has zero divisors
GATE_RINGS = [Q, INTEGERS, integers_mod(2), integers_mod(4), integers_mod(7)]
GATE_TABLES = {
    "sigma": sigma_tables(GATE_RINGS),
    "perturbed": perturbed_tables(GATE_RINGS),
    "sparse": antisymmetric_tables(GATE_RINGS),
}


class TestOnePassGate:
    """_require_biderivation, once antisymmetry holds, sums the residuals
    R(a, b) of the first Leibniz identity over the family H alone; it must
    raise exactly when the exhaustive checks report a failure, with the
    same message, and exactly when the full kernel finds a failing triple.
    Every table strategy lists the poset's elements in an order that need
    not be a linear extension, so that an e_yy need not rank first among
    the intervals that start at y."""

    @pytest.mark.parametrize("kind", list(TABLE_KINDS))
    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_same_verdict_as_the_exhaustive_checks(self, kind, data):
        bracket = data.draw(TABLE_KINDS[kind])
        got = gate_verdict(poisset.bracket._require_biderivation, bracket)
        assert got == gate_verdict(reference_bracket.require_biderivation, bracket)

    @pytest.mark.parametrize("kind", list(GATE_TABLES))
    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_same_verdict_as_the_full_kernel(self, kind, data):
        bracket = data.draw(GATE_TABLES[kind])
        full = bracket.poset.leibniz_index().full
        lines = poisset.bracket._lines(bracket._table, 1)
        failures = poisset.bracket._leibniz_failures(lines, full, bracket.ring.reduce)
        want = "bracket violates a Leibniz identity" if failures else None
        assert gate_verdict(poisset.bracket._require_biderivation, bracket) == want

    def test_each_verdict_comes_up(self):
        sigma = from_sigma(crown_sigma(1, 2, 3, 4))
        half = Bracket.from_basis_table(
            CROWN, Q, {(("1", "1"), ("1", "3")): el(CROWN, {("1", "3"): 1})},
            antisymmetric=False,
        )
        leibniz = Bracket.from_basis_table(
            CROWN, Q, {(("1", "1"), ("2", "2")): el(CROWN, {("1", "3"): 1})}
        )
        for bracket, want in (
            (sigma, None),
            (half, "bracket is not antisymmetric"),
            (leibniz, "bracket violates a Leibniz identity"),
        ):
            assert gate_verdict(poisset.bracket._require_biderivation, bracket) == want
            assert gate_verdict(reference_bracket.require_biderivation, bracket) == want


class TestLeibnizFamily:
    """The proof of the Leibniz family in poisset.bracket, checked on every
    poset of up to 5 elements: the coefficient rows of the R(a, b) of H
    span those of every pair, as linear forms in the values of D, over
    Z/2, Z/3 and Z/1000003."""

    @staticmethod
    def family(poset, covers_only=False):
        covers, products = set(poset.covers), reference_bracket._basis_products(poset)

        def keep(a, b):
            cover, idempotent = (a.lo, a.hi) in covers, a.lo == a.hi and not covers_only
            if (a, b) not in products:
                return cover or idempotent
            return cover and b.lo != b.hi or idempotent and a == b

        return keep

    @pytest.mark.parametrize("p", [2, 3, 1000003])
    def test_generators_span_every_row(self, p):
        for n in range(1, 6):
            for poset in natural_posets(n):
                every = reference_bracket.leibniz_rows(poset, lambda a, b: True)
                kept = reference_bracket.leibniz_rows(poset, self.family(poset))
                assert reference_bracket.rank_mod(kept, p) == reference_bracket.rank_mod(every, p), poset

    def test_covers_alone_fall_short(self):
        # the test has teeth: without the e_xx the rows span less
        for poset in (make_chain(1), make_chain(3), CROWN):
            every = reference_bracket.leibniz_rows(poset, lambda a, b: True)
            kept = reference_bracket.leibniz_rows(poset, self.family(poset, covers_only=True))
            assert reference_bracket.rank_mod(kept, 3) < reference_bracket.rank_mod(every, 3)


class TestRawSigmaRead:
    """extract_sigma reads sigma off the raw table; the reference reads it
    through Bracket.value and IncidenceElement.coeff."""

    @pytest.mark.parametrize("kind", ["antisymmetric", "raw", "bench_corrupted"])
    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_same_values_as_the_wrapped_read(self, kind, data):
        bracket = data.draw(TABLE_KINDS[kind])
        got = extract_sigma(bracket, check=False)
        want = reference_bracket.extract_sigma(bracket, check=False)
        assert raw_sigma(got) == raw_sigma(want)
        assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    def test_stored_zero_and_off_target_values(self, ring):
        # a raw table as a caller may build it: a stored zero at sigma's
        # target, off-target and diagonal terms, a diagonal pair
        e = {iv: Interval(*iv) for iv in CROWN.intervals()}
        table = {
            (e["1", "1"], e["1", "3"]): {e["1", "3"]: 0, e["1", "1"]: 2},
            (e["1", "1"], e["1", "4"]): {e["1", "4"]: 3, e["2", "4"]: 1},
            (e["2", "2"], e["2", "2"]): {e["2", "3"]: 1},
            (e["2", "2"], e["2", "3"]): {e["1", "3"]: 1},
        }
        bracket = Bracket(CROWN, ring, ranked(CROWN, table), antisymmetric_mode=False)
        got = extract_sigma(bracket, check=False)
        assert raw_sigma(got) == raw_sigma(reference_bracket.extract_sigma(bracket, check=False))
        assert got.value("1", "4").value == 3 and got.value("2", "3").is_zero()


def lambda_outcome(extract, bracket):
    """The ratios extract reads, each with the type of its raw ring value,
    or the message of the NotProportional it raises."""
    try:
        lam = extract(bracket, check=False)
    except NotProportional as exc:
        return str(exc)
    return [(pair, v.ring, type(v.value), v.value) for pair, v in lam.items()]


class TestRawLambdaRead:
    """extract_lambda reads each ratio off the stored table; the reference
    reads it through Bracket.value and IncidenceElement.coeff."""

    @pytest.mark.parametrize("kind", list(TABLE_KINDS))
    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_same_ratios_as_the_wrapped_read(self, kind, data):
        bracket = data.draw(TABLE_KINDS[kind])
        got = lambda_outcome(extract_lambda, bracket)
        assert got == lambda_outcome(reference_bracket.extract_lambda, bracket)

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    def test_each_outcome_comes_up(self, ring):
        # a sigma table, a raw table with a stored ratio and an unstored
        # one, and a raw table with a term outside its commutator
        sigma = SigmaMap(CROWN, ring, dict(zip(CROWN.strict_pairs(), (1, 2, 0, 3))))
        e = {iv: Interval(*iv) for iv in CROWN.intervals()}
        zero_ratio = {(e["1", "1"], e["1", "3"]): {e["1", "3"]: 3}}
        off_target = {(e["1", "1"], e["1", "3"]): {e["1", "3"]: 3, e["2", "4"]: 1}}
        brackets = [from_sigma(sigma)] + [
            Bracket(CROWN, ring, ranked(CROWN, table), antisymmetric_mode=False)
            for table in (zero_ratio, off_target)
        ]
        outcomes = [lambda_outcome(extract_lambda, bracket) for bracket in brackets]
        for bracket, got in zip(brackets, outcomes):
            assert got == lambda_outcome(reference_bracket.extract_lambda, bracket)
        assert isinstance(outcomes[2], str)
        ratios = {pair: value for pair, _, _, value in outcomes[1]}
        assert ratios[e["1", "1"], e["1", "3"]] == 3
        assert ratios[e["1", "3"], e["1", "1"]] == 0
