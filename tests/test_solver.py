"""Brute-force linear solver vs the chain-component parametrization.

The solver knows nothing about chain components: it solves the Leibniz
identity over the unknown table entries, whose rows all read x_p = +-x_q,
with a signed union-find.  Its solution space
must then coincide with the span of the component indicator brackets --
that agreement is the point of the whole construction, so these tests
treat any mismatch as a hard failure.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CORPUS,
    antichain,
    boolean_lattice,
    corpus_params,
    crown_plus_chain3,
    diamond,
    fence3,
    natural_posets,
    posets,
    random_sigma,
)
from poisset import (
    INTEGERS,
    RATIONALS,
    Bracket,
    Interval,
    LinearSystem,
    Poset,
    SigmaMap,
    build_system,
    check_antisymmetric,
    check_biderivation,
    check_jacobi,
    classify,
    extract_sigma,
    from_sigma,
    integers_mod,
    is_standard,
    make_chain,
    make_crown,
    nullspace,
)
from poisset import solver
from poisset.errors import BijectionViolation, NotABiderivation, NotAField
from poisset.solver import SolutionBasis
import reference_solver
from reference_bracket import ranked, raw_table
from reference_solver import (
    bracket_to_vector,
    full_stream_build_system,
    idempotent_rows,
    reference_build_system,
    reference_nullspace,
)

Q = RATIONALS

# dimension = number of chain components, worked out by hand per poset
EXPECTED_DIMENSION = {
    "chain1": 0,
    "chain2": 1,
    "chain3": 1,
    "chain4": 1,
    "chain5": 1,
    "antichain1": 0,
    "antichain2": 0,
    "antichain3": 0,
    "crown": 4,
    "diamond": 1,
    "fence3": 2,
    "bool2": 1,
    "bool3": 1,
    "crown+chain3": 5,
}


class TestSystemShape:
    def test_unknown_counts(self):
        # C(N, 2) table pairs, N coefficients each, N = #intervals
        assert build_system(make_chain(2), Q).num_unknowns == 9  # N = 3
        assert build_system(make_crown(), Q).num_unknowns == 224  # N = 8
        assert build_system(diamond(), Q).num_unknowns == 324  # N = 9

    def test_ranks(self):
        assert build_system(make_chain(2), Q).rank == 8
        assert build_system(make_crown(), Q).rank == 220

    def test_requires_a_field(self):
        with pytest.raises(NotAField):
            LinearSystem(make_chain(2), INTEGERS)
        with pytest.raises(NotAField):
            build_system(make_chain(2), integers_mod(4))
        with pytest.raises(NotAField):
            classify(make_chain(2), INTEGERS)


def assert_settled(system):
    # the forest holds only live columns, dead marks only roots, the sizes
    # kept at roots are the class sizes, and the rank counts the unit rows
    # of the non-live columns and every column of a live class but one
    live = system.live
    assert all(c in live and p in live for c, (p, _) in system.up.items())
    classes = system.classes()
    assert system.dead <= classes.keys()
    for root, members in classes.items():
        assert len(members) == system.size.get(root, 1)
    balanced = sum(root not in system.dead for root in classes)
    assert system.rank == system.num_unknowns - balanced


def unit_columns(system):
    """The pivots of an EchelonSystem whose row is a unit row once the
    system is reduced."""
    system.back_substitute()
    return {col for col, row in system.rows.items() if len(row) == 1}


def zero_set(system):
    """The columns a LinearSystem holds at zero: non-live, or in a dead class."""
    non_live = set(range(system.num_unknowns)).difference(system.live)
    classes = system.classes()
    return non_live.union(*({c for c, _ in classes[root]} for root in system.dead))


def assert_same_solution_space(poset, ring):
    system = build_system(poset, ring)
    reference = reference_build_system(poset, ring)
    assert system.num_unknowns == reference.num_unknowns
    assert system.rank == reference.rank
    assert_settled(system)
    basis = nullspace(system)
    expected = reference_nullspace(reference)
    assert basis.free_columns == expected.free_columns
    assert basis.vectors == expected.vectors


class TestAgainstReference:
    """The solver streams one identity into a signed union-find; the
    reference streams both and keeps its rows fully reduced.  Reduced row
    echelon form is unique, and the solver's basis is the one it gives, so
    the two must agree column for column."""

    # Z/2 is the one field where -1 = 1, so the signs that antisymmetry
    # puts on the unknowns drop out
    @pytest.mark.parametrize(
        "ring", [Q, integers_mod(3), integers_mod(2)], ids=["Q", "Z3", "Z2"]
    )
    @pytest.mark.parametrize(
        "name,poset", CORPUS, ids=[name for name, _ in CORPUS]
    )
    def test_corpus(self, name, poset, ring):
        assert_same_solution_space(poset, ring)

    @settings(deadline=None)
    @given(p=posets(max_size=5))
    def test_random_posets(self, p):
        for ring in (Q, integers_mod(3), integers_mod(2)):
            assert_same_solution_space(p, ring)

    def test_one_identity_streams_half_the_rows(self):
        for ring in (Q, integers_mod(3)):
            streamed = full_stream_build_system(make_crown(), ring).rows_streamed
            reference = reference_build_system(make_crown(), ring).rows_streamed
            assert 2 * streamed == reference

    def test_nullspace_twice_gives_the_same_basis(self):
        system = build_system(fence3(), Q)
        first = nullspace(system)
        second = nullspace(system)
        assert first.free_columns == second.free_columns
        assert first.vectors == second.vectors

    def test_unit_pivots_keep_integer_rows(self):
        # over Q every relation the forest keeps is x_c = +-x_p with an int
        # sign, and so is every value of a basis vector: no Fraction arithmetic
        system = build_system(make_chain(3), Q)
        (vector,) = nullspace(system).vectors
        signs = [s for _, s in system.up.values()]
        assert signs and all(type(s) is int and s in (1, -1) for s in signs)
        values = [c.value for i, j in vector.stored_pairs() for c in vector.value(i, j).coeffs.values()]
        assert values and all(v in (1, -1) and v.denominator == 1 for v in values)


def assert_same_as_full_stream(poset, ring):
    system = build_system(poset, ring)
    full = full_stream_build_system(poset, ring)
    assert system.num_unknowns == full.num_unknowns
    assert zero_set(system) == unit_columns(full)
    assert system.rank == full.rank
    assert_settled(system)
    basis, expected = nullspace(system), reference_nullspace(full)
    assert basis.free_columns == expected.free_columns
    assert basis.vectors == expected.vectors
    dropped = next(
        (col for col in range(system.num_unknowns) if col not in system.live), None
    )
    if dropped is not None:
        assert not reference_solver.satisfied_by(system, {dropped: 1})
        assert reference_solver.satisfied_by(system, {dropped: 0})
    # the full stream keeps every column live and holds its zeros as unit rows
    unit = min(unit_columns(full), default=None)
    if unit is not None:
        assert not full.satisfied_by({unit: 1})
        assert full.satisfied_by({unit: 0})


class TestAgainstFullStream:
    """build_system streams only the rows that meet a live column; the
    stream of every triple must give the same zeros, rank, free columns
    and basis."""

    @pytest.mark.parametrize(
        "ring", [Q, integers_mod(3), integers_mod(2)], ids=["Q", "Z3", "Z2"]
    )
    @pytest.mark.parametrize(
        "name,poset", CORPUS, ids=[name for name, _ in CORPUS]
    )
    def test_corpus(self, name, poset, ring):
        assert_same_as_full_stream(poset, ring)

    @settings(deadline=None)
    @given(p=posets(max_size=5))
    def test_random_posets(self, p):
        for ring in (Q, integers_mod(3), integers_mod(2)):
            assert_same_as_full_stream(p, ring)


class TestCensus:
    """Every naturally labelled poset of up to 5 elements: build_system,
    which builds only rule 3's factor rows, against the full stream."""

    def test_counts(self):
        # OEIS A006455
        counts = [sum(1 for _ in natural_posets(n)) for n in range(1, 7)]
        assert counts == [1, 2, 7, 40, 357, 4824]

    @pytest.mark.parametrize(
        "ring", [Q, integers_mod(3), integers_mod(2)], ids=["Q", "Z3", "Z2"]
    )
    def test_against_full_stream(self, ring):
        for n in range(1, 6):
            for poset in natural_posets(n):
                assert_same_as_full_stream(poset, ring)


def meets(i, t):
    return t.lo == i.lo or t.hi == i.hi


def rule_one_live(system):
    """The columns B(e_i, e_j)(e_t) with t meeting an endpoint of i and
    one of j: those that rule 1 of the solver's module docstring keeps."""
    intervals = system.intervals
    for a, i in enumerate(intervals):
        for b in range(a + 1, len(intervals)):
            j = intervals[b]
            for r, t in enumerate(intervals):
                if meets(i, t) and meets(j, t):
                    yield system.column(a, b, r)[0]


def assert_rule_one_row(system, rows, i, j, t):
    """B(e_i, e_j)(e_t), t meeting no endpoint of i or none of j, is the one
    entry of the row of (e_xx, e_i, e_j) at t, x = t.lo, if t starts at no
    endpoint of i and ends at none; else of the row of (e_xx, e_j, e_i)."""
    rank = system.poset.basis_products().rank
    col, _ = system.column(rank[i], rank[j], rank[t])
    first, second = (i, j) if t.lo != i.lo and t.hi != i.hi else (j, i)
    assert t.lo != first.lo and t.hi != first.hi
    assert list(rows[Interval(t.lo, t.lo), first, second, t]) == [col]


def assert_transported_to_zero(system, rows, i, j, t):
    """Follow the transport rows from B(e_i, e_j)(e_t), a column rule 1
    keeps and rule 2 drops, to a single-entry row, asserting the entries of
    each row on the way."""
    poset, ring = system.poset, system.ring
    rank = poset.basis_products().rank

    def entry(i, j, t, value):
        col, sign = system.column(rank[i], rank[j], rank[t])
        return col, sign * value if ring.kind == "Q" else sign * value % ring.modulus

    for _ in range(3):
        if not (meets(i, t) and meets(j, t)):
            assert_rule_one_row(system, rows, i, j, t)
            return
        # a strict argument meeting t at one end only moves onto an
        # idempotent; B(e_i, e_j) = -B(e_j, e_i) lets j take i's place
        if i.lo != i.hi and i != t:
            moving, other = i, j
        elif j.lo != j.hi and j != t:
            moving, other = j, i
        else:
            # the base row: two idempotents at the ends of t
            assert i.lo == i.hi and j.lo == j.hi and t.lo != t.hi
            zz, ww = Interval(t.lo, t.lo), Interval(t.hi, t.hi)
            assert {i, j} == {zz, ww}
            assert rows[zz, ww, ww, t] == dict([entry(zz, ww, t, -1)])
            return
        if moving.lo == t.lo:  # the row of (e_i, e_yy, e_j) at t
            y = Interval(moving.hi, moving.hi)
            key, i, t2 = (moving, y, other, t), y, (moving.hi, t.hi)
        else:  # the row of (e_xx, e_i, e_j) at t
            x = Interval(moving.lo, moving.lo)
            key, i, t2 = (x, moving, other, t), x, (t.lo, moving.lo)
        expected = dict([entry(moving, other, t, 1)])
        if not poset.is_interval(*t2):
            assert rows[key] == expected
            return
        j, t = other, Interval(*t2)
        expected.update([entry(i, j, t, -1)])
        assert rows[key] == expected
    pytest.fail("more than two transports")


def assert_non_live_columns_are_named_rows(poset, ring):
    """Exactly the columns B(e_i, e_j)(e_t) with e_t = e_i e_j or e_j e_i
    are live.  Each other column, i before j, is zero by the named rows:
    the single-entry row of rule 1 if it drops the column, else the chain
    of transport rows of rule 2."""
    system = build_system(poset, ring)
    rows = idempotent_rows(poset, ring)
    product = poset.basis_products().product
    intervals = system.intervals
    n = len(intervals)
    dropped = 0
    for a, i in enumerate(intervals):
        for b in range(a + 1, n):
            j = intervals[b]
            for r, t in enumerate(intervals):
                col, _ = system.column(a, b, r)
                live = r in (product.get((a, b)), product.get((b, a)))
                assert (col in system.live) == live
                if live:
                    continue
                dropped += 1
                if meets(i, t) and meets(j, t):
                    assert_transported_to_zero(system, rows, i, j, t)
                else:
                    assert_rule_one_row(system, rows, i, j, t)
    assert dropped == system.num_unknowns - len(system.live)


class TestLiveColumns:
    """The rules behind the live set, checked on rows streamed by the
    reference from the triples (a, b, c) with an idempotent a or b."""

    @pytest.mark.parametrize("ring", [Q, integers_mod(2)], ids=["Q", "Z2"])
    @pytest.mark.parametrize(
        "name,poset", CORPUS, ids=[name for name, _ in CORPUS]
    )
    def test_corpus(self, name, poset, ring):
        assert_non_live_columns_are_named_rows(poset, ring)

    @settings(deadline=None)
    @given(p=posets(max_size=5))
    def test_random_posets(self, p):
        for ring in (Q, integers_mod(2)):
            assert_non_live_columns_are_named_rows(p, ring)


class TestPresolve:
    """The rows each build streams, and the rows the live build absorbs."""

    @pytest.mark.parametrize(
        "poset,ring,full,live",
        [
            (make_chain(8), Q, (22_680, 390_292, 22_679), (22_680, 22_946, 22_679)),
            (make_crown(), integers_mod(2), (224, 1_460, 220), (224, 220, 220)),
        ],
        ids=["chain8-Q", "crown-Z2"],
    )
    def test_counts(self, poset, ring, full, live):
        # unknowns, streamed rows and rank: of the full stream, and of the
        # live-column build, whose rows_streamed counts one named row per
        # non-live column and the nonzero rows it builds, rule 3's only
        for build, counts in ((full_stream_build_system, full), (build_system, live)):
            system = build(poset, ring)
            assert (system.num_unknowns, system.rows_streamed, system.rank) == counts

    def test_only_rows_with_two_live_entries_are_absorbed(self, monkeypatch):
        # every row built reaches the union step: the live build streams no
        # single-entry row and no entry off the live columns
        joined = []
        join = LinearSystem.join

        def spy(system, p, q, s):
            assert p != q and p in system.live and q in system.live
            assert s in (1, -1)
            joined.append((p, q))
            return join(system, p, q, s)

        def unit_row(system, p):
            pytest.fail(f"single-entry row on column {p}")

        monkeypatch.setattr(LinearSystem, "join", spy)
        monkeypatch.setattr(LinearSystem, "kill", unit_row)
        for _, poset in CORPUS:
            for ring in (Q, integers_mod(2)):
                joined.clear()
                system = build_system(poset, ring)
                non_live = system.num_unknowns - len(system.live)
                assert len(joined) == system.rows_streamed - non_live
                assert bool(joined) == bool(system.live)


class TestSignedUnionFind:
    """The union step on hand-made rows, on the 9 columns of the 2-chain's
    system before build_system narrows them, all live; the rows here touch
    columns 0..3 only."""

    @staticmethod
    def system(ring):
        system = LinearSystem(make_chain(2), ring)
        assert system.rank == 0 and len(system.live) == system.num_unknowns == 9
        return system

    @pytest.mark.parametrize(
        "ring,dead", [(Q, True), (integers_mod(3), True), (integers_mod(2), False)],
        ids=["Q", "Z3", "Z2"],
    )
    def test_odd_signed_cycle(self, ring, dead):
        # x0 = x1, x1 = x2, x2 = -x0: x0 = -x0, zero unless -1 = 1
        system = self.system(ring)
        system.take((0, 1), (1, 1), None)
        system.take((1, 1), None, (2, 1))
        assert system.rank == 2 and not system.dead
        system.take((2, 1), (0, -1), None)
        assert bool(system.dead) == dead
        assert system.rank == (3 if dead else 2)
        assert reference_solver.satisfied_by(system, {0: 1, 1: 1, 2: 1}) == (not dead)
        assert reference_solver.satisfied_by(system, {0: 0, 1: 0, 2: 0})
        assert_settled(system)
        assert nullspace(system).dimension == 9 - system.rank

    def test_unit_row_kills_its_class(self):
        system = self.system(Q)
        system.join(0, 1, -1)
        assert reference_solver.satisfied_by(system, {0: Fraction(2), 1: Fraction(-2)})
        system.take(None, (1, 1), None)
        assert system.rank == 2 and system.dead == {system.find(0)[0]}
        assert not reference_solver.satisfied_by(system, {0: Fraction(2), 1: Fraction(-2)})
        assert not reference_solver.satisfied_by(system, {0: Fraction(2)})
        assert reference_solver.satisfied_by(system, {3: Fraction(5)})
        assert 0 not in nullspace(system).free_columns
        assert_settled(system)

    def test_dead_class_joined_to_a_live_one_stays_dead(self):
        system = self.system(Q)
        system.kill(0)
        system.join(1, 2, 1)
        assert system.rank == 2
        system.join(2, 0, -1)  # dead with live: the live class dies
        assert system.rank == 3 and len(system.dead) == 1
        system.kill(3)
        system.join(3, 1, 1)  # dead with dead: nothing new is fixed
        (root,) = system.dead
        assert system.rank == 4
        assert {c for c, _ in system.classes()[root]} == {0, 1, 2, 3}
        assert zero_set(system) == {0, 1, 2, 3}
        assert nullspace(system).free_columns == [4, 5, 6, 7, 8]
        assert_settled(system)

    def test_take_negates_the_second_and_third_terms(self):
        # the row first - second - third = 0, terms as (column, sign): the
        # join it makes, x_1 = s x_2, or the class it kills
        joins = [
            (((1, 1), (2, -1), None), -1),
            (((1, 1), (2, 1), None), 1),
            (((1, -1), None, (2, 1)), -1),
            (((1, 1), None, (2, 1)), 1),
            ((None, (1, 1), (2, 1)), -1),
            ((None, (1, -1), (2, 1)), 1),
        ]
        for terms, sign in joins:
            system = self.system(Q)
            system.take(*terms)
            (r1, s1), (r2, s2) = system.find(1), system.find(2)
            assert r1 == r2 and s1 * s2 == sign, terms
            assert system.rank == 1 and not system.dead
        for terms in [((1, 1), None, None), (None, (1, -1), None), (None, None, (1, 1))]:
            system = self.system(Q)
            system.join(1, 2, -1)
            system.take(*terms)
            assert system.rank == 2 and system.dead == {system.find(2)[0]}, terms

    @pytest.mark.parametrize(
        "terms",
        [
            ((0, 1), (1, 1), (2, -1)),
            ((0, 2), (1, 1), None),
            ((0, 1), (1, -2), None),
            (None, None, (0, -2)),
            ((0, -1), (0, -1), None),
            (None, None, None),
        ],
        ids=["three-entries", "two-first", "minus-two-second", "minus-two-alone", "one-column", "no-terms"],
    )
    @pytest.mark.parametrize(
        "ring", [Q, integers_mod(2), integers_mod(3)], ids=["Q", "Z2", "Z3"]
    )
    def test_other_row_shapes_raise(self, ring, terms):
        # build_system has no fallback, and over Z/2 and Z/3 a sign 2 is
        # caught before any reduction; the system is left as it was
        system = self.system(ring)
        with pytest.raises(ValueError, match="is not x_p = "):
            system.take(*terms)
        assert system.rank == 0 and not system.up and not system.dead


class TestDimensions:
    @pytest.mark.parametrize(
        "ring",
        [Q, integers_mod(2), integers_mod(3), integers_mod(5)],
        ids=["Q", "Z2", "Z3", "Z5"],
    )
    @pytest.mark.parametrize(
        "name,poset", CORPUS, ids=[name for name, _ in CORPUS]
    )
    def test_dimension_equals_chain_component_count(self, name, poset, ring):
        if name == "bool3" and ring != Q:
            pytest.skip("bool3 over prime fields is covered once below")
        system = build_system(poset, ring)
        basis = nullspace(system)
        assert basis.dimension == EXPECTED_DIMENSION[name]
        assert basis.dimension == len(poset.chain_components())

    def test_bool3_modular(self):
        system = build_system(boolean_lattice(3), integers_mod(3))
        assert nullspace(system).dimension == 1


class TestSolutionVectors:
    def test_generators_are_poisson_structures(self):
        for poset in (make_crown(), fence3(), diamond()):
            for vector in nullspace(build_system(poset, Q)).vectors:
                assert check_antisymmetric(vector).ok
                assert check_biderivation(vector).ok
                assert check_jacobi(vector).ok

    def test_chain_generator_is_standard(self):
        for n in (2, 3, 4):
            basis = nullspace(build_system(make_chain(n), Q))
            (vector,) = basis.vectors
            assert is_standard(vector) is not None

    def test_solution_space_contains_every_chain_constant_bracket(self):
        rng = random.Random(41)
        for poset in (make_crown(), fence3(), crown_plus_chain3()):
            system = build_system(poset, Q)
            for _ in range(5):
                sigma = random_sigma(poset, Q, rng)
                vec = bracket_to_vector(system, from_sigma(sigma))
                assert reference_solver.satisfied_by(system, vec)

    def test_vector_on_a_fixed_column_is_rejected(self):
        # the columns that rule 1 keeps and rule 2 drops: zero by transport
        # rows, so non-live, and satisfied_by holds them at zero
        system = build_system(make_crown(), Q)
        dropped = [col for col in rule_one_live(system) if col not in system.live]
        assert dropped
        for col in dropped[:20]:
            assert not reference_solver.satisfied_by(system, {col: Fraction(1)})
            assert reference_solver.satisfied_by(system, {col: Fraction(0)})

    def test_leibniz_violating_vector_is_rejected(self):
        # B(e11, e12) = e11 on chain-2: not a biderivation
        system = build_system(make_chain(2), Q)
        assert not reference_solver.satisfied_by(system, {0: Fraction(1)})


class TestClassify:
    def test_one_antisymmetry_pass_per_basis_vector(self):
        # calls are counted by code object, so every imported name is seen
        target, calls = check_antisymmetric.__code__, []

        def spy(frame, event, arg):
            if event == "call" and frame.f_code is target:
                calls.append(1)

        sys.setprofile(spy)
        try:
            report = classify(make_crown(), RATIONALS)
        finally:
            sys.setprofile(None)
        assert report.dimension == 4 and len(calls) == 4

    def test_one_chain_component_partition(self, monkeypatch):
        # every from_sigma of the certification reuses classify's partition
        calls, real = [], Poset.chain_components
        monkeypatch.setattr(Poset, "chain_components", lambda self: calls.append(self) or real(self))
        poset = crown_plus_chain3()
        report = classify(poset, Q)
        assert report.dimension == 5 and calls == [poset]

    def test_crown_over_rationals(self):
        report = classify(make_crown(), Q)
        assert report.dimension == 4
        assert report.chain_component_count == 4
        assert report.match
        # each basis sigma is the unit indicator of one chain component
        supports = set()
        for sigma in report.sigmas:
            nonzero = [
                pair for pair, v in sigma.values.items() if not v.is_zero()
            ]
            assert len(nonzero) == 1
            assert sigma.values[nonzero[0]].is_one()
            supports.add(nonzero[0])
        assert supports == set(make_crown().strict_pairs())

    def test_basis_sigmas_regenerate_basis_brackets(self):
        report = classify(crown_plus_chain3(), Q)
        for sigma, vector in zip(report.sigmas, report.basis.vectors):
            assert from_sigma(sigma) == vector
            assert extract_sigma(vector, check=False) == sigma

    @pytest.mark.parametrize("ring", [Q, integers_mod(2)], ids=["Q", "Z2"])
    def test_modular_crown(self, ring):
        report = classify(make_crown(), ring)
        assert report.dimension == 4 and report.match

    def test_report_json_shape(self):
        data = classify(fence3(), Q).to_json()
        assert set(data) == {"dimension", "chain_components", "match", "basis"}
        assert data["dimension"] == 2
        assert data["chain_components"] == 2
        assert data["match"] is True
        assert len(data["basis"]) == 2
        for sigma_json in data["basis"]:
            assert set(sigma_json) == {"entries"}

    def test_empty_structure_space(self):
        report = classify(antichain(2), Q)
        assert report.dimension == 0
        assert report.match
        assert report.sigmas == []


class TestBijectionViolations:
    """Each disagreement classify() looks for, forced by patching one name
    of poisset.solver on the 3-chain (one chain component) or the crown."""

    def test_vector_failing_a_bracket_check(self, monkeypatch):
        def refuse(vector):
            raise NotABiderivation("not antisymmetric")

        monkeypatch.setattr(solver, "extract_sigma", refuse)
        with pytest.raises(BijectionViolation, match="^solver vector fails a bracket check$"):
            classify(make_chain(3), Q)

    def test_sigma_not_chain_constant(self, monkeypatch):
        # the real from_sigma refuses a sigma with three values on one chain
        chain = make_chain(3)
        values = {pair: k + 1 for k, pair in enumerate(chain.strict_pairs())}
        monkeypatch.setattr(solver, "extract_sigma", lambda vector: SigmaMap(chain, Q, values))
        with pytest.raises(
            BijectionViolation, match="^solver vector's sigma is not chain-constant$"
        ):
            classify(chain, Q)

    def test_sigma_not_reproducing_its_vector(self, monkeypatch):
        chain = make_chain(3)
        monkeypatch.setattr(solver, "extract_sigma", lambda vector: SigmaMap(chain, Q, {}))
        with pytest.raises(
            BijectionViolation, match="^sigma does not reproduce its solver vector$"
        ):
            classify(chain, Q)

    @staticmethod
    def patch_vectors(monkeypatch, change):
        # nullspace with its crown vectors replaced by change(vectors): each
        # one still passes the Leibniz gate and reproduces itself
        real = solver.nullspace

        def patched(system):
            vectors = change(real(system).vectors)
            return SolutionBasis(vectors, list(range(len(vectors))))

        monkeypatch.setattr(solver, "nullspace", patched)

    def test_indicator_outside_the_solver_space(self, monkeypatch):
        # two crown vectors merged into one: its sigma meets two components
        def merge(vectors):
            first, second, *rest = vectors
            table = ranked(first.poset, {**raw_table(first), **raw_table(second)})
            return [Bracket(first.poset, first.ring, table, antisymmetric_mode=False), *rest]

        self.patch_vectors(monkeypatch, merge)
        with pytest.raises(
            BijectionViolation, match="^indicator bracket falls outside the solver space$"
        ):
            classify(make_crown(), Q)

    def test_repeated_vector_meets_a_claimed_component(self, monkeypatch):
        self.patch_vectors(monkeypatch, lambda vectors: [vectors[0], *vectors[:-1]])
        with pytest.raises(
            BijectionViolation, match="^indicator bracket falls outside the solver space$"
        ):
            classify(make_crown(), Q)

    def test_zero_vector_meets_no_component(self, monkeypatch):
        def zero_first(vectors):
            return [Bracket(vectors[0].poset, vectors[0].ring, {}, antisymmetric_mode=True), *vectors[1:]]

        self.patch_vectors(monkeypatch, zero_first)
        with pytest.raises(
            BijectionViolation, match="^indicator bracket falls outside the solver space$"
        ):
            classify(make_crown(), Q)

    def test_dimension_short_of_the_chain_components(self, monkeypatch):
        real = solver.nullspace

        def drop_one(system):
            basis = real(system)
            return SolutionBasis(basis.vectors[1:], basis.free_columns[1:])

        monkeypatch.setattr(solver, "nullspace", drop_one)
        with pytest.raises(BijectionViolation, match="^dimension 3 != 4 chain components$"):
            classify(make_crown(), Q)
