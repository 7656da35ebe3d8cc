"""Poset construction, order queries, chains and chain components.

Frozen oracles here were worked out by hand on the corpus posets; the
property tests regenerate random posets from cover relations that are
acyclic by construction (edges only go up in label order).
"""

import sys

import pytest
from hypothesis import given, strategies as st

from conftest import (
    antichain,
    boolean_lattice,
    broom,
    corpus_params,
    crown_plus_chain3,
    diamond,
    fence,
    fence3,
    posets,
)
import reference_bracket
from reference_poset import ReferencePoset, basis_moves
from poisset import Interval, Poset, StrictPair, from_covers, make_chain, make_crown
from poisset.errors import (
    CycleDetected,
    DuplicateLabel,
    NotComparable,
    UnknownLabel,
)


class TestConstruction:
    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            Poset(["a", "a"], [])

    def test_unknown_cover_endpoint(self):
        with pytest.raises(UnknownLabel):
            Poset(["a"], [("a", "b")])
        with pytest.raises(UnknownLabel):
            Poset(["a"], [("b", "a")])

    def test_empty_chain(self):
        with pytest.raises(ValueError, match="chain length must be >= 1"):
            make_chain(0)

    def test_self_cover_is_a_cycle(self):
        with pytest.raises(CycleDetected):
            Poset(["a"], [("a", "a")])

    def test_two_cycle(self):
        with pytest.raises(CycleDetected):
            Poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_three_cycle(self):
        with pytest.raises(CycleDetected):
            Poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    @pytest.mark.parametrize(
        "elements, covers, on_cycle",
        [
            (["a", "b"], [("a", "b"), ("b", "a")], {"a", "b"}),
            # "z" sits above the cycle and comes first in element order
            (["z", "a", "b"], [("a", "b"), ("b", "a"), ("b", "z")], {"a", "b"}),
            (
                ["top", "x", "p", "q", "r"],
                [("x", "p"), ("p", "q"), ("q", "r"), ("r", "p"), ("r", "top")],
                {"p", "q", "r"},
            ),
        ],
        ids=["two-cycle", "cycle-below-element", "three-cycle-between"],
    )
    def test_cycle_message_names_an_element_on_it(self, elements, covers, on_cycle):
        with pytest.raises(CycleDetected) as exc:
            Poset(elements, covers)
        named = {label for label in elements if repr(label) in str(exc.value)}
        assert len(named) == 1 and named <= on_cycle

    def test_redundant_covers_are_dropped(self):
        p = Poset(["1", "2", "3"], [("1", "2"), ("2", "3"), ("1", "3")])
        assert p.covers == (("1", "2"), ("2", "3"))
        assert p == make_chain(3)

    def test_empty_poset(self):
        p = Poset([], [])
        assert len(p) == 0
        assert p.intervals() == ()
        assert p.connected_components() == ()
        assert p.maximal_chains() == ()


class TestOrderQueries:
    def test_chain_closure(self):
        p = make_chain(4)
        for i in range(1, 5):
            for j in range(1, 5):
                assert p.leq(str(i), str(j)) == (i <= j)
        assert len(p.intervals()) == 10

    def test_crown_relations(self):
        p = make_crown()
        assert p.lt("1", "3") and p.lt("2", "4")
        assert not p.comparable("1", "2")
        assert not p.comparable("3", "4")
        assert not p.leq("3", "1")

    def test_unknown_label_raises(self):
        p = make_chain(2)
        with pytest.raises(UnknownLabel):
            p.leq("1", "x")
        with pytest.raises(UnknownLabel):
            p.index("x")
        assert "x" not in p
        assert "1" in p

    def test_crown_intervals_canonical_order(self):
        assert make_crown().intervals() == (
            Interval("1", "1"),
            Interval("1", "3"),
            Interval("1", "4"),
            Interval("2", "2"),
            Interval("2", "3"),
            Interval("2", "4"),
            Interval("3", "3"),
            Interval("4", "4"),
        )

    def test_interval_index_inverts_intervals(self):
        p = diamond()
        for k, iv in enumerate(p.intervals()):
            assert p.interval_index(iv) == k

    def test_is_interval(self):
        p = make_crown()
        assert p.is_interval("1", "3")
        assert p.is_interval("1", "1")
        assert not p.is_interval("3", "1")
        assert not p.is_interval("1", "2")
        assert not p.is_interval("1", "x")

    def test_between(self):
        p = diamond()
        assert p.between("1", "2") == ("1", "a", "b", "2")
        assert p.between("1", "a") == ("1", "a")
        assert p.between("a", "a") == ("a",)

    def test_strict_pairs(self):
        assert make_crown().strict_pairs() == (
            StrictPair("1", "3"),
            StrictPair("1", "4"),
            StrictPair("2", "3"),
            StrictPair("2", "4"),
        )
        assert antichain(3).strict_pairs() == ()

    def test_heights(self):
        assert make_chain(4).heights() == {"1": 0, "2": 1, "3": 2, "4": 3}
        assert diamond().heights() == {"1": 0, "a": 1, "b": 1, "2": 2}
        assert make_crown().heights() == {"1": 0, "2": 0, "3": 1, "4": 1}


class TestStructure:
    def test_connected_components(self):
        assert make_crown().connected_components() == (("1", "2", "3", "4"),)
        assert antichain(3).connected_components() == (("1",), ("2",), ("3",))
        assert crown_plus_chain3().connected_components() == (
            ("1", "2", "3", "4"),
            ("c1", "c2", "c3"),
        )

    def test_maximal_chains(self):
        assert make_crown().maximal_chains() == (
            ("1", "3"),
            ("1", "4"),
            ("2", "3"),
            ("2", "4"),
        )
        assert diamond().maximal_chains() == (("1", "a", "2"), ("1", "b", "2"))
        assert make_chain(3).maximal_chains() == (("1", "2", "3"),)
        assert antichain(2).maximal_chains() == (("1",), ("2",))

    def test_boolean_lattice_maximal_chains(self):
        b3 = boolean_lattice(3)
        chains = b3.maximal_chains()
        assert len(chains) == 6  # one per permutation of the three atoms
        assert all(len(c) == 4 for c in chains)
        assert all(c[0] == "0" and c[-1] == "123" for c in chains)

    def test_maximal_chains_need_no_recursion(self):
        chain = make_chain(300)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            chains = chain.maximal_chains()
        finally:
            sys.setrecursionlimit(limit)
        assert chains == (chain.elements,)

    def test_maximal_chain_overlap(self):
        assert make_chain(4).maximal_chain_overlap()
        assert diamond().maximal_chain_overlap()
        assert boolean_lattice(2).maximal_chain_overlap()
        assert boolean_lattice(3).maximal_chain_overlap()
        assert not make_crown().maximal_chain_overlap()
        assert not fence3().maximal_chain_overlap()
        assert not antichain(2).maximal_chain_overlap()

    def test_crown_chain_components_are_singletons(self):
        classes = make_crown().chain_components().classes
        assert classes == (
            (StrictPair("1", "3"),),
            (StrictPair("1", "4"),),
            (StrictPair("2", "3"),),
            (StrictPair("2", "4"),),
        )

    def test_chain_chain_components_merge_everything(self):
        partition = make_chain(4).chain_components()
        assert len(partition) == 1
        assert set(partition.classes[0]) == set(make_chain(4).strict_pairs())

    def test_diamond_chain_components(self):
        partition = diamond().chain_components()
        assert len(partition) == 1
        # (1,a) and (1,b) only meet through the chains that pass (1,2)
        assert partition.same_class(StrictPair("1", "a"), StrictPair("1", "b"))

    def test_fence_chain_components(self):
        partition = fence3().chain_components()
        assert len(partition) == 2
        assert not partition.same_class(StrictPair("a", "b"), StrictPair("c", "b"))

    def test_disjoint_union_chain_components(self):
        assert len(crown_plus_chain3().chain_components()) == 5

    def test_boolean_lattice_sizes(self):
        b3 = boolean_lattice(3)
        assert len(b3) == 8
        assert len(b3.intervals()) == 27  # one interval per nested pair
        assert len(b3.chain_components()) == 1

    def test_pair_partition_class_index(self):
        partition = fence3().chain_components()
        a = partition.class_index(StrictPair("a", "b"))
        c = partition.class_index(StrictPair("c", "b"))
        assert {a, c} == {0, 1}

    @pytest.mark.parametrize("poset", corpus_params())
    def test_pair_partition_index_is_built_on_first_lookup(self, poset):
        partition = poset.chain_components()
        assert len(partition) == len(list(partition))
        assert partition._class_of is None
        for idx, cls in enumerate(partition):
            for pair in cls:
                assert partition.class_index(pair) == idx
                assert partition.same_class(pair, cls[0])
        x = poset.elements[0]
        with pytest.raises(KeyError):
            partition.class_index(StrictPair(x, x))
        assert partition._class_of == {pair: idx for idx, cls in enumerate(partition) for pair in cls}


class TestSerialization:
    @pytest.mark.parametrize("poset", corpus_params())
    def test_json_roundtrip(self, poset):
        data = poset.to_json()
        assert set(data) == {"elements", "covers"}
        assert Poset.from_json(data) == poset

    def test_dot_output(self):
        dot = diamond().to_dot()
        assert dot.startswith("digraph")
        for lo, hi in diamond().covers:
            assert f'"{lo}" -> "{hi}"' in dot

    def test_equality_and_hash(self):
        assert make_chain(3) == from_covers(["1", "2", "3"], [("1", "2"), ("2", "3")])
        assert hash(make_chain(3)) == hash(make_chain(3))
        assert make_chain(3) != make_chain(4)
        # same covers, different element order: distinct presentations
        assert Poset(["b", "a"], [("a", "b")]) != Poset(["a", "b"], [("a", "b")])
        assert make_chain(3) != "poset"

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"covers": []}, "needs an 'elements' list"),
            ({"elements": ["a"], "covers": "ab"}, "'covers' must be a list of pairs"),
        ],
        ids=["no-elements", "covers-not-a-list"],
    )
    def test_json_rejects_malformed_documents(self, data, message):
        with pytest.raises(ValueError, match=message):
            Poset.from_json(data)

    def test_repr(self):
        assert repr(make_chain(2)) == "Poset(['1', '2'], [('1', '2')])"
        assert repr(make_chain(2).chain_components()) == (
            "PairPartition([[StrictPair(lo='1', hi='2')]])"
        )


class TestProperties:
    @given(p=posets())
    def test_partial_order_axioms(self, p):
        els = p.elements
        for x in els:
            assert p.leq(x, x)
        for x in els:
            for y in els:
                if p.leq(x, y) and p.leq(y, x):
                    assert x == y
                for z in els:
                    if p.leq(x, y) and p.leq(y, z):
                        assert p.leq(x, z)

    @given(p=posets())
    def test_covers_are_irredundant(self, p):
        for lo, hi in p.covers:
            assert p.lt(lo, hi)
            between = p.between(lo, hi)
            assert between == (lo, hi)

    @given(p=posets())
    def test_intervals_match_leq(self, p):
        ivs = set(p.intervals())
        for x in p.elements:
            for y in p.elements:
                assert (Interval(x, y) in ivs) == p.leq(x, y)

    @given(p=posets())
    def test_chain_components_partition_strict_pairs(self, p):
        partition = p.chain_components()
        seen = [pair for cls in partition.classes for pair in cls]
        assert sorted(seen) == sorted(p.strict_pairs())
        assert len(set(seen)) == len(seen)

    @given(p=posets())
    def test_chain_component_merge_rule(self, p):
        # pairs sharing a chain must land in the same class
        partition = p.chain_components()
        pairs = p.strict_pairs()
        for a in pairs:
            for b in pairs:
                endpoints = {a.lo, a.hi, b.lo, b.hi}
                if all(
                    p.comparable(x, y) for x in endpoints for y in endpoints
                ):
                    assert partition.same_class(a, b)

    @given(p=posets())
    def test_chain_components_match_maximal_chain_closure(self, p):
        # independent oracle: close over "some maximal chain holds both pairs"
        pairs = list(p.strict_pairs())
        parent = list(range(len(pairs)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for chain in p.maximal_chains():
            members = set(chain)
            on_chain = [
                k
                for k, pr in enumerate(pairs)
                if pr.lo in members and pr.hi in members
            ]
            for k in on_chain[1:]:
                parent[find(k)] = find(on_chain[0])

        groups: dict[int, set] = {}
        for k, pr in enumerate(pairs):
            groups.setdefault(find(k), set()).add(pr)
        expected = {frozenset(g) for g in groups.values()}
        actual = {frozenset(cls) for cls in p.chain_components().classes}
        assert expected == actual

    @given(p=posets())
    def test_maximal_chains_are_maximal(self, p):
        chains = p.maximal_chains()
        for chain in chains:
            for i in range(len(chain) - 1):
                assert p.lt(chain[i], chain[i + 1])
            members = set(chain)
            for z in p.elements:
                if z not in members:
                    assert not all(p.comparable(z, c) for c in chain)
        # every element lies on some maximal chain
        assert {x for c in chains for x in c} == set(p.elements)

    @given(p=posets())
    def test_json_roundtrip_random(self, p):
        assert Poset.from_json(p.to_json()) == p

    @given(p=posets())
    def test_heights_grow_along_covers(self, p):
        h = p.heights()
        for lo, hi in p.covers:
            assert h[hi] >= h[lo] + 1


@st.composite
def poset_inputs(draw, max_size=7):
    """Raw constructor input: labels in an order that need not be a linear
    extension, and acyclic covers that may be redundant."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    ranks = st.integers(min_value=1, max_value=n)
    edges = draw(st.sets(st.tuples(ranks, ranks), max_size=12))
    elements = draw(st.permutations([str(i) for i in range(1, n + 1)]))
    return elements, [(str(i), str(j)) for i, j in edges if i < j]


def assert_matches_reference(elements, covers):
    p, ref = Poset(elements, covers), ReferencePoset(elements, covers)
    assert p.covers == ref.covers
    assert p.intervals() == ref.intervals()
    assert p.strict_pairs() == ref.strict_pairs()
    for lo, hi in p.intervals():
        assert p.between(lo, hi) == ref.between(lo, hi)
    assert p.heights() == ref.heights()
    assert p.maximal_chains() == ref.maximal_chains()
    assert p.maximal_chain_overlap() == ref.maximal_chain_overlap()
    assert p.chain_components().classes == ref.chain_components()


class TestAgainstReference:
    """The bitmask poset layer against the original set-based definitions
    in tests/reference_poset.py, compared exactly, order included."""

    @given(p=posets(max_size=7))
    def test_generated(self, p):
        assert_matches_reference(p.elements, p.covers)

    @given(data=poset_inputs())
    def test_generated_raw_input(self, data):
        assert_matches_reference(*data)

    @pytest.mark.parametrize(
        "p",
        [
            pytest.param(make_chain(12), id="chain12"),
            pytest.param(boolean_lattice(4), id="bool4"),
            pytest.param(boolean_lattice(6), id="bool6"),
            pytest.param(fence(200), id="fence200"),
            # one spoke class per tip, next to the 1,275 pairs of the handle
            pytest.param(broom(300, 50), id="broom300"),
            # element order the reverse of the order: no linear extension
            pytest.param(
                Poset([str(i) for i in range(40, 0, -1)], make_chain(40).covers),
                id="chain40-top-down",
            ),
            # at x the class of (x, w2) holds (x, z), which comes before
            # (x, w1) although w2 comes after w1
            pytest.param(
                Poset(["x", "z", "w1", "w2"], [("x", "w1"), ("x", "w2"), ("w2", "z")]),
                id="classes-out-of-cover-order",
            ),
            # (x, w1) and (x, w2) have no upper bound in common, yet one
            # class through b; its pairs at x interleave the two up-sets
            pytest.param(
                Poset(
                    ["x", "u", "b", "w1", "w2", "c1", "c2"],
                    [("x", "w1"), ("x", "w2"), ("w1", "c1"), ("w2", "c2")]
                    + [("b", "w1"), ("b", "w2"), ("u", "b")],
                ),
                id="one-class-apart-at-x",
            ),
            # at x the up-set of (x, w3) meets that of (x, w2) through z but
            # not that of (x, w1), whose group is kept apart
            pytest.param(
                Poset(
                    ["x", "w1", "w2", "w3", "z"],
                    [("x", "w1"), ("x", "w2"), ("x", "w3"), ("w2", "z"), ("w3", "z")],
                ),
                id="group-kept-apart-at-x",
            ),
            *corpus_params(),  # fence3 and crown+chain3 among them
        ],
    )
    def test_named(self, p):
        assert_matches_reference(p.elements, p.covers)

    @given(p=posets(max_size=6))
    def test_overlap_with_a_bottom_and_a_top(self, p):
        # the two adjoined elements are comparable to every other one, so
        # the overlap holds without listing the maximal chains
        elements = ["bottom", *p.elements, "top"]
        covers = [*p.covers]
        covers += [("bottom", x) for x in p.elements] + [(x, "top") for x in p.elements]
        assert Poset(elements, covers).maximal_chain_overlap()
        assert ReferencePoset(elements, covers).maximal_chain_overlap()


def assert_basis_products_match_reference(p: Poset):
    """Poset.basis_products against the n^2 scan of reference_bracket and
    the leq-based moves of reference_poset, every field in order."""
    ref = ReferencePoset(p.elements, p.covers)
    intervals = ref.intervals()
    rank = {iv: k for k, iv in enumerate(intervals)}
    table = p.basis_products()
    product = {
        (rank[i], rank[j]): rank[t]
        for (i, j), t in reference_bracket._basis_products(ref).items()
    }
    assert list(table.product.items()) == list(product.items())
    factors: list[list] = [[] for _ in intervals]
    for ab, t in product.items():
        factors[t].append(ab)
    assert table.factors == tuple(map(tuple, factors))
    right, left = basis_moves(ref)
    assert table.right == tuple(map(tuple, right))
    assert table.left == tuple(map(tuple, left))
    assert table.rank == rank
    assert table.rank is p._interval_index
    assert p.basis_products() is table


class TestBasisProducts:
    @given(p=posets(max_size=7))
    def test_generated(self, p):
        assert_basis_products_match_reference(p)

    @pytest.mark.parametrize(
        "p",
        [
            *corpus_params(),
            pytest.param(Poset(["x"], []), id="one-element"),
            pytest.param(antichain(6), id="antichain6"),
        ],
    )
    def test_named(self, p):
        assert_basis_products_match_reference(p)

    def test_built_on_first_use(self):
        p = boolean_lattice(3)
        assert p._products is None
        assert p.basis_products() is p._products

    def test_rank_index_built_on_first_use(self):
        p = boolean_lattice(3)
        p.intervals(), p.strict_pairs(), p.chain_components()
        p.connected_components(), p.heights(), p.maximal_chains()
        assert p._interval_index is None
        with pytest.raises(KeyError):
            p.interval_index(Interval("1", "0"))
        # after the first call, interval_index is the rank dict's own lookup
        assert p.interval_index == p._interval_index.__getitem__
        with pytest.raises(KeyError):
            p.interval_index(Interval("1", "2"))
        assert p.interval_index(Interval("0", "123")) == 7

    @given(p=posets(max_size=7))
    def test_equal_posets_give_equal_tables(self, p):
        a, b = Poset(p.elements, p.covers), Poset(p.elements, p.covers)
        assert a == b and a is not b
        assert a.basis_products() == b.basis_products()
        assert a.basis_products() is not b.basis_products()
