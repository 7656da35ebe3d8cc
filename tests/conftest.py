"""Shared corpus of small posets and random-data helpers.

The corpus mirrors the shapes the classification theory distinguishes:
total orders (everything standard), antichains (zero bracket), the
4-crown (maximally non-standard), lattices with overlapping maximal
chains, and a disconnected mix.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import strategies as st

from poisset import (
    Bracket,
    IncidenceElement,
    Poset,
    SigmaMap,
    from_covers,
    make_chain,
    make_crown,
)


def antichain(n: int) -> Poset:
    return Poset([str(i) for i in range(1, n + 1)], [])


def diamond() -> Poset:
    """1 < a, b < 2 with a, b incomparable."""
    return from_covers(
        ["1", "a", "b", "2"],
        [("1", "a"), ("1", "b"), ("a", "2"), ("b", "2")],
    )


def fence3() -> Poset:
    """a < b > c: one connected component, two chain components."""
    return from_covers(["a", "b", "c"], [("a", "b"), ("c", "b")])


def fence(n: int) -> Poset:
    """f0 < f1 > f2 < f3 ...: every cover is its own chain component."""
    labels = [f"f{i}" for i in range(n)]
    covers = [
        (labels[i], labels[i + 1]) if i % 2 == 0 else (labels[i + 1], labels[i])
        for i in range(n - 1)
    ]
    return Poset(labels, covers)


def broom(spokes: int, handle: int) -> Poset:
    """A bottom "0" under the incomparable s1..s<spokes>, with s1 under the
    chain h1 < ... < h<handle>: spokes + handle covers, spokes classes."""
    tips = [f"s{i}" for i in range(1, spokes + 1)]
    chain = [f"h{i}" for i in range(1, handle + 1)]
    covers = [("0", tip) for tip in tips] + list(zip(tips[:1] + chain, chain))
    return Poset(["0", *tips, *chain], covers)


def boolean_lattice(n: int) -> Poset:
    """Subsets of {1..n} under inclusion; labels are digit strings, "0" empty."""

    def name(subset) -> str:
        return "".join(str(d) for d in sorted(subset)) or "0"

    subsets = [
        frozenset(c)
        for k in range(n + 1)
        for c in combinations(range(1, n + 1), k)
    ]
    covers = [
        (name(s), name(s | {x}))
        for s in subsets
        for x in range(1, n + 1)
        if x not in s
    ]
    return Poset([name(s) for s in subsets], covers)


def crown_plus_chain3() -> Poset:
    """Disjoint union of the 4-crown and a 3-element chain."""
    return from_covers(
        ["1", "2", "3", "4", "c1", "c2", "c3"],
        [
            ("1", "3"),
            ("1", "4"),
            ("2", "3"),
            ("2", "4"),
            ("c1", "c2"),
            ("c2", "c3"),
        ],
    )


def corpus() -> list[tuple[str, Poset]]:
    posets = [(f"chain{n}", make_chain(n)) for n in range(1, 6)]
    posets += [(f"antichain{n}", antichain(n)) for n in range(1, 4)]
    posets += [
        ("crown", make_crown()),
        ("diamond", diamond()),
        ("fence3", fence3()),
        ("bool2", boolean_lattice(2)),
        ("bool3", boolean_lattice(3)),
        ("crown+chain3", crown_plus_chain3()),
    ]
    return posets


CORPUS = corpus()


def natural_posets(n: int):
    """Every poset on the labels 1..n in which i < j implies i before j,
    each once: OEIS A006455, 1, 2, 7, 40, 357, 4824, ... for n = 1, 2, ...
    Column j of the strict order is the down-set of j, a bitmask of the
    labels before it; a column is kept when it holds the down-set of each
    of its members, so the order stays transitive."""
    labels = [str(i) for i in range(1, n + 1)]

    def extend(downs):
        j = len(downs)
        if j == n:
            covers = [
                (labels[i], labels[k]) for k, down in enumerate(downs) for i in range(k) if down >> i & 1
            ]
            yield Poset(labels, covers)
            return
        for down in range(1 << j):
            if all(not downs[i] & ~down for i in range(j) if down >> i & 1):
                yield from extend([*downs, down])

    return extend([])


def corpus_params():
    return [pytest.param(poset, id=name) for name, poset in CORPUS]


@st.composite
def posets(draw, max_size=6):
    n = draw(st.integers(min_value=1, max_value=max_size))
    labels = [str(i) for i in range(1, n + 1)]
    edges = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=12,
        )
    )
    # i < j in label order keeps the relation acyclic
    covers = [(labels[i], labels[j]) for i, j in edges if i < j]
    return Poset(labels, covers)


@st.composite
def shuffled_posets(draw, max_size=6):
    """A poset of posets() with its elements listed in a drawn order, which
    need not be a linear extension: then an interval [y, z] can rank before
    [y, y], and an e_yy is not always first among the moves that start at
    y."""
    poset = draw(posets(max_size))
    return Poset(draw(st.permutations(poset.elements)), poset.covers)


@st.composite
def antisymmetric_tables(draw, rings):
    """An antisymmetric table of random values: B(e_i, e_j) for up to eight
    pairs i before j, the constructor adding the mirrors, each of one to
    three terms at any interval, off the commutator's target and on the
    diagonal as well; the poset's element order need not be a linear
    extension."""
    poset = draw(shuffled_posets(max_size=5))
    ring = draw(st.sampled_from(rings))
    ivs = poset.intervals()
    index = st.integers(0, len(ivs) - 1)
    table = {}
    for i, j, terms in draw(
        st.lists(
            st.tuples(index, index, st.lists(st.tuples(index, st.integers(-3, 3)), min_size=1, max_size=3)),
            max_size=8,
        )
    ):
        if i < j:
            coeffs = {ivs[k]: ring.scalar(c) for k, c in terms}
            table[ivs[i], ivs[j]] = IncidenceElement(poset, ring, coeffs)
    return Bracket.from_basis_table(poset, ring, table)


@st.composite
def ring_elements(draw, poset: Poset, ring):
    """An element with a numerator in -4..4 at each interval, a third of
    them zero; over Q each over a denominator 1, 2, 3, 4 or 6, so that the
    lcm of an element's denominators, its scale, is often above 1."""
    denominators = st.sampled_from((1, 2, 3, 4, 6)) if ring.kind == "Q" else st.just(1)
    coeffs = {}
    for iv in poset.intervals():
        n = draw(st.sampled_from((0, 0, 0, -4, -3, -2, -1, 1, 2, 3, 4)))
        if n:
            coeffs[iv] = ring.scalar(Fraction(n, draw(denominators)))
    return IncidenceElement(poset, ring, coeffs)


def random_sigma(poset: Poset, ring, rng) -> SigmaMap:
    """A random chain-constant map: one value drawn per chain component."""
    values = {}
    for cls in poset.chain_components():
        c = ring.scalar(rng.randint(-5, 5))
        for pair in cls:
            values[pair] = c
    return SigmaMap(poset, ring, values)


@pytest.fixture
def crown() -> Poset:
    return make_crown()


@pytest.fixture
def chain3() -> Poset:
    return make_chain(3)
