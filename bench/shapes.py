"""Poset shapes for the benchmark corpus, as plain label and cover lists.

Fixed shapes have known answers (a chain has one chain component, a
crown four, a Boolean lattice one).  Random shapes are drawn from a
seeded generator and kept only when their size falls in a given band, so
that every seed yields inputs of about the same cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from reference import Order


@dataclass
class Shape:
    name: str
    elements: list[str]
    covers: list[tuple[str, str]]
    components: int | None = None  # closed-form chain-component count

    @cached_property
    def order(self) -> Order:
        return Order(self.elements, self.covers)

    @cached_property
    def chain_components(self) -> list[list[tuple[str, str]]]:
        found = self.order.chain_components()
        if self.components is not None and len(found) != self.components:
            raise AssertionError(
                f"{self.name}: reference finds {len(found)} chain components, "
                f"closed form says {self.components}"
            )
        return found

    @cached_property
    def intervals(self) -> list[tuple[str, str]]:
        order = self.order
        return [(x, y) for x in self.elements for y in self.elements if order.leq(x, y)]

    def to_json(self) -> dict:
        return {"elements": self.elements, "covers": [list(c) for c in self.covers]}


def chain(n: int) -> Shape:
    labels = [str(i) for i in range(1, n + 1)]
    return Shape(f"chain{n}", labels, list(zip(labels, labels[1:])), components=1)


def crown() -> Shape:
    return Shape(
        "crown",
        ["1", "2", "3", "4"],
        [("1", "3"), ("1", "4"), ("2", "3"), ("2", "4")],
        components=4,
    )


def diamond() -> Shape:
    return Shape(
        "diamond",
        ["1", "a", "b", "2"],
        [("1", "a"), ("1", "b"), ("a", "2"), ("b", "2")],
        components=1,
    )


def fence(n: int) -> Shape:
    """f0 < f1 > f2 < f3 ...: every cover is its own chain component."""
    labels = [f"f{i}" for i in range(n)]
    covers = [
        (labels[i], labels[i + 1]) if i % 2 == 0 else (labels[i + 1], labels[i])
        for i in range(n - 1)
    ]
    return Shape(f"fence{n}", labels, covers, components=n - 1)


def boolean(n: int) -> Shape:
    """Subsets of {1..n} under inclusion; "0" is the empty set."""

    def name(subset) -> str:
        return "".join(str(d) for d in sorted(subset)) or "0"

    subsets = [frozenset(c) for k in range(n + 1) for c in combinations(range(1, n + 1), k)]
    covers = [(name(s), name(s | {x})) for s in subsets for x in range(1, n + 1) if x not in s]
    return Shape(f"bool{n}", [name(s) for s in subsets], covers, components=1)


def union(name: str, left: Shape, right: Shape) -> Shape:
    """Disjoint union; labels are prefixed to keep them apart."""

    def tag(prefix, shape):
        return (
            [prefix + x for x in shape.elements],
            [(prefix + a, prefix + b) for a, b in shape.covers],
        )

    le, lc = tag("a", left)
    re, rc = tag("b", right)
    known = None
    if left.components is not None and right.components is not None:
        known = left.components + right.components
    return Shape(name, le + re, lc + rc, components=known)


def random_shape(
    rng: random.Random,
    name: str,
    sizes: tuple[int, int],
    densities: tuple[float, float],
    intervals: tuple[int, int],
    max_chains: int | None = None,
) -> Shape:
    """A random order on a size drawn from ``sizes``: each pair of a random
    linear order becomes a cover with a probability drawn from ``densities``.
    Draws repeat until the interval count lies in ``intervals`` and the
    maximal-chain count is at most ``max_chains``; bounding the chain count
    here keeps maximal_chains and maximal_chain_overlap from blowing up on an
    unlucky draw."""
    for _ in range(10_000):
        n = rng.randint(*sizes)
        density = rng.uniform(*densities)
        labels = [f"r{i}" for i in range(n)]
        order = labels[:]
        rng.shuffle(order)
        covers = [
            (order[a], order[b])
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < density
        ]
        shape = Shape(name, labels, covers)
        lo, hi = intervals
        if not lo <= shape.order.intervals <= hi:
            continue
        if max_chains is not None and shape.order.maximal_chain_count() > max_chains:
            continue
        return shape
    raise RuntimeError(f"no {name} with {intervals} intervals after 10000 draws")
