"""The original set-based poset layer, kept as a test reference.

`ReferencePoset` computes the order by a depth-first search from every
element, the transitive reduction by checking every strict pair against
every element above its bottom, and the chain components by comparing
every two strict pairs (O(pairs^2)).  It follows the definitions
directly and is far too slow for large posets; `tests/test_poset.py`
checks `poisset.Poset` against it on generated posets.  `basis_moves`
keeps the order-based right and left lists of the basis multiplication
table, which the solver once built for itself on every call.
"""

from __future__ import annotations

from poisset import Interval, StrictPair
from poisset.errors import CycleDetected


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


class ReferencePoset:
    def __init__(self, elements, covers):
        self.elements = tuple(elements)
        index = {label: k for k, label in enumerate(self.elements)}
        n = len(self.elements)
        succ: list[set[int]] = [set() for _ in range(n)]
        for lo, hi in covers:
            if lo == hi:
                raise CycleDetected(f"self-cover ({lo!r}, {hi!r})")
            succ[index[lo]].add(index[hi])

        reach: list[set[int]] = []
        for start in range(n):
            seen: set[int] = set()
            stack = list(succ[start])
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(succ[node])
            if start in seen:
                raise CycleDetected(
                    f"element {self.elements[start]!r} lies on a cycle of covers"
                )
            reach.append(seen)
        self._index = index
        self._up = [reach[i] | {i} for i in range(n)]

        irredundant = []
        for i in range(n):
            for j in sorted(reach[i]):
                if not any(k != j and j in reach[k] for k in reach[i]):
                    irredundant.append((self.elements[i], self.elements[j]))
        self.covers = tuple(irredundant)

    def leq(self, x: str, y: str) -> bool:
        return self._index[y] in self._up[self._index[x]]

    def comparable(self, x: str, y: str) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def intervals(self) -> tuple[Interval, ...]:
        return tuple(
            Interval(self.elements[i], self.elements[j])
            for i in range(len(self.elements))
            for j in sorted(self._up[i])
        )

    def strict_pairs(self) -> tuple[StrictPair, ...]:
        return tuple(StrictPair(lo, hi) for lo, hi in self.intervals() if lo != hi)

    def between(self, lo: str, hi: str) -> tuple[str, ...]:
        i, j = self._index[lo], self._index[hi]
        return tuple(
            self.elements[k] for k in sorted(self._up[i]) if j in self._up[k]
        )

    def heights(self) -> dict[str, int]:
        n = len(self.elements)
        order = sorted(range(n), key=lambda i: len(self._up[i]), reverse=True)
        h = [0] * n
        for i in order:
            for j in self._up[i]:
                if j != i:
                    h[j] = max(h[j], h[i] + 1)
        return {self.elements[i]: h[i] for i in range(n)}

    def maximal_chains(self) -> tuple[tuple[str, ...], ...]:
        n = len(self.elements)
        children: list[list[int]] = [[] for _ in range(n)]
        has_parent = [False] * n
        for lo, hi in self.covers:
            children[self._index[lo]].append(self._index[hi])
            has_parent[self._index[hi]] = True
        for kids in children:
            kids.sort()
        chains: list[tuple[str, ...]] = []

        def extend(path: list[int]):
            tip = path[-1]
            if not children[tip]:
                chains.append(tuple(self.elements[i] for i in path))
                return
            for child in children[tip]:
                path.append(child)
                extend(path)
                path.pop()

        for start in range(n):
            if not has_parent[start]:
                extend([start])
        return tuple(chains)

    def maximal_chain_overlap(self) -> bool:
        chains = [set(c) for c in self.maximal_chains()]
        return all(
            len(chains[i] & chains[j]) >= 2
            for i in range(len(chains))
            for j in range(i + 1, len(chains))
        )

    def chain_components(self) -> tuple[tuple[StrictPair, ...], ...]:
        """Classes of strict pairs: merge two whenever their four endpoints
        are pairwise comparable, then close transitively."""
        pairs = self.strict_pairs()
        uf = _UnionFind(len(pairs))
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                members = list(
                    {pairs[a].lo, pairs[a].hi, pairs[b].lo, pairs[b].hi}
                )
                if all(
                    self.comparable(members[i], members[j])
                    for i in range(len(members))
                    for j in range(i + 1, len(members))
                ):
                    uf.union(a, b)
        groups: dict[int, list[StrictPair]] = {}
        for k, pair in enumerate(pairs):
            groups.setdefault(uf.find(k), []).append(pair)
        return tuple(tuple(members) for _, members in sorted(groups.items()))


def basis_moves(poset):
    """right[b] lists (rank [x, b.hi], rank [x, b.lo]) for every x <= b.lo,
    so e_k e_b = e_t for each (t, k); left[a] lists (rank [a.lo, y],
    rank [a.hi, y]) for every y >= a.hi, so e_a e_k = e_t.  Both walk the
    elements in order and test each with leq."""
    intervals = poset.intervals()
    index = {iv: k for k, iv in enumerate(intervals)}
    right = [
        [
            (index[Interval(x, b.hi)], index[Interval(x, b.lo)])
            for x in poset.elements
            if poset.leq(x, b.lo)
        ]
        for b in intervals
    ]
    left = [
        [
            (index[Interval(a.lo, y)], index[Interval(a.hi, y)])
            for y in poset.elements
            if poset.leq(a.hi, y)
        ]
        for a in intervals
    ]
    return right, left
