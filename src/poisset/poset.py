"""Finite posets: construction from covers, order queries, chains, and the
partition of strict comparable pairs that parametrizes Poisson structures.

A poset is built from a list of element labels and a list of cover pairs.
The reflexive-transitive closure is computed on construction; redundant
covers are removed, so the stored Hasse relation is always the transitive
reduction.  Element order is the input order; intervals are ordered
lexicographically by (lo index, hi index).  Posets are immutable.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import CycleDetected, DuplicateLabel, UnknownLabel


class Interval(NamedTuple):
    """A comparable pair lo <= hi, the index of a basis symbol."""

    lo: str
    hi: str


class StrictPair(NamedTuple):
    """A strictly comparable pair lo < hi."""

    lo: str
    hi: str


class PairPartition:
    """Disjoint classes of strict pairs whose union is all of them.

    Classes and their members are kept in canonical interval order, so two
    runs over the same poset produce identical partitions.
    """

    def __init__(self, classes: Iterable[Iterable[StrictPair]]):
        self.classes: tuple[tuple[StrictPair, ...], ...] = tuple(
            tuple(cls) for cls in classes
        )
        self._class_of = {
            pair: idx for idx, cls in enumerate(self.classes) for pair in cls
        }

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def class_index(self, pair: StrictPair) -> int:
        return self._class_of[pair]

    def same_class(self, a: StrictPair, b: StrictPair) -> bool:
        return self._class_of[a] == self._class_of[b]

    def __repr__(self):
        return f"PairPartition({list(map(list, self.classes))})"


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            # attach the larger root under the smaller for deterministic reps
            if ri < rj:
                self.parent[rj] = ri
            else:
                self.parent[ri] = rj


class Poset:
    """An immutable finite poset over opaque string labels."""

    def __init__(self, elements: Iterable[str], covers: Iterable[tuple[str, str]]):
        elements = list(elements)
        index: dict[str, int] = {}
        for label in elements:
            if label in index:
                raise DuplicateLabel(f"duplicate element {label!r}")
            index[label] = len(index)
        self._elements = tuple(elements)
        self._index = index

        n = len(elements)
        succ: list[set[int]] = [set() for _ in range(n)]
        for lo, hi in covers:
            if lo not in index:
                raise UnknownLabel(f"cover endpoint {lo!r} is not an element")
            if hi not in index:
                raise UnknownLabel(f"cover endpoint {hi!r} is not an element")
            if lo == hi:
                raise CycleDetected(f"self-cover ({lo!r}, {hi!r})")
            succ[index[lo]].add(index[hi])

        # reachability along covers; a strict cycle breaks antisymmetry
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
                    f"element {elements[start]!r} lies on a cycle of covers"
                )
            reach.append(seen)

        self._up: tuple[frozenset[int], ...] = tuple(
            frozenset(reach[i] | {i}) for i in range(n)
        )
        # transitive reduction: keep i -> j with no k strictly between
        irredundant = []
        for i in range(n):
            for j in sorted(reach[i]):
                if not any(k != j and j in reach[k] for k in reach[i]):
                    irredundant.append((elements[i], elements[j]))
        self._covers: tuple[tuple[str, str], ...] = tuple(irredundant)

        self._intervals = tuple(
            Interval(elements[i], elements[j])
            for i in range(n)
            for j in sorted(self._up[i])
        )
        self._interval_index = {iv: k for k, iv in enumerate(self._intervals)}

    # -- basic queries -------------------------------------------------------

    @property
    def elements(self) -> tuple[str, ...]:
        return self._elements

    @property
    def covers(self) -> tuple[tuple[str, str], ...]:
        """The Hasse relation (transitive reduction), in canonical order."""
        return self._covers

    def __len__(self):
        return len(self._elements)

    def __contains__(self, label) -> bool:
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"{label!r} is not an element") from None

    def leq(self, x: str, y: str) -> bool:
        """True iff x <= y in the reflexive-transitive closure."""
        return self.index(y) in self._up[self.index(x)]

    def lt(self, x: str, y: str) -> bool:
        return x != y and self.leq(x, y)

    def comparable(self, x: str, y: str) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def intervals(self) -> tuple[Interval, ...]:
        """All pairs x <= y in canonical order; the basis index set."""
        return self._intervals

    def interval_index(self, iv: Interval) -> int:
        return self._interval_index[iv]

    def is_interval(self, lo: str, hi: str) -> bool:
        return lo in self._index and hi in self._index and self.leq(lo, hi)

    def strict_pairs(self) -> tuple[StrictPair, ...]:
        return tuple(
            StrictPair(lo, hi) for lo, hi in self._intervals if lo != hi
        )

    def between(self, lo: str, hi: str) -> tuple[str, ...]:
        """Elements z with lo <= z <= hi, in canonical element order."""
        i, j = self.index(lo), self.index(hi)
        return tuple(
            self._elements[k] for k in sorted(self._up[i]) if j in self._up[k]
        )

    # -- structure -----------------------------------------------------------

    def connected_components(self) -> tuple[tuple[str, ...], ...]:
        """Partition of the elements under comparability."""
        uf = _UnionFind(len(self._elements))
        for lo, hi in self._covers:
            uf.union(self._index[lo], self._index[hi])
        groups: dict[int, list[int]] = {}
        for i in range(len(self._elements)):
            groups.setdefault(uf.find(i), []).append(i)
        return tuple(
            tuple(self._elements[i] for i in members)
            for _, members in sorted(groups.items())
        )

    def maximal_chains(self) -> tuple[tuple[str, ...], ...]:
        """All inclusion-maximal chains, ascending, in DFS order."""
        n = len(self._elements)
        children: list[list[int]] = [[] for _ in range(n)]
        has_parent = [False] * n
        for lo, hi in self._covers:
            children[self._index[lo]].append(self._index[hi])
            has_parent[self._index[hi]] = True
        for kids in children:
            kids.sort()

        chains: list[tuple[str, ...]] = []

        def extend(path: list[int]):
            tip = path[-1]
            if not children[tip]:
                chains.append(tuple(self._elements[i] for i in path))
                return
            for child in children[tip]:
                path.append(child)
                extend(path)
                path.pop()

        for start in range(n):
            if not has_parent[start]:
                extend([start])
        return tuple(chains)

    def chain_components(self) -> PairPartition:
        """Strict pairs partitioned by the closure of "co-lie in a chain".

        Two strict pairs are merged when their four endpoints are pairwise
        comparable, which for a finite poset is exactly when some chain
        contains both pairs.
        """
        pairs = self.strict_pairs()
        uf = _UnionFind(len(pairs))
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                members = {pairs[a].lo, pairs[a].hi, pairs[b].lo, pairs[b].hi}
                if self._pairwise_comparable(members):
                    uf.union(a, b)
        groups: dict[int, list[StrictPair]] = {}
        for k, pair in enumerate(pairs):
            groups.setdefault(uf.find(k), []).append(pair)
        return PairPartition(members for _, members in sorted(groups.items()))

    def _pairwise_comparable(self, labels: set[str]) -> bool:
        items = list(labels)
        return all(
            self.comparable(items[i], items[j])
            for i in range(len(items))
            for j in range(i + 1, len(items))
        )

    def maximal_chain_overlap(self) -> bool:
        """True iff every two distinct maximal chains share >= 2 elements."""
        chains = [set(c) for c in self.maximal_chains()]
        return all(
            len(chains[i] & chains[j]) >= 2
            for i in range(len(chains))
            for j in range(i + 1, len(chains))
        )

    def heights(self) -> dict[str, int]:
        """Length of the longest chain below each element (0 for minimal)."""
        order = sorted(
            range(len(self._elements)), key=lambda i: len(self._up[i]), reverse=True
        )
        # elements with larger up-sets are lower; process bottom-up
        h = [0] * len(self._elements)
        for i in order:
            for j in self._up[i]:
                if j != i:
                    h[j] = max(h[j], h[i] + 1)
        return {self._elements[i]: h[i] for i in range(len(self._elements))}

    # -- equality ------------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Poset):
            return NotImplemented
        return self._elements == other._elements and self._up == other._up

    def __hash__(self):
        return hash((self._elements, self._up))

    def __repr__(self):
        return f"Poset({list(self._elements)}, {list(self._covers)})"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "elements": list(self._elements),
            "covers": [list(c) for c in self._covers],
        }

    @staticmethod
    def from_json(data: dict) -> "Poset":
        """Poset from its JSON form; labels must be strings (ValueError)."""
        if not isinstance(data, dict) or not isinstance(data.get("elements"), list):
            raise ValueError("poset JSON needs an 'elements' list")
        covers = data.get("covers", [])
        if not isinstance(covers, list):
            raise ValueError("poset JSON 'covers' must be a list of pairs")
        for label in data["elements"]:
            if not isinstance(label, str):
                raise ValueError(f"element label {label!r} is not a string")
        for cover in covers:
            if not (
                isinstance(cover, list)
                and len(cover) == 2
                and all(isinstance(end, str) for end in cover)
            ):
                raise ValueError(f"cover {cover!r} is not a pair of string labels")
        return Poset(data["elements"], [tuple(c) for c in covers])

    def to_dot(self) -> str:
        """Hasse diagram in DOT: one node per element, one edge per cover,
        elements of equal height on the same rank."""
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for label in self._elements:
            lines.append(f'  "{label}";')
        for lo, hi in self._covers:
            lines.append(f'  "{lo}" -> "{hi}";')
        by_height: dict[int, list[str]] = {}
        for label, h in self.heights().items():
            by_height.setdefault(h, []).append(label)
        for h in sorted(by_height):
            row = " ".join(f'"{label}";' for label in by_height[h])
            lines.append(f"  {{ rank=same; {row} }}")
        lines.append("}")
        return "\n".join(lines) + "\n"


def from_covers(elements, covers) -> Poset:
    """Build a normalized poset from labels and (possibly redundant) covers."""
    return Poset(elements, covers)


def make_chain(n: int) -> Poset:
    """The chain 1 < 2 < ... < n."""
    if n < 1:
        raise ValueError("chain length must be >= 1")
    labels = [str(i) for i in range(1, n + 1)]
    return Poset(labels, list(zip(labels, labels[1:])))


def make_crown() -> Poset:
    """The 4-element crown: minimal 1, 2 below maximal 3, 4."""
    return Poset(["1", "2", "3", "4"], [("1", "3"), ("1", "4"), ("2", "3"), ("2", "4")])
