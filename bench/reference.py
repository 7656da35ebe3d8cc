"""Reference answers computed by the benchmark itself.

Every job's result is checked against numbers derived here from the raw
cover list, without calling the program's own algorithms: the order is
closed with integer bitmasks, chain components use the quadratic
"pairwise-comparable endpoints" rule, and convolution is a plain dict loop.
"""

from __future__ import annotations

from fractions import Fraction


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        self.parent[self.find(i)] = self.find(j)


class Order:
    """The partial order generated by a list of (lo, hi) covers.

    ``up[i]`` is the bitmask of elements strictly above element ``i``;
    ``hasse[i]`` is the bitmask of elements covering it.
    """

    def __init__(self, elements, covers):
        self.elements = list(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        n = len(self.elements)
        succ = [0] * n
        indegree = [0] * n
        for lo, hi in covers:
            j = self.index[hi]
            if not succ[self.index[lo]] >> j & 1:
                succ[self.index[lo]] |= 1 << j
                indegree[j] += 1
        order = [i for i in range(n) if not indegree[i]]
        for i in order:
            for j in _bits(succ[i]):
                indegree[j] -= 1
                if not indegree[j]:
                    order.append(j)
        if len(order) != n:
            raise ValueError("covers contain a cycle")
        self.topological = order
        up = [0] * n
        for i in reversed(order):
            acc = succ[i]
            for j in _bits(succ[i]):
                acc |= up[j]
            up[i] = acc
        self.up = up
        self.hasse = []
        for i in range(n):
            above_above = 0
            for k in _bits(up[i]):
                above_above |= up[k]
            self.hasse.append(up[i] & ~above_above)
        self.comparable = [up[i] | (1 << i) for i in range(n)]
        for i in range(n):
            for j in _bits(up[i]):
                self.comparable[j] |= 1 << i

    # -- counts ---------------------------------------------------------------

    @property
    def strict_pairs(self) -> int:
        return sum(mask.bit_count() for mask in self.up)

    @property
    def intervals(self) -> int:
        return len(self.elements) + self.strict_pairs

    def cover_set(self) -> set[tuple[str, str]]:
        labels = self.elements
        return {
            (labels[i], labels[j])
            for i in range(len(labels))
            for j in _bits(self.hasse[i])
        }

    def leq(self, x: str, y: str) -> bool:
        i, j = self.index[x], self.index[y]
        return i == j or bool(self.up[i] >> j & 1)

    def connected_components(self) -> list[frozenset[str]]:
        uf = _UnionFind(len(self.elements))
        for i, mask in enumerate(self.hasse):
            for j in _bits(mask):
                uf.union(i, j)
        groups: dict[int, set[str]] = {}
        for i, label in enumerate(self.elements):
            groups.setdefault(uf.find(i), set()).add(label)
        return [frozenset(g) for g in groups.values()]

    def heights(self) -> dict[str, int]:
        h = [0] * len(self.elements)
        for i in self.topological:
            for j in _bits(self.hasse[i]):
                h[j] = max(h[j], h[i] + 1)
        return {label: h[i] for i, label in enumerate(self.elements)}

    def maximal_chain_count(self) -> int:
        """Paths in the Hasse diagram from a minimal to a maximal element."""
        n = len(self.elements)
        below = 0
        for mask in self.hasse:
            below |= mask
        count = [0] * n
        for i in reversed(self.topological):
            kids = list(_bits(self.hasse[i]))
            count[i] = sum(count[j] for j in kids) if kids else 1
        return sum(count[i] for i in range(n) if not below >> i & 1)

    def maximal_chain_overlap(self) -> bool:
        """Every two maximal chains share at least two elements."""
        below = 0
        for mask in self.hasse:
            below |= mask
        chains = []
        stack = [(i, 1 << i) for i in range(len(self.elements)) if not below >> i & 1]
        while stack:
            tip, members = stack.pop()
            if not self.hasse[tip]:
                chains.append(members)
            for j in _bits(self.hasse[tip]):
                stack.append((j, members | 1 << j))
        return all(
            (chains[a] & chains[b]).bit_count() >= 2
            for a in range(len(chains))
            for b in range(a + 1, len(chains))
        )

    def chain_components(self) -> list[list[tuple[str, str]]]:
        """Strict pairs merged when all four endpoints are pairwise
        comparable, by brute force over pairs of pairs."""
        pairs = [(i, j) for i in range(len(self.elements)) for j in _bits(self.up[i])]
        shared = [self.comparable[i] & self.comparable[j] for i, j in pairs]
        uf = _UnionFind(len(pairs))
        for a in range(len(pairs)):
            both = shared[a]
            for b in range(a + 1, len(pairs)):
                u, v = pairs[b]
                if both >> u & 1 and both >> v & 1:
                    uf.union(a, b)
        groups: dict[int, list[tuple[str, str]]] = {}
        labels = self.elements
        for k, (i, j) in enumerate(pairs):
            groups.setdefault(uf.find(k), []).append((labels[i], labels[j]))
        return list(groups.values())


def convolve(f: dict, g: dict) -> dict:
    """(f g)(x, y) = sum over z of f(x, z) g(z, y), on {(lo, hi): value}."""
    out: dict = {}
    for (x, z), a in f.items():
        for (u, y), b in g.items():
            if z == u:
                out[(x, y)] = out.get((x, y), 0) + a * b
    return {k: v for k, v in out.items() if v}


def subtract(f: dict, g: dict) -> dict:
    out = dict(f)
    for k, v in g.items():
        out[k] = out.get(k, 0) - v
    return {k: v for k, v in out.items() if v}


def as_fractions(coeffs) -> dict:
    """{(lo, hi): Fraction} from a poisset element's coefficient map."""
    return {(lo, hi): Fraction(c.value) for (lo, hi), c in coeffs.items()}
