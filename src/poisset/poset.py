"""Finite posets: construction from covers, order queries, chains, and the
partition of strict comparable pairs that parametrizes Poisson structures.

A poset is built from a list of element labels and a list of cover pairs.
The reflexive-transitive closure is computed on construction, as one
integer bitmask per element holding its up-set (and one its down-set);
redundant covers are removed, so the stored Hasse relation is always the
transitive reduction.  Element order is the input order; intervals are
ordered lexicographically by (lo index, hi index) and listed on
construction.  The map from an interval to its rank and the basis
multiplication table are built on first use, by interval_index or
basis_products, and so are the Leibniz families, by leibniz_index.  Chain
components are found from the covers alone, each strict pair placed by
the covers at its bottom.  Posets are immutable.
"""

from __future__ import annotations

from itertools import accumulate, compress, repeat
from operator import itemgetter
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
        self.classes: tuple[tuple[StrictPair, ...], ...] = tuple(map(tuple, classes))
        self._class_of: dict[StrictPair, int] | None = None

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def class_index(self, pair: StrictPair) -> int:
        """The index of pair's class; the map is built on the first call."""
        if self._class_of is None:
            self._class_of = {p: idx for idx, cls in enumerate(self.classes) for p in cls}
        return self._class_of[pair]

    def same_class(self, a: StrictPair, b: StrictPair) -> bool:
        return self.class_index(a) == self.class_index(b)

    def __repr__(self):
        return f"PairPartition({list(map(list, self.classes))})"


class BasisProducts(NamedTuple):
    """The multiplication table of the basis e_xy, on interval ranks.

    e_xy e_yz = e_xz, and every other product of basis elements is zero.
    product[(a, b)] = t when e_a e_b = e_t, keyed in canonical order;
    factors[t] lists the (a, b) with e_a e_b = e_t, in product's order;
    right[b] lists the (t, k) with e_k e_b = e_t and left[a] the (t, k)
    with e_a e_k = e_t, by ascending k; rank maps each interval to its
    rank.
    One table is shared by every caller, so none may mutate it.
    """

    product: dict[tuple[int, int], int]
    factors: tuple[tuple[tuple[int, int], ...], ...]
    right: tuple[tuple[tuple[int, int], ...], ...]
    left: tuple[tuple[tuple[int, int], ...], ...]
    rank: dict[Interval, int]


class LeibnizIndex(NamedTuple):
    """The Leibniz families of a poset, on interval ranks: factors[t] lists
    the (a, b) of BasisProducts.factors[t] with a a cover and b strict
    (poisset.solver, rule 3); full sums every R(a, b) (_leibniz_failures),
    generators those of H (poisset.bracket, Leibniz family)."""

    factors: tuple[tuple[tuple[int, int], ...], ...]
    full: tuple
    generators: tuple


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
            # attach the larger root under the smaller for deterministic
            # reps; so no parent has a larger index than its child
            if ri < rj:
                self.parent[rj] = ri
            else:
                self.parent[ri] = rj


_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    if mask.bit_count() > 16:
        # past a few set bits one scan of the digits beats a big-int step
        # per bit: one byte per binary digit, lowest first, nonzero where set
        flags = bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)
        return list(compress(range(len(flags)), flags))
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def _on_cycle(succ: list[set[int]], left: set[int]) -> int:
    """An element on a cycle, given the elements a topological sort left.

    Each of them has a predecessor among them, so walking down from any
    of them must repeat, and the first repeat lies on a cycle.
    """
    below = {j: i for i in left for j in succ[i] if j in left}
    node, seen = min(left), set()
    while node not in seen:
        seen.add(node)
        node = below[node]
    return node


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

        # Kahn's algorithm; whatever it cannot order lies on or above a cycle
        indegree = [0] * n
        for targets in succ:
            for j in targets:
                indegree[j] += 1
        order = [i for i in range(n) if not indegree[i]]
        for i in order:
            for j in succ[i]:
                indegree[j] -= 1
                if not indegree[j]:
                    order.append(j)
        if len(order) < n:
            left = {i for i in range(n) if indegree[i]}
            raise CycleDetected(
                f"element {elements[_on_cycle(succ, left)]!r} lies on a cycle of covers"
            )

        # up-sets as bitmasks, top-down; bit j of up[i] means i <= j
        up = [0] * n
        for i in reversed(order):
            mask = 1 << i
            for j in succ[i]:
                mask |= up[j]
            up[i] = mask
        # every cover is an input edge: keep i -> j unless j lies above
        # another successor of i
        hasse = []
        for i in range(n):
            above = 0
            for k in succ[i]:
                above |= up[k] ^ (1 << k)
            hasse.append(tuple(sorted(j for j in succ[i] if not above >> j & 1)))
        down = [1 << i for i in range(n)]
        for i in order:
            for j in hasse[i]:
                down[j] |= down[i]
        self._order = tuple(order)
        self._up = tuple(up)
        self._down = tuple(down)
        self._hasse = tuple(hasse)
        self._covers: tuple[tuple[str, str], ...] = tuple(
            (elements[i], elements[j]) for i in range(n) for j in hasse[i]
        )

        # tuple.__new__ builds the named tuples without a Python-level call
        intervals: list[Interval] = []
        for i in range(n):
            tops = map(elements.__getitem__, _bits(up[i]))
            intervals += map(tuple.__new__, repeat(Interval), zip(repeat(elements[i]), tops))
        self._intervals = tuple(intervals)
        self._interval_index: dict[Interval, int] | None = None
        self._products: BasisProducts | None = None
        self._leibniz: LeibnizIndex | None = None

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
        return bool(self._up[self.index(x)] >> self.index(y) & 1)

    def lt(self, x: str, y: str) -> bool:
        return x != y and self.leq(x, y)

    def comparable(self, x: str, y: str) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def intervals(self) -> tuple[Interval, ...]:
        """All pairs x <= y in canonical order; the basis index set."""
        return self._intervals

    def interval_index(self, iv: Interval) -> int:
        """The rank of iv in intervals(); KeyError when iv is no interval.

        The first call builds the map from interval to rank (see _rank),
        after which interval_index is that dict's own lookup: a call costs
        one dict lookup and no Python-level call.
        """
        return self._rank()[iv]

    def _rank(self) -> dict[Interval, int]:
        """The map from interval to rank, built on first use and cached."""
        if self._interval_index is None:
            ivs = self._intervals
            self._interval_index = rank = dict(zip(ivs, range(len(ivs))))
            # a plain attribute shadowing the method; functools.cached_property
            # would write through the instance __dict__, which makes every
            # attribute read of this poset slower on CPython 3.11
            self.interval_index = rank.__getitem__
        return self._interval_index

    def basis_products(self) -> BasisProducts:
        """The basis multiplication table, built on first use and cached.

        Each a = [lo, mid] meets exactly the b in starting[mid], so the
        build is O(number of nonzero products), not O(intervals^2).
        """
        if self._products is None:
            intervals, rank = self._intervals, self._rank()
            starting: dict[str, list[int]] = {x: [] for x in self._elements}
            for r, (lo, _) in enumerate(intervals):
                starting[lo].append(r)
            product: dict[tuple[int, int], int] = {}
            factors: list[list] = [[] for _ in intervals]
            right: list[list] = [[] for _ in intervals]
            left: list[list] = [[] for _ in intervals]
            for a, (lo, mid) in enumerate(intervals):
                for b in starting[mid]:
                    # a plain tuple finds its Interval key: equal, same hash
                    product[a, b] = t = rank[lo, intervals[b].hi]
                    factors[t].append((a, b))
                    left[a].append((t, b))
                    right[b].append((t, a))
            indexes = (tuple(map(tuple, index)) for index in (factors, right, left))
            self._products = BasisProducts(product, *indexes, rank)
        return self._products

    def leibniz_index(self) -> LeibnizIndex:
        """The Leibniz families, built on first use and cached.  Each move
        of the generators is a BasisProducts move to a strict, a cover, an
        e_xx or a generator, chosen by its flag, never by its position."""
        if self._leibniz is None:
            _, factors, right, left, _ = self.basis_products()
            lo, hi = (tuple(self._index[iv[end]] for iv in self._intervals) for end in (0, 1))
            n, idem = len(factors), [x == y for x, y in zip(lo, hi)]
            # [x, y] factors as e_xx [x, y], [x, y] e_yy and once per x < z < y
            cover = [len(f) == 2 for f in factors]
            strict, every = [not e for e in idem], [True] * n
            gen = [c or e for c, e in zip(cover, idem)]
            narrowed = tuple(tuple((a, b) for a, b in f if cover[a] and strict[b]) for f in factors)

            def keys(moves, scale, keep):  # each move (t, s) with keep[s] as s * scale + t
                return tuple(tuple(s * scale + t for t, s in ms if keep[s]) for ms in moves)

            def products(fs):
                return tuple(tuple((a * n + b) * n for a, b in f) for f in fs)

            l_all, r_all, r_gen = keys(left, n, every), keys(right, n * n, every), keys(right, n * n, gen)
            by_cover, by_idem = (keys(left, n, strict), l_all), (keys(left, n, idem), l_all)
            to_cover, to_idem = (keys(right, n * n, cover), r_gen), (keys(right, n * n, idem), r_gen)
            neither = (((),) * n,) * 2
            generators = (
                products(factors[t] if idem[t] else f for t, f in enumerate(narrowed)),
                tuple(by_cover if cover[i] else by_idem if idem[i] else neither for i in range(n)),
                tuple(to_idem if idem[i] else to_cover for i in range(n)),
                lo,
                hi,
            )
            full = products(factors), ((l_all, l_all),) * n, ((r_all, r_all),) * n, lo, hi
            self._leibniz = LeibnizIndex(narrowed, full, generators)
        return self._leibniz

    def is_interval(self, lo: str, hi: str) -> bool:
        return lo in self._index and hi in self._index and self.leq(lo, hi)

    def strict_pairs(self) -> tuple[StrictPair, ...]:
        return tuple(
            StrictPair(lo, hi) for lo, hi in self._intervals if lo != hi
        )

    def between(self, lo: str, hi: str) -> tuple[str, ...]:
        """Elements z with lo <= z <= hi, in canonical element order."""
        mask = self._up[self.index(lo)] & self._down[self.index(hi)]
        return tuple(self._elements[k] for k in _bits(mask))

    # -- structure -----------------------------------------------------------

    def connected_components(self) -> tuple[tuple[str, ...], ...]:
        """Partition of the elements under comparability."""
        uf = _UnionFind(len(self._elements))
        for i, targets in enumerate(self._hasse):
            for j in targets:
                uf.union(i, j)
        groups: dict[int, list[int]] = {}
        for i in range(len(self._elements)):
            groups.setdefault(uf.find(i), []).append(i)
        return tuple(
            tuple(self._elements[i] for i in members)
            for _, members in sorted(groups.items())
        )

    def maximal_chains(self) -> tuple[tuple[str, ...], ...]:
        """All inclusion-maximal chains, ascending, in DFS order."""
        hasse, labels = self._hasse, self._elements
        chains: list[tuple[str, ...]] = []
        for start in range(len(labels)):
            if self._down[start] != 1 << start:
                continue
            # stack[k] walks the covers of path[k]; leaves are never pushed
            path, stack = [start], [iter(hasse[start])]
            if not hasse[start]:
                chains.append((labels[start],))
            while stack:
                child = next(stack[-1], None)
                if child is None:
                    stack.pop()
                    path.pop()
                elif hasse[child]:
                    path.append(child)
                    stack.append(iter(hasse[child]))
                else:
                    chains.append(tuple(labels[i] for i in path) + (labels[child],))
        return tuple(chains)

    def chain_components(self) -> PairPartition:
        """Strict pairs partitioned by the closure of "co-lie in a chain".

        Two strict pairs are in one class when their four endpoints are
        pairwise comparable, which for a finite poset is exactly when some
        chain contains both pairs; the classes are the transitive closure
        of that relation.

        The union-find below runs over the covers alone.  It joins each
        cover (a, b) with every cover (b, c), and two covers (x, w1),
        (x, w2) when some y lies above both, i.e. up[w1] & up[w2] != 0.
        Each strict pair (x, y) then goes to the class of the covers
        (x, w) with w <= y: there is one, as x < y, and any two of them
        are joined, as y lies above both.  Each join and each placement
        puts together two pairs on one chain (a < b < c, or x < w <= y),
        or two pairs that share a chain with (x, y), so it follows from
        the rule above.  Conversely, if two pairs lie on one chain, that
        chain extends to a saturated chain x0 < x1 < ... < xm of covers.
        Every pair (xi, xj) on it goes to the class of its bottom cover
        (xi, xi+1), and the covers (xi, xi+1), (xi+1, xi+2) are joined one
        after the next, so the whole chain is one class.

        A cover (a, x) below x joins every cover (x, w) to it, so the
        first join is made as a star at each x, O(covers).  The second
        matters only at an x with no cover below.  There each group of
        joined covers keeps the union of their up-sets; the unions stay
        disjoint, as a cover whose up-set meets some of them merges those
        groups, so each pair (x, y) is placed by the one union holding y.
        That costs O(covers * max degree) and then one step per pair.
        """
        up, down, hasse, labels = self._up, self._down, self._hasse, self._elements
        # the covers (x, w) get ids first[x], first[x] + 1, ... in order
        first = list(accumulate(map(len, hasse), initial=0))
        n_covers = first[-1]
        uf = _UnionFind(n_covers)
        union = uf.union
        # (x, [(a cover id, the union of the group's up-sets), ...]) for
        # each x with a cover above it
        rows: list[tuple[int, Iterable[tuple[int, int]]]] = []
        for x, targets in enumerate(hasse):
            if not targets:
                continue
            k0 = first[x]
            for k, w in enumerate(targets, k0):
                if hasse[w]:
                    union(k, first[w])
            if down[x] != 1 << x:
                for k in range(k0 + 1, k0 + len(targets)):
                    union(k0, k)
                rows.append((x, ((k0, up[x] ^ 1 << x),)))
                continue
            found: list[tuple[int, int]] = []
            taken = 0
            for k, w in enumerate(targets, k0):
                mask = up[w]
                if mask & taken:
                    kept = []
                    for rep, joined in found:
                        if joined & mask:
                            union(rep, k)
                            mask |= joined
                        else:
                            kept.append((rep, joined))
                    found = kept
                taken |= mask
                found.append((k, mask))
            rows.append((x, found))
        # a parent never has a larger id than its child, so one ascending
        # pass points every cover at its root
        root = uf.parent
        for k in range(n_covers):
            root[k] = root[root[k]]
        # the pairs by x, each group's by ascending y; a class is opened at
        # its first member, so sorting on that member orders the classes
        opened: list[tuple[int, int, list[StrictPair]]] = []
        class_of: list[list[StrictPair] | None] = [None] * n_covers
        for x, found in rows:
            if len(found) > 1:
                masks: dict[int, int] = {}
                for rep, joined in found:
                    masks[root[rep]] = masks.get(root[rep], 0) | joined
                found = masks.items()
            lo = labels[x]
            for rep, mask in found:
                # one pair, the rule on fences, skips the map pipeline
                if mask.bit_count() > 1:
                    ys = _bits(mask)
                    his = map(labels.__getitem__, ys)
                    pairs = map(tuple.__new__, repeat(StrictPair), zip(repeat(lo), his))
                    y = ys[0]
                else:
                    y = mask.bit_length() - 1
                    pairs = (tuple.__new__(StrictPair, (lo, labels[y])),)
                members = class_of[root[rep]]
                if members is None:
                    members = class_of[root[rep]] = []
                    opened.append((x, y, members))
                members += pairs
        opened.sort()
        return PairPartition(map(itemgetter(2), opened))

    def maximal_chain_overlap(self) -> bool:
        """True iff every two distinct maximal chains share >= 2 elements."""
        # an element comparable to every other lies on every maximal chain,
        # so two such elements settle it without listing the chains
        everything = (1 << len(self._elements)) - 1
        universal = sum(u | d == everything for u, d in zip(self._up, self._down))
        if universal >= 2:
            return True
        index = self._index
        chains = [sum(1 << index[x] for x in chain) for chain in self.maximal_chains()]
        return all(
            (chains[i] & chains[j]).bit_count() >= 2
            for i in range(len(chains))
            for j in range(i + 1, len(chains))
        )

    def heights(self) -> dict[str, int]:
        """Length of the longest chain below each element (0 for minimal)."""
        h = [0] * len(self._elements)
        for i in self._order:
            for j in self._hasse[i]:
                if h[j] <= h[i]:
                    h[j] = h[i] + 1
        return dict(zip(self._elements, h))

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
