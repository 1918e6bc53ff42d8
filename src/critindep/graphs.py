"""Immutable simple-graph representation, formats, and elementary queries.

Vertices are dense integers 0..n-1.  Vertex subsets cross the public API as
frozensets.  A graph is its vertex count and sorted edge tuple; it carries
two adjacency representations, each built in one pass over the edges the
first time a routine reads it:

* `nbrs`, sorted neighbour tuples, read by every polynomial route: the
  double cover, the matchings, deletions, components, the unique cycle
  and the set operations `neighborhood`, `difference` and `has_edge`.
  They cost O(n + m).  The connected components are read off them once
  too, into `components`, which every component and cycle query shares.
* `adj`, one integer bitmask per vertex (bit w set means w is a
  neighbour), read only by the exhaustive 2^n oracles, where union and
  intersection take one machine operation per word.  They cost O(n^2)
  bits, so no polynomial route builds them.

Each is a `functools.cached_property`, kept in the graph's own `__dict__`.
The structures other modules derive from a graph (the double cover's
matching and its alternating structure, the Edmonds matching, the
Gallai-Edmonds partition) are kept there too, by `_per_graph`: each is
built once per Graph object, shared by every query on it, and freed with
it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import accumulate, compress
from math import isqrt

from .errors import FormatError, InvalidVertexError, NotUnicyclicError

VertexSet = frozenset[int]

# The largest n that graph6's 4-byte size field holds; an edge-list header
# beyond it is rejected before any per-vertex array is allocated.
MAX_VERTICES = 258047


def bits(mask: int):
    """Iterate over the set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_of(mask: int) -> VertexSet:
    return frozenset(bits(mask))


@dataclass(frozen=True)
class Graph:
    """A finite simple graph: no loops, no parallel edges.  `n` and the
    sorted edge tuple are its only compared and hashed fields."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def build(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise InvalidVertexError(f"negative vertex count {n}")
        seen = set()
        norm = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertexError(f"edge ({u},{v}) out of range 0..{n - 1}")
            if u == v:
                raise FormatError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise FormatError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        norm.sort()
        return Graph(n, tuple(norm))

    @cached_property
    def nbrs(self) -> tuple[tuple[int, ...], ...]:
        """The neighbours of each vertex, ascending.  The edges are sorted
        with u < v, so each vertex meets its smaller neighbours first, in
        order, and then its larger ones."""
        lists: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            lists[u].append(v)
            lists[v].append(u)
        return tuple(map(tuple, lists))

    @cached_property
    def components(self) -> tuple[VertexSet, ...]:
        """The maximal connected vertex sets, ordered by smallest member,
        found by one search over `nbrs` and shared by every reader."""
        nbrs = self.nbrs
        seen = bytearray(self.n)
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = 1
            comp = [start]
            for v in comp:
                for w in nbrs[v]:
                    if not seen[w]:
                        seen[w] = 1
                        comp.append(w)
            comps.append(frozenset(comp))
        return tuple(comps)

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """The neighbourhood bitmask of each vertex."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return len(self.nbrs[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.nbrs[u]

    def neighbors(self, v: int) -> VertexSet:
        return frozenset(self.nbrs[v])

    def vertex(self, v: int) -> int:
        """Validate one vertex and return it."""
        if not (0 <= v < self.n):
            raise InvalidVertexError(f"vertex {v} out of range 0..{self.n - 1}")
        return v

    def members(self, xs: Iterable[int]) -> VertexSet:
        """Validate a vertex collection and return it as a set."""
        out = frozenset(xs)
        if out and (min(out) < 0 or max(out) >= self.n):
            for v in out:
                self.vertex(v)
        return out

    def mask_of(self, xs: Iterable[int]) -> int:
        """Validate a vertex collection and pack it into a bitmask, for
        the subset oracles."""
        return sum(1 << v for v in self.members(xs))

    def flags_of(self, xs: Iterable[int], inside: int = 1) -> bytearray:
        """Validate a vertex collection and flag it, one byte per vertex:
        `inside` at its members and 1 - inside elsewhere."""
        flags = bytearray([1 - inside]) * self.n
        for v in self.members(xs):
            flags[v] = inside
        return flags

    def neighborhood_mask(self, xmask: int) -> int:
        adj = self.adj
        nb = 0
        for v in bits(xmask):
            nb |= adj[v]
        return nb

    def difference_mask(self, xmask: int) -> int:
        return xmask.bit_count() - self.neighborhood_mask(xmask).bit_count()


def _per_graph(build):
    """Memoise build(g) on the graph g itself, as `cached_property` does:
    the value is kept in g.__dict__ under the builder's qualified name, so
    it is built once per Graph object and freed with it."""
    key = f"{build.__module__}.{build.__qualname__}"

    @wraps(build)
    def memo(g: Graph):
        try:
            return g.__dict__[key]
        except KeyError:
            value = g.__dict__[key] = build(g)
            return value

    return memo


def neighborhood(g: Graph, x: Iterable[int]) -> VertexSet:
    """N(x): all vertices adjacent to some member of x.  May intersect x."""
    nbrs = g.nbrs
    return frozenset(w for v in g.members(x) for w in nbrs[v])


def difference(g: Graph, x: Iterable[int]) -> int:
    """d(x) = |x| - |N(x)|."""
    xs = g.members(x)
    return len(xs) - len(neighborhood(g, xs))


def induced_subgraph(g: Graph, u: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """G[u] plus the relabeling map: labels[new_id] = original vertex."""
    return _induced(g, g.flags_of(u))


def delete_vertices(g: Graph, x: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """G - x, i.e. the subgraph induced on V(g) minus x, with relabeling map."""
    return _induced(g, g.flags_of(x, inside=0))


def _induced(g: Graph, keep: bytearray) -> tuple[Graph, tuple[int, ...]]:
    """The subgraph induced on the flagged vertices, relabelled in
    ascending order, from one pass over the edges.  The new label of v is
    the number of kept vertices below it.  Relabelling keeps the order,
    so the edges come out valid, normalised and sorted, and `Graph.build`
    has nothing to check."""
    labels = tuple(compress(range(g.n), keep))
    index = list(accumulate(keep, initial=0))
    edges = tuple((index[a], index[b]) for a, b in g.edges
                  if keep[a] and keep[b])
    return Graph(len(labels), edges), labels


def connected_components(g: Graph) -> list[VertexSet]:
    """Maximal connected vertex sets, ordered by smallest member."""
    return list(g.components)


def cycle_space_dimension(g: Graph) -> int:
    return g.edge_count - g.n + len(g.components)


def find_unique_cycle(g: Graph) -> list[int] | None:
    """The unique cycle of g in canonical cyclic order, or None for a forest.

    Raises NotUnicyclicError when g has two or more independent cycles.
    Canonical order: starts at the smallest cycle vertex and proceeds toward
    its smaller cycle neighbor.

    With one independent cycle, peeling vertices of degree at most one
    until none is left leaves exactly the cycle, every vertex of it with
    two cycle neighbours; the walk from its smallest vertex then reads it
    off in canonical order.
    """
    dim = cycle_space_dimension(g)
    if dim == 0:
        return None
    if dim > 1:
        raise NotUnicyclicError(f"cycle space dimension {dim}, expected at most 1")
    # degree[v] counts v's unpeeled neighbours while v is unpeeled, and
    # stays at most one once v is peeled.
    nbrs = g.nbrs
    degree = [len(nb) for nb in nbrs]
    stack = [v for v in range(g.n) if degree[v] <= 1]
    while stack:
        for w in nbrs[stack.pop()]:
            degree[w] -= 1
            if degree[w] == 1:
                stack.append(w)
    start = next(v for v in range(g.n) if degree[v] > 1)
    prev, v = start, next(w for w in nbrs[start] if degree[w] > 1)
    cycle = [start]
    while v != start:
        cycle.append(v)
        prev, v = v, next(w for w in nbrs[v]
                          if degree[w] > 1 and w != prev)
    return cycle


# ---------------------------------------------------------------------------
# Edge-list text format: "n m" header, then m lines "u v" with 0 <= u < v < n.
# '#' starts a comment line.
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    header = None
    edges = []
    seen = set()
    n = m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise FormatError("expected header 'n m'", lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError("non-integer header", lineno) from None
            if n < 0:
                raise FormatError(f"negative vertex count {n}", lineno)
            if n > MAX_VERTICES:
                raise FormatError(
                    f"vertex count {n} exceeds the limit {MAX_VERTICES}",
                    lineno)
            header = lineno
            continue
        if len(parts) != 2:
            raise FormatError("expected edge 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError("non-integer edge endpoints", lineno) from None
        if not (0 <= u < v < n):
            raise FormatError(f"edge ({u},{v}) violates 0 <= u < v < n={n}", lineno)
        if (u, v) in seen:
            raise FormatError(f"duplicate edge ({u},{v})", lineno)
        seen.add((u, v))
        edges.append((u, v))
    if header is None:
        raise FormatError("missing 'n m' header")
    if len(edges) != m:
        raise FormatError(f"header declares {m} edges, found {len(edges)}")
    # Every edge passed the checks above, which are Graph.build's.
    edges.sort()
    return Graph(n, tuple(edges))


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph6: the standard printable bit-packed upper-triangle encoding.  Each
# character chr(63 + k) carries the six bits of k, most significant first.
# A size field (one character for n <= 62, '~' and three for n <= 258047,
# '~~' and six beyond) precedes the body, whose bit i is the pair (u, v),
# u < v, with i = v(v - 1)/2 + u, padded with zeros to a multiple of six.
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
# Spells each graph6 character as its six bits, for str.translate.
_G6_BITS = {63 + k: format(k, "06b") for k in range(64)}


def parse_graph6(line: str) -> Graph:
    s = line.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise FormatError("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        raise FormatError("graph6 byte out of range 63..126")
    if s[0] != "~":
        size, body = s[:1], s[1:]
    elif len(s) >= 4 and s[1] != "~":
        size, body = s[1:4], s[4:]
    elif len(s) >= 8:
        size, body = s[2:8], s[8:]
    else:
        raise FormatError("truncated graph6 size field")
    n = int(size.translate(_G6_BITS), 2)
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise FormatError(
            f"graph6 body length {len(body)} does not match n={n}")
    stream = body.translate(_G6_BITS)
    if "1" in stream[nbits:]:
        raise FormatError("nonzero graph6 padding bits")
    edges = []
    i = stream.find("1")
    while i != -1:
        v = (isqrt(8 * i + 1) + 1) // 2
        edges.append((i - v * (v - 1) // 2, v))
        i = stream.find("1", i + 1)
    # Distinct in-range pairs with u < v, by construction.
    edges.sort()
    return Graph(n, tuple(edges))


def _g6_chars(stream: str | bytearray) -> str:
    """Pack a '0'/'1' string whose length is a multiple of six."""
    return "".join(chr(63 + int(stream[i:i + 6], 2))
                   for i in range(0, len(stream), 6))


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= MAX_VERTICES:
        head = "~" + _g6_chars(format(n, "018b"))
    else:
        head = "~~" + _g6_chars(format(n, "036b"))
    nbits = n * (n - 1) // 2
    stream = bytearray(b"0") * (nbits + -nbits % 6)
    for u, v in g.edges:
        stream[v * (v - 1) // 2 + u] = ord("1")
    return head + _g6_chars(stream)
