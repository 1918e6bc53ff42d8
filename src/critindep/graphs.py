"""Immutable simple-graph representation, formats, and elementary queries.

Vertices are dense integers 0..n-1.  Vertex subsets cross the public API as
frozensets; internally most routines work on integer bitmasks (bit v set
means vertex v is in the set), which keeps union/intersection/neighborhood
at one machine operation per word and makes the exhaustive subset oracles
feasible up to n = 20.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

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
    """A finite simple graph: no loops, no parallel edges, symmetric adjacency."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[int, ...] = field(compare=False)

    def __post_init__(self) -> None:
        # Every per-graph cache lookup hashes the graph; hashing the edge
        # tuple walks all m edges, so do it once.
        object.__setattr__(self, "_hash", hash((self.n, self.edges)))

    def __hash__(self) -> int:
        return self._hash

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
        adj = [0] * n
        for u, v in norm:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(norm), tuple(adj))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> VertexSet:
        return set_of(self.adj[v])

    def mask_of(self, xs: Iterable[int]) -> int:
        """Validate a vertex collection and pack it into a bitmask."""
        m = 0
        for v in xs:
            if not (0 <= v < self.n):
                raise InvalidVertexError(f"vertex {v} out of range 0..{self.n - 1}")
            m |= 1 << v
        return m

    def neighborhood_mask(self, xmask: int) -> int:
        nb = 0
        for v in bits(xmask):
            nb |= self.adj[v]
        return nb

    def difference_mask(self, xmask: int) -> int:
        return xmask.bit_count() - self.neighborhood_mask(xmask).bit_count()


def neighborhood(g: Graph, x: Iterable[int]) -> VertexSet:
    """N(x): all vertices adjacent to some member of x.  May intersect x."""
    return set_of(g.neighborhood_mask(g.mask_of(x)))


def difference(g: Graph, x: Iterable[int]) -> int:
    """d(x) = |x| - |N(x)|."""
    return g.difference_mask(g.mask_of(x))


def induced_subgraph(g: Graph, u: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """G[u] plus the relabeling map: labels[new_id] = original vertex."""
    labels = tuple(sorted(set_of(g.mask_of(u))))
    index = {v: i for i, v in enumerate(labels)}
    edges = [
        (index[a], index[b]) for a, b in g.edges if a in index and b in index
    ]
    return Graph.build(len(labels), edges), labels


def delete_vertices(g: Graph, x: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """G - x, i.e. the subgraph induced on V(g) minus x, with relabeling map."""
    keep = g.full_mask & ~g.mask_of(x)
    return induced_subgraph(g, bits(keep))


def connected_components(g: Graph) -> list[VertexSet]:
    """Maximal connected vertex sets, ordered by smallest member."""
    unseen = g.full_mask
    comps = []
    while unseen:
        start = unseen & -unseen
        comp = start
        frontier = start
        while frontier:
            nb = g.neighborhood_mask(frontier) & unseen & ~comp
            comp |= nb
            frontier = nb
        unseen &= ~comp
        comps.append(set_of(comp))
    return comps


def cycle_space_dimension(g: Graph) -> int:
    return g.edge_count - g.n + len(connected_components(g))


def find_unique_cycle(g: Graph) -> list[int] | None:
    """The unique cycle of g in canonical cyclic order, or None for a forest.

    Raises NotUnicyclicError when g has two or more independent cycles.
    Canonical order: starts at the smallest cycle vertex and proceeds toward
    its smaller cycle neighbor.
    """
    dim = cycle_space_dimension(g)
    if dim == 0:
        return None
    if dim > 1:
        raise NotUnicyclicError(f"cycle space dimension {dim}, expected at most 1")
    # Spanning forest; the single non-tree edge closes the unique cycle.
    parent = [-1] * g.n
    seen = 0
    tree_edges = set()
    for root in range(g.n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        stack = [root]
        while stack:
            v = stack.pop()
            for w in bits(g.adj[v]):
                if not (seen >> w & 1):
                    seen |= 1 << w
                    parent[w] = v
                    tree_edges.add((min(v, w), max(v, w)))
                    stack.append(w)
    extras = [e for e in g.edges if e not in tree_edges]
    assert len(extras) == 1
    u, v = extras[0]
    # Path from u and v up to their common ancestor.
    anc_u = []
    x = u
    while x != -1:
        anc_u.append(x)
        x = parent[x]
    on_u = {x: i for i, x in enumerate(anc_u)}
    path_v = []
    x = v
    while x not in on_u:
        path_v.append(x)
        x = parent[x]
    cycle = anc_u[: on_u[x] + 1] + list(reversed(path_v))
    return canonical_cycle(cycle)


def canonical_cycle(cycle: list[int]) -> list[int]:
    """Rotate/reflect a cyclic vertex sequence to its canonical form."""
    i = cycle.index(min(cycle))
    rot = cycle[i:] + cycle[:i]
    if rot[1] > rot[-1]:
        rot = [rot[0]] + rot[1:][::-1]
    return rot


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
    return Graph.build(n, edges)


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph6: the standard printable bit-packed upper-triangle encoding.
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def parse_graph6(line: str) -> Graph:
    s = line.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise FormatError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise FormatError("graph6 byte out of range 63..126")
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    else:
        if len(data) >= 4 and data[1] < 63:
            n = (data[1] << 12) | (data[2] << 6) | data[3]
            body = data[4:]
        elif len(data) >= 8:
            n = 0
            for b in data[2:8]:
                n = (n << 6) | b
            body = data[8:]
        else:
            raise FormatError("truncated graph6 size field")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise FormatError(
            f"graph6 body length {len(body)} does not match n={n}")
    bitstream = []
    for b in body:
        for k in range(5, -1, -1):
            bitstream.append(b >> k & 1)
    if any(bitstream[nbits:]):
        raise FormatError("nonzero graph6 padding bits")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bitstream[idx]:
                edges.append((u, v))
            idx += 1
    return Graph.build(n, edges)


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= MAX_VERTICES:
        head = "~" + "".join(
            chr(((n >> k) & 63) + 63) for k in (12, 6, 0))
    else:
        head = "~~" + "".join(
            chr(((n >> k) & 63) + 63) for k in (30, 24, 18, 12, 6, 0))
    bitstream = []
    for v in range(1, n):
        for u in range(v):
            bitstream.append(1 if g.has_edge(u, v) else 0)
    while len(bitstream) % 6:
        bitstream.append(0)
    body = []
    for i in range(0, len(bitstream), 6):
        val = 0
        for b in bitstream[i:i + 6]:
            val = val << 1 | b
        body.append(chr(val + 63))
    return head + "".join(body)
