"""Maximum matchings: bipartite (layered augmenting paths), general
(blossom contraction), a brute-force oracle, and matching predicates.

Every bipartite matching built from scratch comes from `_match_sides`:
it gives each vertex of one side a left copy and each vertex of the
other a right copy, joins them along the graph's edges and runs
Hopcroft-Karp.  The double cover, the S-versus-N(S) matchings and the
matchings between two vertex sets are all such matchings.  The general
matching of a graph is computed once and cached by `_base_matching`.

One blossom-contraction routine, `_grow`, finds the augmenting paths
and grows the forest of the cached matching from all its exposed
vertices; the forest's even vertices are the Gallai-Edmonds set D, so
mu(G - v) is a lookup (Edmonds; Lovasz-Plummer, Matching Theory, ch. 3).

Witness matchings are valid and maximum but not canonical; callers must
assert only size and validity.  Tie-breaking everywhere is lowest-vertex
first so repeated runs are reproducible.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

from .errors import LimitExceededError, PartitionError, PreconditionError
from .graphs import Graph, VertexSet, bits, delete_vertices

BRUTE_FORCE_LIMIT = 12


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges of a graph."""

    edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.edges)

    def covered(self) -> VertexSet:
        return frozenset(v for e in self.edges for v in e)

    def is_valid_for(self, g: Graph) -> bool:
        seen = set()
        for u, v in self.edges:
            if not g.has_edge(u, v) or u in seen or v in seen:
                return False
            seen.update((u, v))
        return True


def max_matching_bipartite(g: Graph, left: Iterable[int],
                           right: Iterable[int]) -> Matching:
    """Maximum matching of a bipartite graph via Hopcroft-Karp."""
    lmask = g.mask_of(left)
    rmask = g.mask_of(right)
    if lmask & rmask or (lmask | rmask) != g.full_mask:
        raise PartitionError("left/right do not partition the vertex set")
    for u, v in g.edges:
        if bool(lmask >> u & 1) == bool(lmask >> v & 1):
            raise PartitionError(f"edge ({u},{v}) does not cross the partition")
    return _matching_of_sides(*_match_sides(g, lmask, rmask))


def _match_sides(g: Graph, lmask: int, rmask: int
                 ) -> tuple[list[list[int]], list[int], list[int]]:
    """Maximum matching between a left copy of each vertex of lmask and a
    right copy of each vertex of rmask, joined along g's edges.

    Returns the left copies' adjacency lists, the Hopcroft-Karp match
    array over all copies and the vertex of g behind each copy.  The left
    copies come first, in ascending vertex order, then the right copies:
    with both masks full, vertex u has copies u and u + n, the layout of
    the double cover.  The masks may overlap.  Only the left copies have
    adjacency lists, because Hopcroft-Karp scans the edges of left
    vertices alone.
    """
    lvs = list(bits(lmask))
    rvs = list(bits(rmask))
    index = {v: len(lvs) + i for i, v in enumerate(rvs)}
    adj = [[index[w] for w in bits(g.adj[u] & rmask)] for u in lvs]
    match = _hopcroft_karp(len(lvs) + len(rvs), adj, list(range(len(lvs))))
    return adj, match, lvs + rvs


def _matching_of_sides(adj: list[list[int]], match: list[int],
                       labels: list[int]) -> Matching:
    """The matched pairs of a `_match_sides` result, as edges of g."""
    return Matching(tuple(sorted(
        tuple(sorted((labels[i], labels[match[i]])))
        for i in range(len(adj)) if match[i] != -1)))


def _hopcroft_karp(n: int, adj: list[list[int]], left: list[int]
                   ) -> list[int]:
    """Match array over all n vertices; -1 means unmatched.

    Only the vertices listed in `left` are searched from; a right vertex
    is entered only through its mate's `dist`, which the search sets for
    listed left vertices alone.
    """
    INF = n + 1
    match = [-1] * n
    dist = [0] * n
    while True:
        queue = deque()
        for u in left:
            if match[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            break

        def dfs(u: int) -> bool:
            for v in adj[u]:
                w = match[v]
                if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                    match[u] = v
                    match[v] = u
                    return True
            dist[u] = INF
            return False

        for u in left:
            if match[u] == -1:
                dfs(u)
    return match


def _grow(adj: list[list[int]], match: Sequence[int],
          roots: list[int]) -> tuple[int, list[int], bytearray]:
    """Grow the alternating forest of `match` breadth first from the
    exposed `roots`, contracting blossoms; return the first exposed vertex
    outside it that an even vertex reaches (-1 if none), the parent links
    back to its root and the even flags.  An edge joining two trees closes
    an augmenting path: that raises.  Each base keeps its members, so a
    contraction relabels only the blossoms it merges; members turning even
    are queued in ascending order, as a scan of all n vertices would."""
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    even = bytearray(n)
    members: dict[int, list[int]] = {}
    queue = deque(roots)
    for r in roots:
        even[r] = 1
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if even[to]:
                # The blossom's base: the first base on to's path to its
                # root that v's path passes too.
                a = base[v]
                above = {a}
                while match[a] != -1:
                    a = base[parent[match[a]]]
                    above.add(a)
                cur = base[to]
                while cur not in above:
                    if match[cur] == -1:
                        raise RuntimeError(
                            f"edge ({v},{to}) joins two alternating trees: "
                            "the matching is not maximum")
                    cur = base[parent[match[cur]]]
                merged = set()
                for x, child in ((v, to), (to, v)):
                    while base[x] != cur:
                        merged.update((base[x], base[match[x]]))
                        parent[x] = child
                        child = match[x]
                        x = parent[child]
                group = members.setdefault(cur, [cur])
                fresh = []
                for b in merged:
                    for x in members.pop(b, [b]):
                        base[x] = cur
                        group.append(x)
                        if not even[x]:
                            even[x] = 1
                            fresh.append(x)
                queue.extend(sorted(fresh))
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    return to, parent, even
                even[match[to]] = 1
                queue.append(match[to])
    return -1, parent, even


def _blossom(adj: list[list[int]], match: list[int]) -> None:
    """Augment `match` in place to a maximum matching by one search from
    each vertex still exposed in turn: a vertex with no augmenting path
    keeps having none after augmentations elsewhere (Edmonds)."""
    for root in range(len(adj)):
        if match[root] == -1:
            u, parent, _ = _grow(adj, match, [root])
            while u != -1:
                w = parent[u]
                nxt = match[w]
                match[u] = w
                match[w] = u
                u = nxt


@lru_cache(maxsize=4)
def _base_matching(g: Graph) -> tuple[list[list[int]], tuple[int, ...], int]:
    """Adjacency lists of g, one maximum matching and its size, shared by
    every `mu` and `max_matching_general` call on g: a greedy warm start,
    then one blossom pass unless g has no edge."""
    n = g.n
    adj = [list(bits(g.adj[v])) for v in range(n)]
    match = [-1] * n
    for u in range(n):
        if match[u] == -1:
            for v in adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break
    if g.edges:
        _blossom(adj, match)
    return adj, tuple(match), sum(1 for v in match if v != -1) // 2


@lru_cache(maxsize=4)
def _even_vertices(g: Graph) -> int:
    """Bitmask of the even vertices of the forest that g's cached maximum
    matching grows from all its exposed vertices: the set D."""
    adj, match, _ = _base_matching(g)
    _, _, even = _grow(adj, match, [v for v in range(g.n) if match[v] == -1])
    return sum(1 << v for v in range(g.n) if even[v])


def max_matching_general(g: Graph) -> Matching:
    """Maximum matching of an arbitrary graph via blossom contraction."""
    match = _base_matching(g)[1]
    return Matching(tuple((u, v) for u, v in enumerate(match) if v > u))


def mu(g: Graph, removed: Iterable[int] = ()) -> int:
    """Matching number of g - removed.

    The maximum matching M of g is computed once per graph, and one
    deleted vertex v is read off the forest that M grows from all its
    exposed vertices (see `_grow`).  mu(G - v) is mu when some maximum
    matching misses v and mu - 1 otherwise, and one does iff v is even:

    * an even vertex ends an even alternating path from a root, through
      blossoms on whichever side it needs, and flipping M along it
      misses v;
    * once the forest stops growing, each edge at an even vertex ends at
      an odd vertex or in its own blossom, since one into another tree
      would augment M.  So the odd vertices split off the outermost
      blossoms as odd components, one more per tree than odd vertices:
      a Tutte-Berge barrier, and every maximum matching covers the odd
      and unlabelled vertices.

    Several deleted vertices are answered from a fresh matching of
    g - removed, an oracle route that no polynomial route here uses.
    """
    size = _base_matching(g)[2]
    gone = g.mask_of(removed)
    if not gone:
        return size
    if gone & gone - 1:
        return mu(delete_vertices(g, bits(gone))[0])
    return size - 1 + (_even_vertices(g) >> gone.bit_length() - 1 & 1)


def max_matching_bruteforce(g: Graph, limit: int = BRUTE_FORCE_LIMIT) -> int:
    """Exhaustive matching number; independent oracle for the blossom code."""
    if g.n > limit:
        raise LimitExceededError(f"n={g.n} exceeds brute-force limit {limit}")
    adj = g.adj

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return 0
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        res = best(rest)
        for w in bits(adj[v] & rest):
            res = max(res, 1 + best(rest ^ (1 << w)))
        return res

    result = best(g.full_mask)
    best.cache_clear()
    return result


def matching_from_into(g: Graph, a: Iterable[int],
                       b: Iterable[int]) -> Matching | None:
    """A matching saturating a, using only a-b edges, or None if impossible.

    The empty matching (a = empty set) is returned as a Matching, not None.
    """
    amask = g.mask_of(a)
    bmask = g.mask_of(b)
    if amask & bmask:
        raise PreconditionError("a and b must be disjoint")
    # Hall's condition fails on a itself: no matching to build.
    if amask.bit_count() > bmask.bit_count():
        return None
    adj, match, labels = _match_sides(g, amask, bmask)
    if -1 in match[:len(adj)]:
        return None
    return _matching_of_sides(adj, match, labels)


def has_perfect_matching(g: Graph) -> bool:
    return g.n % 2 == 0 and mu(g) == g.n // 2


def is_factor_critical(g: Graph) -> bool:
    """True iff deleting any single vertex leaves a perfect matching."""
    if g.n % 2 == 0:
        return g.n == 0
    half = g.n // 2
    return all(mu(g, [v]) == half for v in range(g.n))
