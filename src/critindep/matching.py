"""Maximum matchings: bipartite (layered augmenting paths), general
(blossom contraction), a brute-force oracle, and matching predicates.

Every bipartite matching built from scratch comes from `_match_sides`:
it gives each vertex of one side a left copy and each vertex of the
other a right copy, joins them along the graph's edges and runs
Hopcroft-Karp.  The double cover, the S-versus-N(S) matchings and the
matchings between two vertex sets are all such matchings.  The general
matching of a graph is computed once and cached by `_base_matching`.

Witness matchings are valid and maximum but not canonical; callers must
assert only size and validity.  Tie-breaking everywhere is lowest-vertex
first so repeated runs are reproducible.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
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


def _blossom(n: int, adj: list[list[int]], match: list[int],
             roots: Iterable[int]) -> int:
    """Augment `match` in place by one blossom-contraction search from each
    root that is still exposed when its turn comes; return the number of
    augmentations.

    A single pass over the exposed vertices yields a maximum matching: a
    vertex with no augmenting path keeps having none after augmentations
    elsewhere (Edmonds), and a matched vertex stays matched.
    """
    p = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
        for i in range(n):
            p[i] = -1
            base[i] = i
        used = [False] * n
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    cur = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, cur, to, blossom)
                    mark_path(to, cur, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = p[u]
                            nxt = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = nxt
                        return True
                    if not used[match[to]]:
                        used[match[to]] = True
                        queue.append(match[to])
        return False

    augmented = 0
    for v in roots:
        if match[v] == -1 and find_path(v):
            augmented += 1
    return augmented


@lru_cache(maxsize=4)
def _base_matching(g: Graph) -> tuple[list[list[int]], tuple[int, ...], int]:
    """Adjacency lists of g, one maximum matching and its size, shared by
    every `mu` and `max_matching_general` call on g: a greedy warm start,
    then one blossom pass over every vertex.  The lists are shared too:
    callers copy before they change anything."""
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
    _blossom(n, adj, match, range(n))
    return adj, tuple(match), sum(1 for v in match if v != -1) // 2


def max_matching_general(g: Graph) -> Matching:
    """Maximum matching of an arbitrary graph via blossom contraction."""
    match = _base_matching(g)[1]
    return Matching(tuple((u, v) for u, v in enumerate(match) if v > u))


def mu(g: Graph, removed: Iterable[int] = ()) -> int:
    """Matching number of g - removed.

    The maximum matching M of g is computed once per graph, and one
    deleted vertex v is answered by repairing it.  If M misses v, M is
    still maximum in g - v.  Otherwise the pair at v is dropped, v is cut
    out of its neighbours' adjacency lists, and one blossom search runs
    from its freed mate.  Every augmenting path left ends at that mate:
    one between two other exposed vertices would augment M in g.

    Several deleted vertices are answered from a fresh matching of
    g - removed, an oracle route that no polynomial route here uses.
    """
    adj, base, size = _base_matching(g)
    gone = g.mask_of(removed)
    if not gone:
        return size
    if gone & gone - 1:
        return mu(delete_vertices(g, bits(gone))[0])
    v = gone.bit_length() - 1
    mate = base[v]
    if mate == -1:
        return size
    match = list(base)
    match[v] = match[mate] = -1
    adj = list(adj)
    adj[v] = []
    for w in bits(g.adj[v]):
        adj[w] = [x for x in adj[w] if x != v]
    return size - 1 + _blossom(g.n, adj, match, [mate])


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
