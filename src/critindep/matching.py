"""Maximum matchings: bipartite (layered augmenting paths), general
(blossom contraction), a brute-force oracle, and matching predicates.

Every bipartite matching comes from `_match_sides`: it gives each vertex
of one side a left copy and each vertex of the other a right copy, joins
them along the graph's edges and runs Hopcroft-Karp, which extends the
matching it is handed.  The double cover, the S-versus-N(S) matchings
and the matchings between two vertex sets are all such matchings.  The
double cover starts from the graph's own maximum matching, doubled,
which is n - 2 mu - d_c augmenting paths short of maximum; the others
start empty.  The layered search for augmenting paths is iterative, so a path
as long as the graph needs no deeper call stack than a short one.  Every
matching here reads the graph's neighbour lists; only the brute-force
oracle reads its n-bit masks.

The general matching of a graph is computed once per graph by
`_base_matching` and kept on the graph, from passes of one
blossom-contraction routine, `_forest` (Edmonds; Lovasz-Plummer,
Matching Theory, ch. 3).  Each pass grows one alternating forest from
every exposed vertex and flips each augmenting path it meets, an edge
between two trees.  The first pass, from the empty matching, matches
greedily.  `_maximise` repeats passes until one flips nothing: that
pass proves the matching maximum, and its even vertices are the
Gallai-Edmonds set D, so mu(G - v) is a lookup.  The factor-critical
flags of the components of G[D] come from the same passes, each started
from this matching's pairs inside its component.

Witness matchings are valid and maximum but not canonical; callers must
assert only size and validity.  Tie-breaking everywhere is lowest-vertex
first, so the general witness is deterministic; it is the matching the
forest passes reach.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from functools import lru_cache
from typing import NamedTuple

from .errors import LimitExceededError, PartitionError, PreconditionError
from .graphs import Graph, VertexSet, _per_graph, bits

BRUTE_FORCE_LIMIT = 12


class Matching(NamedTuple):
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
    lset = g.members(left)
    rset = g.members(right)
    if not lset.isdisjoint(rset) or len(lset) + len(rset) != g.n:
        raise PartitionError("left/right do not partition the vertex set")
    for u, v in g.edges:
        if (u in lset) == (v in lset):
            raise PartitionError(f"edge ({u},{v}) does not cross the partition")
    return _matching_of_sides(*_match_sides(g, sorted(lset), sorted(rset)))


def _match_sides(g: Graph, left: Sequence[int], right: Sequence[int],
                 partner: Sequence[int] | None = None
                 ) -> tuple[list[list[int]], list[int], list[int]]:
    """Maximum matching between a left copy of each vertex of `left` and
    a right copy of each vertex of `right`, two ascending vertex lists,
    joined along g's edges.

    Returns the left copies' adjacency lists, the Hopcroft-Karp match
    array over all copies and the vertex of g behind each copy.  The left
    copies come first, in list order, then the right copies: with both
    lists the whole range, vertex u has copies u and u + n, the layout of
    the double cover.  The lists may overlap.  Only the left copies have
    adjacency lists, read off g's neighbour lists, because Hopcroft-Karp
    scans the edges of left vertices alone.

    `partner`, a matching of g given as each vertex's mate in g's labels
    (-1 at an exposed vertex), seeds the search: the left copy of u is
    matched to the right copy of partner[u] wherever both copies exist,
    and Hopcroft-Karp extends that matching.
    """
    index = [-1] * g.n
    for i, v in enumerate(right, len(left)):
        index[v] = i
    nbrs = g.nbrs
    adj = [[i for w in nbrs[u] if (i := index[w]) != -1] for u in left]
    match = [-1] * (len(left) + len(right))
    if partner is not None:
        for i, u in enumerate(left):
            w = partner[u]
            if w != -1 and (j := index[w]) != -1:
                match[i] = j
                match[j] = i
    _hopcroft_karp(adj, match, range(len(left)))
    return adj, match, [*left, *right]


def _matching_of_sides(adj: list[list[int]], match: list[int],
                       labels: list[int]) -> Matching:
    """The matched pairs of a `_match_sides` result, as edges of g."""
    return Matching(tuple(sorted(
        tuple(sorted((labels[i], labels[match[i]])))
        for i in range(len(adj)) if match[i] != -1)))


def _hopcroft_karp(adj: list[list[int]], match: list[int],
                   left: Sequence[int]) -> None:
    """Extend `match`, a match array over all vertices (-1 means
    unmatched), in place to a maximum matching.

    Only the vertices listed in `left` are searched from; a right vertex
    is entered only through its mate's `dist`, which the search sets for
    listed left vertices alone.  Each listed vertex still exposed first
    takes its first free neighbour, a greedy pass that stands in for the
    first phase when `match` starts empty; then phases of layered
    augmenting paths run until none is left.
    """
    n = len(match)
    INF = n + 1
    for u in left:
        if match[u] == -1:
            for v in adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break
    dist = [0] * n

    def search(root: int) -> None:
        """Flip the first augmenting path from the exposed root along the
        layers of `dist`, if there is one.  The depth-first search keeps
        its path on two lists rather than on the call stack, since a path
        may be as long as the graph: the left vertices, the k-th in layer
        k, and an iterator over the neighbours each has not tried.  Each
        step passes through the right vertex that is the next vertex's
        mate.  A left vertex that leads to no free right vertex leaves
        the layers."""
        path = [root]
        untried = [iter(adj[root])]
        while untried:
            for v in untried[-1]:
                w = match[v]
                if w == -1:
                    # Each left vertex takes the right vertex it leads
                    # through and hands its old mate on to the one before.
                    for x in reversed(path):
                        match[v] = x
                        v, match[x] = match[x], v
                    return
                if dist[w] == len(path):
                    path.append(w)
                    untried.append(iter(adj[w]))
                    break
            else:
                dist[path.pop()] = INF
                untried.pop()

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
        for u in left:
            if match[u] == -1:
                search(u)


def _flip(match: list[int], parent: list[int], u: int) -> None:
    """Flip the alternating path from u to its tree's root: u, its parent,
    that parent's old mate, and so on.  u is an odd vertex, or a vertex
    left exposed by an earlier flip; u = -1 is the empty path."""
    while u != -1:
        w = parent[u]
        nxt = match[w]
        match[u] = w
        match[w] = u
        u = nxt


def _forest(adj: Sequence[Sequence[int]],
            match: list[int]) -> tuple[bool, bytearray]:
    """One pass of Edmonds' search: grow the alternating forest of `match`
    breadth first from all its exposed vertices, contracting blossoms.

    An edge joining even vertices of two live trees closes an augmenting
    path: it is flipped in place, and both trees are retired until the
    pass ends while the others keep growing.  Return whether anything was
    flipped, and the even flags.  A pass that flips nothing proves `match`
    maximum, and its even vertices are the Gallai-Edmonds set D.  Each
    base keeps its members, so a contraction relabels only the blossoms it
    merges; members turning even are queued in ascending order.
    """
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    root = list(range(n))   # the root of each labelled vertex's tree
    even = bytearray(m == -1 for m in match)
    retired = bytearray(n)
    members: dict[int, list[int]] = {}
    queue = deque(v for v in range(n) if even[v])
    flipped = False
    while queue:
        v = queue.popleft()
        if retired[root[v]]:
            continue
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to or retired[root[to]]:
                continue
            if even[to]:
                if root[to] != root[v]:
                    # Flip to's side, which frees to; then to hangs below
                    # v as the exposed end of v's side.
                    _flip(match, parent, match[to])
                    parent[to] = v
                    _flip(match, parent, to)
                    retired[root[v]] = retired[root[to]] = 1
                    flipped = True
                    break
                # The blossom's base: the first base on to's path to the
                # root that v's path passes too; both paths end at it.
                a = base[v]
                above = {a}
                while match[a] != -1:
                    a = base[parent[match[a]]]
                    above.add(a)
                cur = base[to]
                while cur not in above:
                    cur = base[parent[match[cur]]]
                merged = set()
                for x, child in ((v, to), (to, v)):
                    while base[x] != cur:
                        merged.update((base[x], base[match[x]]))
                        parent[x] = child
                        child = match[x]
                        x = parent[child]
                joined = [x for b in merged for x in members.pop(b, [b])]
                members.setdefault(cur, [cur]).extend(joined)
                for x in joined:
                    base[x] = cur
                fresh = sorted(x for x in joined if not even[x])
                for x in fresh:
                    even[x] = 1
                queue.extend(fresh)
            elif parent[to] == -1:
                # Every exposed vertex is a root, so to is matched.
                parent[to] = v
                mate = match[to]
                root[to] = root[mate] = root[v]
                even[mate] = 1
                queue.append(mate)
    return flipped, even


class _MaxMatching(NamedTuple):
    """One maximum matching of a graph, its size and the flags of the
    Gallai-Edmonds set D (see `_base_matching`)."""

    match: tuple[int, ...]
    size: int
    even: bytes     # 1 at each vertex of D


def _maximise(adj: Sequence[Sequence[int]], match: list[int]) -> bytearray:
    """Extend `match` in place to a maximum matching by `_forest` passes
    until one flips nothing, and return that pass's even flags: the
    Gallai-Edmonds set D of the graph `adj` lists."""
    while True:
        flipped, even = _forest(adj, match)
        if not flipped:
            return even


@_per_graph
def _base_matching(g: Graph) -> _MaxMatching:
    """One maximum matching of g, its size and D, shared by every `mu`,
    `max_matching_general` and `is_factor_critical` call on g, and the
    seed of g's double cover: `_maximise` from the empty matching."""
    match = [-1] * g.n
    even = _maximise(g.nbrs, match)
    return _MaxMatching(tuple(match), (g.n - match.count(-1)) // 2,
                        bytes(even))


def max_matching_general(g: Graph) -> Matching:
    """Maximum matching of an arbitrary graph via blossom contraction."""
    match = _base_matching(g).match
    return Matching(tuple((u, v) for u, v in enumerate(match) if v > u))


def mu(g: Graph, v: int | None = None) -> int:
    """Matching number of g, or of g - v when a vertex v is given.

    The maximum matching M of g is computed once per graph by passes of
    one alternating forest (see `_forest`), and one deleted vertex v is
    read off the last pass, which grows from all of M's exposed vertices
    and flips nothing.  mu(G - v) is mu when some maximum matching misses
    v and mu - 1 otherwise, and one does iff v is even in that pass:

    * an even vertex ends an even alternating path from a root, through
      blossoms on whichever side it needs, and flipping M along it
      misses v;
    * once the forest stops growing, each edge at an even vertex ends at
      an odd vertex or in its own blossom, since one into another tree
      would have been flipped.  So the odd vertices split off the
      outermost blossoms as odd components, one more per tree than odd
      vertices: a Tutte-Berge barrier, and every maximum matching covers
      the odd and unlabelled vertices.
    """
    base = _base_matching(g)
    if v is None:
        return base.size
    return base.size - 1 + base.even[g.vertex(v)]


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
    aset = g.members(a)
    bset = g.members(b)
    if not aset.isdisjoint(bset):
        raise PreconditionError("a and b must be disjoint")
    # Hall's condition fails on a itself: no matching to build.
    if len(aset) > len(bset):
        return None
    adj, match, labels = _match_sides(g, sorted(aset), sorted(bset))
    if -1 in match[:len(adj)]:
        return None
    return _matching_of_sides(adj, match, labels)


def has_perfect_matching(g: Graph) -> bool:
    return g.n % 2 == 0 and mu(g) == g.n // 2


def is_factor_critical(g: Graph) -> bool:
    """True iff deleting any single vertex leaves a perfect matching: a
    maximum matching misses at most one vertex, and every vertex is in D,
    so that mu(G - v) = mu = floor(n/2) for each v (see `mu`).  A perfect
    matching leaves D empty, so a graph of even order n > 0 fails."""
    base = _base_matching(g)
    return base.size == g.n // 2 and 0 not in base.even
