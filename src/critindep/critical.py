"""Critical-structure computations: critical difference, critical sets,
ker, diadem, inclusion-minimal positive-difference sets, the two-vertex
bipartite gadget, and the decomposition of sets whose proper subsets all
have strictly smaller difference.

Polynomial routes, all read off one matching of the double cover:
  * critical difference via the bipartite double cover (d_c = n - mu(cover)),
  * ker by two routes.  `cover_ker` reads it straight off the slack
    left copies, with no lookups and no components; `GraphContext.ker`,
    and so the report, `hx`, the gadget check and every registry check
    that reads ker, take this one.  `ker` keeps the definition by
    per-vertex deletion (v is in ker iff d_c drops by one), each
    d_c(G - v) a lookup in the cover's alternating structure, as the
    oracle that `ker_is_intersection` holds `cover_ker` against, next to
    the intersection of the critical sets.
  * ker(G - v) for v in ker, by `ker_without`: the cover's matching is
    repaired into one of the cover of G - v by one path flip and at most
    one augmenting search, and one slack pass reads the set off it, with
    no fresh matching; `theorem_2_5ii` takes it for each ker vertex.
  * diadem membership read off the same structure: v is in the diadem
    iff some minimum vertex cover of the double cover misses both copies
    of v.

The copy layout and every Hopcroft-Karp run live in
`matching._match_sides`: the double cover is its matching with both
sides full, and the best difference inside a set S is |S| minus its
matching of S into N(S) (Hall's defect formula).  One maximum matching
M of the double cover is computed per graph and kept on the graph.  It
starts from the graph's own Edmonds matching, doubled (u to mate(u) + n),
which is n - 2 mu - d_c augmentations short of maximum.  M is kept
together with its alternating structure, built on first use: the slack
left copies (those an alternating path from an exposed left copy
reaches), each with the parent that leads back to its exposed copy, and,
over the other left copies, the strongly connected components of the
digraph x -> mate(r), r a right neighbour of x, with the set each
component reaches.

  * d_c(G - v) is d_c - 1 if v is slack.  Otherwise both copies of v are
    matched in every maximum matching, and only an alternating path
    between the two copies their pairs free can come back.  It does iff
    u = mate(v + n) reaches v: d_c if so, d_c + 1 if not.
  * a minimum vertex cover of the double cover takes one end of each
    pair of M, and the left copies it leaves out form a closed set of
    that digraph that holds every slack copy and no copy with an exposed
    right neighbour; every such set is left out by one minimum cover
    (Koenig; Dulmage-Mendelsohn).  Critical sets correspond to these
    covers, and J - N(J) is a critical independent set whenever J is
    critical (Larson, 2007), so the diadem is the set of vertices some
    such cover misses on both sides.

Each polynomial route has an exhaustive-subset oracle beside it; the test
suite holds them against each other on every corpus graph.  The oracles
read one subset table per graph: d(X) as one signed byte and an
independence flag as one byte for each of the 2^n masks X, built by
doubling over the vertices with `bytes.translate` and big-integer
operations rather than one Python step per mask.  The inclusion-minimal
positive sets come from the same table by a subset-OR closure on a big
integer with one byte per mask; `is_supermodular` decides whether d is
supermodular by one shifted big-integer marginal per vertex.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import combinations, compress
from typing import NamedTuple

from .errors import LimitExceededError, PreconditionError
from .graphs import (Graph, VertexSet, _per_graph, difference, neighborhood,
                     set_of)
from .independence import is_independent
from .matching import _base_matching, _match_sides

ENUMERATION_LIMIT = 16
SUBSET_SEARCH_LIMIT = 25


# ---------------------------------------------------------------------------
# Critical difference
# ---------------------------------------------------------------------------

class _Slack(NamedTuple):
    """The slack pass over one maximum matching of a double cover (see
    `_slack`)."""

    flags: bytearray    # 1 at each slack left copy
    parent: list[int]   # the copy whose right neighbour first reached it
    exposed: bytearray  # 1 at each exposed left copy
    roots: list[int]    # the exposed left copies that have neighbours


class _Alternating(NamedTuple):
    """The components of the left copies that are not slack, in one
    maximum matching of a double cover (see `_alternating`)."""

    comp: list[int]     # component of each such copy, -1 at slack ones
    reach: list[int]    # per component, the bitset of copies it reaches


class _Cover(NamedTuple):
    """The double cover of one graph, one maximum matching of it and d_c.

    The cover has a left copy u and a right copy u + n of every vertex u,
    and joins u to v + n and v to u + n for each edge uv.  `nbrs` lists
    the right neighbours of every left copy, as `_match_sides` builds
    them; nothing here walks out of a right copy.
    """

    nbrs: list[list[int]]
    match: tuple[int, ...]
    dc: int


@_per_graph
def _double_cover(g: Graph) -> _Cover:
    """The double cover of g, shared by every `critical_difference`,
    `cover_ker`, `ker_without` and `diadem` call on g.

    Its matching starts from g's own maximum matching M, doubled: u to
    mate(u) + n.  That matching of the cover has 2 mu pairs, and the
    cover's maximum has n - d_c, so Hopcroft-Karp has n - 2 mu - d_c
    augmenting paths left to find (d_c <= n - 2 mu), where from the
    empty matching it had n - d_c.
    """
    adj, match, _ = _match_sides(g, range(g.n), range(g.n),
                                 _base_matching(g).match)
    return _Cover(adj, tuple(match), match[:g.n].count(-1))


@_per_graph
def _slack_pass(g: Graph) -> _Slack:
    """The slack pass over g's cover matching, from the exposed left
    copies that have neighbours, for `cover_ker`, `ker_without` and every
    single-vertex deletion."""
    nbrs, match, _ = _double_cover(g)
    exposed = bytearray(m == -1 for m in match[:g.n])
    roots = [u for u in compress(range(g.n), exposed) if nbrs[u]]
    return _Slack(*_slack(nbrs, match, exposed, roots), exposed, roots)


@_per_graph
def _structure(g: Graph) -> _Alternating:
    """The components of g's cover matching, for the deletion of a vertex
    that is not slack and for `diadem`."""
    nbrs, match, _ = _double_cover(g)
    return _alternating(nbrs, match, _slack_pass(g).flags)


def _slack(nbrs: list[list[int]], match: Sequence[int], exposed: bytearray,
           roots: list[int]) -> tuple[bytearray, list[int]]:
    """The slack flags of a maximum matching M of a `_match_sides`
    bipartite graph, 1 at each slack left copy, and the parent of each
    copy the pass reaches.

    A left copy is slack when an alternating path from an exposed left
    copy reaches it (exposed left, a right neighbour, that neighbour's
    mate, ...); these are the left copies that some maximum matching
    misses (Dulmage-Mendelsohn).  Every right neighbour of a slack copy is
    matched, since M is maximum.  In the double cover, a copy v is slack
    iff v + n is missed by some maximum matching too: the mirror that
    swaps the copies maps maximum matchings to maximum matchings.

    `exposed` flags the exposed left copies and `roots` lists those with
    neighbours, where the pass starts.  The parent of a reached copy y is
    the copy x whose right neighbour mate(y) first reached it, so the
    parents lead from y back to an exposed copy along an even
    alternating path; it is -1 at the copies the pass does not reach.
    """
    flags = bytearray(exposed)
    parent = [-1] * len(flags)
    stack = list(roots)
    while stack:
        x = stack.pop()
        for r in nbrs[x]:
            y = match[r]
            if not flags[y]:
                flags[y] = 1
                parent[y] = x
                stack.append(y)
    return flags, parent


def _alternating(nbrs: list[list[int]], match: tuple[int, ...],
                 slack: bytearray) -> _Alternating:
    """The strongly connected components of the digraph x -> mate(r),
    over r in the right neighbours of x, on the left copies of a maximum
    matching M of the double cover that are not slack (see `_slack`),
    each with the bitset of copies it reaches.

    Slack copies only lead to slack copies, so the digraph is taken on
    the other copies alone.  Its strongly connected components come out
    of Tarjan's search sinks first, so each component's reach (a big
    integer bitset over vertices) is its members OR the reach of the
    components its edges enter, all finished before it.
    """
    n = len(match) // 2
    succ = [[y for r in nbrs[x] if (y := match[r]) != -1 and not slack[y]]
            for x in range(n)]
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    reach: list[int] = []
    tarjan: list[int] = []
    order = 0
    for root in range(n):
        if slack[root] or index[root] != -1:
            continue
        index[root] = low[root] = order
        order += 1
        tarjan.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            x, it = work[-1]
            for y in it:
                if index[y] == -1:
                    index[y] = low[y] = order
                    order += 1
                    tarjan.append(y)
                    work.append((y, iter(succ[y])))
                    break
                if comp[y] == -1 and index[y] < low[x]:
                    low[x] = index[y]
            else:
                work.pop()
                if work and low[x] < low[work[-1][0]]:
                    low[work[-1][0]] = low[x]
                if low[x] == index[x]:
                    c = len(reach)
                    bitset = 0
                    members = []
                    while not members or members[-1] != x:
                        y = tarjan.pop()
                        comp[y] = c
                        bitset |= 1 << y
                        members.append(y)
                    for y in members:
                        for z in succ[y]:
                            if comp[z] != c:
                                bitset |= reach[comp[z]]
                    reach.append(bitset)
    return _Alternating(comp, reach)


def critical_difference(g: Graph, v: int | None = None) -> int:
    """d_c(g), or d_c(g - v) when a vertex v is given: the max of d(X) over
    the subsets X, computed as the number of vertices minus the matching
    number of the double cover.

    By Koenig's theorem the cover's matching deficiency on one side
    equals the maximum difference.  The cover's maximum matching M is
    computed once per graph, and one deleted vertex v is answered from
    M's alternating structure (see `_slack` and `_alternating`):

    * v slack: some maximum matching M1 misses v.  Its mirror misses
      v + n, and the component at v + n of the symmetric difference of M1
      and its mirror is an even path.  The mirror maps that path to
      itself reversed if it ends at v, and then would fix its middle
      vertex; so it ends elsewhere, and flipping M1 along it misses both
      copies of v.  The cover of g - v keeps a matching of M's size:
      d_c - 1.
    * v not slack, so both copies of v are matched in every maximum
      matching.  Dropping their two pairs frees u = mate(v + n) and
      mate(v).  An alternating path from u to an exposed copy other than
      mate(v) would, behind the pair v + n - u, miss v + n in a maximum
      matching, and one from mate(v) would likewise miss v; so one
      augmenting path can come back at most.  It does iff u is not slack
      and reaches v: the last step enters v through mate(v).  Then d_c,
      otherwise d_c + 1.
    """
    _, match, dc = _double_cover(g)
    if v is None:
        return dc
    slack = _slack_pass(g).flags
    if slack[g.vertex(v)]:
        return dc - 1
    comp, reach = _structure(g)
    u = match[v + g.n]
    if not slack[u] and reach[comp[u]] >> v & 1:
        return dc
    return dc + 1


class SubsetTable(NamedTuple):
    """d(X) and an independence flag for every subset mask X of a graph."""

    d: array              # signed bytes, d(X) = |X| - |N(X)|
    independent: bytes    # 1 where N(X) misses X, else 0


# Byte translation tables for the bulk subset passes.
_POPCOUNT = bytes(b.bit_count() for b in range(256))
_PLUS_ONE = bytes(range(1, 256)) + bytes(1)
_POSITIVE = bytes(1) + bytes([1]) * 127 + bytes(128)  # signed byte > 0
_PLUS_32 = bytes((b + 32) & 0xFF for b in range(256))  # signed byte + 32
_BIT_CLEAR = tuple(bytes(1 - (b >> k & 1) for b in range(256))
                   for k in range(8))


@lru_cache(maxsize=256)
def _or_table(c: int) -> bytes:
    """The translation table that ORs every byte with c."""
    return bytes(b | c for b in range(256))


def _big(data: bytes) -> int:
    return int.from_bytes(data, "little")


def _lane(size: int, v: int, without: int = 0, holding: int = 1) -> int:
    """One byte per mask X below `size`: `holding` where X holds vertex v,
    `without` elsewhere, in alternating runs of 2^v bytes."""
    half = 1 << v
    return _big((bytes([without]) * half + bytes([holding]) * half)
                * (size >> v + 1))


def _subset_table(g: Graph) -> SubsetTable:
    """d(X) and the independence flags of all 2^n masks of g.

    Byte X of each table belongs to mask X.  The masks whose top vertex is
    v are the lower masks plus v, so every table is built by doubling over
    the vertices: N(X + v) = N(X) | N(v), and X + v is independent iff X
    is and v is not in N(X).  N(X) is held as one byte string per eight
    vertices, so each doubling is a `bytes.translate`; it is dropped once
    d(X) has been read off it.
    """
    n = g.n
    size = 1 << n
    nbs = [bytes(1)] * ((n + 7) >> 3)    # byte j of N(X)
    card = bytes([n])                     # |X| + n
    independent = bytes([1])
    for v, nv in enumerate(g.adj):
        free = nbs[v >> 3].translate(_BIT_CLEAR[v & 7])
        independent += (_big(independent) & _big(free)).to_bytes(
            len(free), "little")
        nbs = [nb + nb.translate(_or_table(nv >> (j << 3) & 0xFF))
               for j, nb in enumerate(nbs)]
        card += card.translate(_PLUS_ONE)
    # Each byte of |X| + n - |N(X)| lies in 0..2n, so no byte borrows.
    biased = _big(card) - sum(_big(nb.translate(_POPCOUNT)) for nb in nbs)
    unbias = bytes((b - n) & 0xFF for b in range(256))
    d = array("b", biased.to_bytes(size, "little").translate(unbias))
    return SubsetTable(d, independent)


def difference_table(g: Graph, limit: int = ENUMERATION_LIMIT) -> SubsetTable:
    """d(X) and the independence flag of every subset mask X."""
    if g.n > limit:
        raise LimitExceededError(f"n={g.n} exceeds enumeration limit {limit}")
    return _subset_table(g)


def critical_difference_oracle(g: Graph, limit: int = ENUMERATION_LIMIT) -> int:
    """Exhaustive max of d over all 2^n subsets."""
    return max(difference_table(g, limit).d)


def enumerate_critical_sets(g: Graph, independent_only: bool = False,
                            limit: int = ENUMERATION_LIMIT,
                            table: SubsetTable | None = None
                            ) -> list[VertexSet]:
    """All subsets attaining the critical difference, deterministic order.

    `table` is g's subset table when the caller already holds it."""
    if table is None:
        table = difference_table(g, limit)
    dtab, independent = table
    dc = max(dtab)
    out = [set_of(mask) for mask, dx in enumerate(dtab)
           if dx == dc and (not independent_only or independent[mask])]
    out.sort(key=sorted)
    return out


# ---------------------------------------------------------------------------
# ker and diadem
# ---------------------------------------------------------------------------

def ker(g: Graph) -> VertexSet:
    """Vertices whose deletion drops the critical difference by one."""
    dc = critical_difference(g)
    members = []
    for v in range(g.n):
        if critical_difference(g, v) == dc - 1:
            members.append(v)
    return frozenset(members)


def cover_ker(g: Graph) -> VertexSet:
    """ker(g) read off the cover matching: the vertices whose left copy is
    slack (see `_slack`).

    v is in ker iff d_c(g - v) = d_c - 1, and `critical_difference` shows
    that a slack v gives d_c - 1 and any other v gives d_c or d_c + 1.  So
    this is `ker`, without its n single-deletion lookups and without the
    components and reach sets that the lookups of non-slack vertices read.
    Every route that reads ker takes this one.  `ker` keeps the deletion
    definition as the oracle that `ker_is_intersection` runs, and the
    benchmark's self-test pins its n + 1 `critical_difference` calls.
    """
    return frozenset(compress(range(g.n), _slack_pass(g).flags))


def ker_without(g: Graph, v: int) -> VertexSet:
    """ker(g - v) for a vertex v of ker(g), in g's labels, read off a
    repair of the cover matching M kept on g rather than a fresh cover of
    g - v.

    v is slack, so the cover of g - v keeps a matching of M's size (see
    `critical_difference`).  Three steps on a copy of M give one:

    1. flip the even alternating path from v back to its exposed root,
       which the slack pass's parents give; v's left copy is then
       exposed, and dropping it loses no pair.  Nothing moves when v is
       exposed already.
    2. drop v + n, which frees b = mate(v + n) unless v + n is exposed,
       and search once from b for an augmenting path that keeps clear of
       v + n.  One exists, since the matching has lost one pair, and only
       b can start it: a path from another exposed copy misses v + n and
       the freed b, so it would augment the maximum matching of step 1.
       The flip does not move b: some maximum matching misses v + n (the
       mirror of one that misses v), so v + n is matched to no slack
       copy, and the flipped path holds slack copies and their mates.
    3. run one slack pass that skips v + n, from the exposed copies that
       have neighbours: M's, less the root of step 1, since b is matched
       again and an augmenting path exposes no left copy.

    The slack copies of that pass, other than v, are ker(g - v) (see
    `cover_ker`).
    """
    slack, _, exposed, roots = _slack_pass(g)
    if not 0 <= v < g.n or not slack[v]:
        raise PreconditionError(f"vertex {v} is not in ker")
    match, root = _repair(g, v)
    start = bytearray(exposed)
    start[root] = 0
    start[v] = 1
    flags, _ = _slack(_double_cover(g).nbrs, match, start,
                      [u for u in roots if u != root])
    flags[v] = 0
    return frozenset(compress(range(g.n), flags))


def _repair(g: Graph, v: int) -> tuple[list[int], int]:
    """Steps 1 and 2 of `ker_without` for a slack v: a maximum matching
    of the cover of g - v, on a copy of the cover's match array, and the
    root whose path step 1 flipped (v itself when v is exposed).

    In the copy, v is exposed and v + n is tied to v: both searches
    count v as visited, so neither passes through v + n.
    """
    n = g.n
    cover = _double_cover(g)
    parent = _slack_pass(g).parent
    match = list(cover.match)
    y, r = v, match[v]
    while r != -1:
        x = parent[y]
        match[r] = x
        r, match[x] = match[x], r
        y = x
    match[v] = -1
    b = match[v + n]
    match[v + n] = v
    if b != -1:
        seen = bytearray(n)
        seen[v] = 1
        _augment(cover.nbrs, match, b, seen)
    return match, y


def _augment(nbrs: list[list[int]], match: list[int], b: int,
             seen: bytearray) -> None:
    """Flip a shortest augmenting path from the left copy b, which the
    caller has freed, found by a breadth-first search that enters no left
    copy flagged in `seen`."""
    seen[b] = 1
    back: dict[int, int] = {}
    queue = [b]
    for x in queue:
        for r in nbrs[x]:
            y = match[r]
            if y == -1:
                # Each copy on the path takes the right copy it leads
                # through, and hands its old mate on to the copy before.
                while True:
                    match[r] = x
                    r, match[x] = match[x], r
                    if x == b:
                        return
                    x = back[x]
            if not seen[y]:
                seen[y] = 1
                back[y] = x
                queue.append(y)


def diadem(g: Graph) -> VertexSet:
    """Union of all critical independent sets, read off the alternating
    structure of the cover matching M kept on g (see `_alternating`).

    For a critical set X, the left copies outside X and the right copies
    of N(X) form a minimum vertex cover of the double cover, and every
    minimum cover arises so from exactly one critical X (Koenig).  If X
    is critical, X - N(X) is a critical independent set (Larson, 2007),
    so v is in the diadem iff some minimum cover misses both v and v + n.

    A minimum cover holds one end of each pair of M and no exposed copy.
    So the left copies it misses hold every slack copy, hold mate(r) for
    every right neighbour r of each of them, and hold no copy with an
    exposed right neighbour; each closed set of this kind is missed by a
    minimum cover (Dulmage-Mendelsohn).  Hence:

    * a slack v is in the diadem: some maximum matching misses both of
      its copies (see `critical_difference`), and a minimum cover holds
      only copies that every maximum matching covers;
    * otherwise v + n is matched too, and the least such set holding v
      is the slack copies plus the reach of v.  v is in the diadem iff
      that reach holds no copy with an exposed right neighbour, and
      neither it nor the slack copies hold u = mate(v + n), so that the
      cover can take u instead of v + n.
    """
    match = _double_cover(g).match
    slack = _slack_pass(g).flags
    comp, reach = _structure(g)
    n = g.n
    # The left copies with an exposed right neighbour are the neighbours
    # in g of the vertices whose right copy is exposed.
    nbrs = g.nbrs
    blocked = 0
    for w in range(n):
        if match[w + n] == -1:
            for x in nbrs[w]:
                blocked |= 1 << x
    members = []
    for v in range(n):
        if not slack[v]:
            below = reach[comp[v]]
            u = match[v + n]
            if below & blocked or slack[u] or below >> u & 1:
                continue
        members.append(v)
    return frozenset(members)


def diadem_oracle(g: Graph, limit: int = ENUMERATION_LIMIT) -> VertexSet:
    out: set[int] = set()
    for s in enumerate_critical_sets(g, independent_only=True, limit=limit):
        out |= s
    return frozenset(out)


# ---------------------------------------------------------------------------
# Inclusion-minimal positive-difference sets
# ---------------------------------------------------------------------------

def _positions(flags: bytes):
    """The indices of the nonzero bytes of a 0/1 byte string."""
    i = flags.find(1)
    while i >= 0:
        yield i
        i = flags.find(1, i + 1)


def enumerate_minimal_positive_sets(
        g: Graph, limit: int = ENUMERATION_LIMIT,
        dtab: Sequence[int] | None = None) -> list[VertexSet]:
    """All inclusion-minimal sets with positive difference.

    Minimality is certified against every proper subset (single-vertex
    removals alone are not sufficient).  The subset lattice is held as a
    big integer with one byte per mask; n shift-and-or steps close
    "d > 0" under supersets ("some subset is positive"), n more give
    "some proper subset is positive", and the minimal sets are the
    positive masks left out of the second.  `dtab` is g's difference
    table when the caller already holds it.
    """
    if dtab is None:
        dtab = difference_table(g, limit).d
    size = len(dtab)
    positive = _big(array("b", dtab).tobytes().translate(_POSITIVE))
    n = size.bit_length() - 1
    below = positive
    for v in range(n):
        below |= below << (8 << v) & _lane(size, v)
    proper = 0
    for v in range(n):
        proper |= below << (8 << v) & _lane(size, v)
    minimal = (positive & ~proper).to_bytes(size, "little")
    out = [set_of(mask) for mask in _positions(minimal)]
    out.sort(key=sorted)
    return out


def is_supermodular(dtab: Sequence[int]) -> bool:
    """Whether d(X | Y) + d(X & Y) >= d(X) + d(Y) for all masks X and Y,
    decided in the local form d(X+i+j) - d(X+j) >= d(X+i) - d(X) at every
    mask X and pair i < j outside it.

    With byte X of the big integer T = d(X) + 32, byte X of
    (T >> 2^i bytes) + 64 - T is the marginal d(X+i) - d(X) + 64 where X
    lacks i.  For j > i, that marginal shifted by 2^j bytes, plus 128,
    minus the marginal keeps its high bit at X iff the local inequality
    holds; a 0x80 lane selects the X lacking i and j.  No byte borrows
    while the entries lie in -32..31, as d does on n <= 31 vertices.
    """
    size = len(dtab)
    n = size.bit_length() - 1
    table = _big(array("b", dtab).tobytes().translate(_PLUS_32))
    high = _big(b"\x80" * size)
    for i in range(n):
        marginal = (table >> (8 << i)) + (high >> 1) - table
        rise = high - marginal
        free = _lane(size, i, 0x80, 0)
        for j in range(i + 1, n):
            lane = free & _lane(size, j, 0x80, 0)
            if ((marginal >> (8 << j)) + rise) & lane != lane:
                return False
    return True


def max_subset_difference(g: Graph, s: Iterable[int]) -> int:
    """max d(X) over X contained in s (polynomial, via matching deficiency)."""
    xs = g.members(s)
    adj, match, _ = _match_sides(g, sorted(xs), sorted(neighborhood(g, xs)))
    return match[:len(adj)].count(-1)


def min_cardinality_positive_subset(g: Graph,
                                    s: Iterable[int]) -> VertexSet | None:
    """A minimum-cardinality subset of s with positive difference, or None.

    A minimum-cardinality positive subset is automatically inclusion
    minimal.  Ties break lexicographically.
    """
    members = sorted(g.members(s))
    if len(members) > SUBSET_SEARCH_LIMIT:
        raise LimitExceededError(
            f"|s|={len(members)} exceeds subset search limit "
            f"{SUBSET_SEARCH_LIMIT}")
    if max_subset_difference(g, members) <= 0:
        return None
    nbrs = g.nbrs
    for k in range(1, len(members) + 1):
        for combo in combinations(members, k):
            if len({w for v in combo for w in nbrs[v]}) < k:
                return frozenset(combo)
    return None  # unreachable: existence certified above


# ---------------------------------------------------------------------------
# The two-new-vertex bipartite gadget
# ---------------------------------------------------------------------------

class HXGadget(NamedTuple):
    """Bipartite gadget on X, N(X) and two fresh adjacent vertices v, w,
    with v joined to all of N(X)."""

    host: Graph
    x: VertexSet
    gadget: Graph
    v_label: int
    w_label: int
    embedding: dict[int, int]  # host vertex -> gadget vertex, on X and N(X)


def build_hx(g: Graph, x: Iterable[int]) -> HXGadget:
    xset = g.members(x)
    if not is_independent(g, xset):
        raise PreconditionError("x must be independent")
    nset = neighborhood(g, xset)
    xs = sorted(xset)
    ns = sorted(nset)
    embedding = {u: i for i, u in enumerate(xs)}
    embedding.update({u: len(xs) + i for i, u in enumerate(ns)})
    v_label = len(xs) + len(ns)
    w_label = v_label + 1
    # X is independent, so each neighbour of a vertex of X lies in N(X).
    nbrs = g.nbrs
    edges = [(embedding[a], embedding[b]) for a in xs for b in nbrs[a]]
    edges.append((v_label, w_label))
    edges.extend((embedding[u], v_label) for u in ns)
    return HXGadget(host=g, x=xset,
                    gadget=Graph.build(w_label + 1, edges),
                    v_label=v_label, w_label=w_label, embedding=embedding)


def _max_differences_without(g: Graph, xs: VertexSet) -> list[int]:
    """max d(Y) over the subsets Y of X - v, for each v of X = xs in
    ascending order, from one matching.

    Let H join a left copy of each vertex of X to a right copy of each
    vertex of N(X), and let k = |X| - nu(H) be its deficiency, which is
    max d(Y) over the subsets Y of X (Hall).  Deleting v's left copy
    leaves the same bipartite graph for X - v, up to right copies that
    lose all their edges, so the maximum over the subsets of X - v is
    |X| - 1 - nu(H - v).  nu(H - v) = nu(H) exactly when v's copy is
    slack (see `_slack`).  So the maximum is k - 1 for a slack v and k
    otherwise.
    """
    adj, match, _ = _match_sides(g, sorted(xs), sorted(neighborhood(g, xs)))
    exposed = bytearray(m == -1 for m in match[:len(adj)])
    slack, _ = _slack(adj, match, exposed,
                      list(compress(range(len(adj)), exposed)))
    deficiency = exposed.count(1)
    return [deficiency - hit for hit in slack]


def _check_strict_subset_differences(g: Graph, xs: VertexSet) -> None:
    """Require d(Y) < d(X) for every proper subset Y of X = xs.

    Every proper subset lies in X - v for some v in X, so the maxima of
    `_max_differences_without` decide it."""
    dx = difference(g, xs)
    for v, best in zip(sorted(xs), _max_differences_without(g, xs)):
        if best >= dx:
            raise PreconditionError(
                f"a subset of x without {v} has difference {best} "
                f">= d(x) = {dx}")


_STRICTLY_POSITIVE = f"{__name__}._strictly_positive"


def _strictly_positive(g: Graph, x: Iterable[int]) -> tuple[VertexSet, int]:
    """x as a set and d(x), once x is checked to be independent, to have
    d(x) > 0 and to have no proper subset of difference d(x) or more:
    the sets of `verify_hx_ker` and `decompose_minimal`.

    A set that passes is kept with d(x) on g, in a dict in g.__dict__ as
    `_per_graph` keeps its structures, so the two routes pay the checks
    once for the same set; a set that fails is not kept and raises again.
    """
    xs = g.members(x)
    passed = g.__dict__.setdefault(_STRICTLY_POSITIVE, {})
    if xs in passed:
        return xs, passed[xs]
    if not is_independent(g, xs):
        raise PreconditionError("x must be independent")
    dx = difference(g, xs)
    if dx <= 0:
        raise PreconditionError(f"d(x) = {dx}, need positive")
    _check_strict_subset_differences(g, xs)
    passed[xs] = dx
    return xs, dx


def verify_hx_ker(g: Graph, x: Iterable[int]) -> bool:
    """Build the gadget for x and check that its ker is exactly x."""
    hx = build_hx(g, _strictly_positive(g, x)[0])
    expected = frozenset(hx.embedding[u] for u in hx.x)
    return cover_ker(hx.gadget) == expected


# ---------------------------------------------------------------------------
# Decomposition into inclusion-minimal positive sets
# ---------------------------------------------------------------------------

class MinimalDecomposition(NamedTuple):
    x: VertexSet
    k: int
    parts: tuple[VertexSet, ...]
    representatives: tuple[int, ...]


def decompose_minimal(g: Graph, x: Iterable[int]) -> MinimalDecomposition:
    """Split x (independent, d(x)=k>0, proper subsets strictly smaller)
    into k distinct inclusion-minimal sets of difference one whose union
    is x.

    Part i+1 is a minimum-cardinality positive subset of x minus the
    representatives picked so far; the representative is its smallest
    vertex.
    """
    xs, k = _strictly_positive(g, x)
    parts: list[VertexSet] = []
    reps: list[int] = []
    remaining = set(xs)
    for _ in range(k):
        part = min_cardinality_positive_subset(g, remaining)
        assert part is not None
        rep = min(part)
        parts.append(part)
        reps.append(rep)
        remaining.discard(rep)
    return MinimalDecomposition(x=xs, k=k, parts=tuple(parts),
                                representatives=tuple(reps))
