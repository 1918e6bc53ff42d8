"""Critical-structure computations: critical difference, critical sets,
ker, diadem, inclusion-minimal positive-difference sets, the two-vertex
bipartite gadget, and the decomposition of sets whose proper subsets all
have strictly smaller difference.

Polynomial routes:
  * critical difference via the bipartite double cover (d_c = n - mu(cover)),
  * ker via per-vertex deletion (v is in ker iff d_c drops by one),
  * diadem membership via 1 - deg(v) + d_c(G - N[v]) = d_c(G).

The copy layout and every fresh Hopcroft-Karp run live in
`matching._match_sides`: the double cover is its matching with both
sides full, and the best difference inside a set S is |S| minus its
matching of S into N(S) (Hall's defect formula).  One maximum matching
of the double cover is computed per graph and kept in a small cache;
each d_c(G - S) that ker and diadem ask for repairs a copy of it (the
pairs at the deleted copies are dropped and Hopcroft-Karp resumes)
instead of building G - S and matching it from scratch.

Each polynomial route has an exhaustive-subset oracle beside it; the test
suite holds them against each other on every corpus graph.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import LimitExceededError, PreconditionError
from .graphs import Graph, VertexSet, bits, neighborhood, set_of
from .independence import is_independent
from .matching import _hopcroft_karp, _match_sides

ENUMERATION_LIMIT = 16
SUBSET_SEARCH_LIMIT = 25


# ---------------------------------------------------------------------------
# Critical difference
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _double_cover(g: Graph) -> tuple[list[list[int]], tuple[int, ...], int]:
    """Left-copy adjacency lists of the double cover of g, one maximum
    matching of it and d_c(g), shared by every `critical_difference` call
    on g.

    The cover has a left copy u and a right copy u + n of every vertex u,
    and joins u to v + n and v to u + n for each edge uv.
    """
    adj, match, _ = _match_sides(g, g.full_mask, g.full_mask)
    return adj, tuple(match), match[:g.n].count(-1)


def critical_difference(g: Graph, removed: Iterable[int] = ()) -> int:
    """d_c(g - removed) = max d(X) over the subsets X of g - removed,
    computed as the number of vertices minus the matching number of the
    double cover.

    By Koenig's theorem the cover's matching deficiency on one side
    equals the maximum difference.  The cover's maximum matching is
    computed once per graph; for a deletion it is repaired by dropping the
    pairs at the deleted copies and resuming Hopcroft-Karp.
    """
    adj, base, dc = _double_cover(g)
    gone = g.mask_of(removed)
    if not gone:
        return dc
    n = g.n
    match = list(base)
    for s in bits(gone):
        for copy in (s, s + n):
            if match[copy] != -1:
                match[match[copy]] = -1
        # Park each deleted left copy on its own right copy and leave it
        # out of `left`.  Its dist then stays 0, never INF nor the dist of
        # a searched vertex plus one, so Hopcroft-Karp neither scans its
        # edges nor enters the deleted right copy: the search sees the
        # double cover of g - removed without rebuilding the adjacency.
        match[s] = s + n
        match[s + n] = s
    left = [u for u in range(n) if not gone >> u & 1]
    _hopcroft_karp(2 * n, adj, left, match=match)
    return sum(1 for u in left if match[u] == -1)


def difference_table(g: Graph, limit: int = ENUMERATION_LIMIT) -> list[int]:
    """d(X) for every subset mask X, by incremental neighborhood DP."""
    if g.n > limit:
        raise LimitExceededError(f"n={g.n} exceeds enumeration limit {limit}")
    size = 1 << g.n
    adj = g.adj
    nb = [0] * size
    dtab = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        nb[mask] = nb[mask ^ low] | adj[low.bit_length() - 1]
        dtab[mask] = mask.bit_count() - nb[mask].bit_count()
    return dtab


def critical_difference_oracle(g: Graph, limit: int = ENUMERATION_LIMIT) -> int:
    """Exhaustive max of d over all 2^n subsets."""
    return max(difference_table(g, limit))


def enumerate_critical_sets(g: Graph, independent_only: bool = False,
                            limit: int = ENUMERATION_LIMIT,
                            dtab: list[int] | None = None) -> list[VertexSet]:
    """All subsets attaining the critical difference, deterministic order.

    `dtab` is g's difference table when the caller already holds it."""
    if dtab is None:
        dtab = difference_table(g, limit)
    dc = max(dtab)
    out = []
    for mask in range(len(dtab)):
        if dtab[mask] != dc:
            continue
        if independent_only and g.neighborhood_mask(mask) & mask:
            continue
        out.append(set_of(mask))
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
        if critical_difference(g, [v]) == dc - 1:
            members.append(v)
    return frozenset(members)


def diadem(g: Graph) -> VertexSet:
    """Union of all critical independent sets, by closed-neighborhood deletion.

    The best difference among independent sets containing v is
    1 - deg(v) + d_c(G - N[v]); v belongs to the diadem iff that value
    attains d_c(G).
    """
    dc = critical_difference(g)
    members = []
    for v in range(g.n):
        closed = bits(g.adj[v] | 1 << v)
        if 1 - g.degree(v) + critical_difference(g, closed) == dc:
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

def enumerate_minimal_positive_sets(
        g: Graph, limit: int = ENUMERATION_LIMIT,
        dtab: list[int] | None = None) -> list[VertexSet]:
    """All inclusion-minimal sets with positive difference.

    Minimality is certified against every proper subset (single-vertex
    removals alone are not sufficient), via an any-positive-subset DP over
    the subset lattice.  `dtab` is g's difference table when the caller
    already holds it.
    """
    if dtab is None:
        dtab = difference_table(g, limit)
    size = len(dtab)
    anypos = bytearray(size)
    out = []
    for mask in range(1, size):
        if dtab[mask] > 0:
            anypos[mask] = 1
            minimal = True
            for v in bits(mask):
                if anypos[mask ^ (1 << v)]:
                    minimal = False
                    break
            if minimal:
                out.append(set_of(mask))
        else:
            for v in bits(mask):
                if anypos[mask ^ (1 << v)]:
                    anypos[mask] = 1
                    break
    out.sort(key=sorted)
    return out


def max_subset_difference(g: Graph, s: Iterable[int]) -> int:
    """max d(X) over X contained in s (polynomial, via matching deficiency)."""
    smask = g.mask_of(s)
    adj, match, _ = _match_sides(g, smask, g.neighborhood_mask(smask))
    return match[:len(adj)].count(-1)


def min_cardinality_positive_subset(g: Graph,
                                    s: Iterable[int]) -> VertexSet | None:
    """A minimum-cardinality subset of s with positive difference, or None.

    A minimum-cardinality positive subset is automatically inclusion
    minimal.  Ties break lexicographically.
    """
    members = sorted(set_of(g.mask_of(s)))
    if len(members) > SUBSET_SEARCH_LIMIT:
        raise LimitExceededError(
            f"|s|={len(members)} exceeds subset search limit "
            f"{SUBSET_SEARCH_LIMIT}")
    if max_subset_difference(g, members) <= 0:
        return None
    for k in range(1, len(members) + 1):
        for combo in combinations(members, k):
            if g.difference_mask(g.mask_of(combo)) > 0:
                return frozenset(combo)
    return None  # unreachable: existence certified above


# ---------------------------------------------------------------------------
# The two-new-vertex bipartite gadget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HXGadget:
    """Bipartite gadget on X, N(X) and two fresh adjacent vertices v, w,
    with v joined to all of N(X)."""

    host: Graph
    x: VertexSet
    gadget: Graph
    v_label: int
    w_label: int
    embedding: dict[int, int]  # host vertex -> gadget vertex, on X and N(X)


def build_hx(g: Graph, x: Iterable[int]) -> HXGadget:
    xset = set_of(g.mask_of(x))
    if not is_independent(g, xset):
        raise PreconditionError("x must be independent")
    nset = neighborhood(g, xset)
    xs = sorted(xset)
    ns = sorted(nset)
    embedding = {u: i for i, u in enumerate(xs)}
    embedding.update({u: len(xs) + i for i, u in enumerate(ns)})
    v_label = len(xs) + len(ns)
    w_label = v_label + 1
    edges = [(embedding[a], embedding[b]) for a, b in g.edges
             if (a in xset and b in nset) or (b in xset and a in nset)]
    edges.append((v_label, w_label))
    edges.extend((embedding[u], v_label) for u in ns)
    return HXGadget(host=g, x=xset,
                    gadget=Graph.build(w_label + 1, edges),
                    v_label=v_label, w_label=w_label, embedding=embedding)


def _check_strict_subset_differences(g: Graph, xmask: int) -> None:
    """Require d(Y) < d(X) for every proper subset Y of X.

    Every proper subset lies in X - v for some v in X, so |X| calls of
    `max_subset_difference` decide it."""
    dx = g.difference_mask(xmask)
    for v in bits(xmask):
        best = max_subset_difference(g, bits(xmask & ~(1 << v)))
        if best >= dx:
            raise PreconditionError(
                f"a subset of x without {v} has difference {best} "
                f">= d(x) = {dx}")


def verify_hx_ker(g: Graph, x: Iterable[int]) -> bool:
    """Build the gadget for x and check that its ker is exactly x."""
    xmask = g.mask_of(x)
    if not is_independent(g, bits(xmask)):
        raise PreconditionError("x must be independent")
    if g.difference_mask(xmask) <= 0:
        raise PreconditionError("x must have positive difference")
    _check_strict_subset_differences(g, xmask)
    hx = build_hx(g, bits(xmask))
    expected = frozenset(hx.embedding[u] for u in hx.x)
    return ker(hx.gadget) == expected


# ---------------------------------------------------------------------------
# Decomposition into inclusion-minimal positive sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinimalDecomposition:
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
    xmask = g.mask_of(x)
    k = g.difference_mask(xmask)
    if not is_independent(g, bits(xmask)):
        raise PreconditionError("x must be independent")
    if k <= 0:
        raise PreconditionError(f"d(x) = {k}, need positive")
    _check_strict_subset_differences(g, xmask)
    parts: list[VertexSet] = []
    reps: list[int] = []
    remaining = xmask
    for _ in range(k):
        part = min_cardinality_positive_subset(g, bits(remaining))
        assert part is not None
        rep = min(part)
        parts.append(part)
        reps.append(rep)
        remaining &= ~(1 << rep)
    return MinimalDecomposition(x=set_of(xmask), k=k, parts=tuple(parts),
                                representatives=tuple(reps))
