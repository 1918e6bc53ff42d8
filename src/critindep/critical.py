"""Critical-structure computations: critical difference, critical sets,
ker, diadem, inclusion-minimal positive-difference sets, the two-vertex
bipartite gadget, and the decomposition of sets whose proper subsets all
have strictly smaller difference.

Polynomial routes:
  * critical difference via the bipartite double cover (d_c = n - mu(cover)),
  * ker via per-vertex deletion (v is in ker iff d_c drops by one),
  * diadem membership via 1 - deg(v) + d_c(G - N[v]) = d_c(G).

Each polynomial route has an exhaustive-subset oracle beside it; the test
suite holds them against each other on every corpus graph.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations

from .errors import LimitExceededError, PreconditionError
from .graphs import (Graph, VertexSet, bits, delete_vertices, neighborhood,
                     set_of)
from .independence import is_independent
from .matching import _hopcroft_karp

ENUMERATION_LIMIT = 16
SUBSET_SEARCH_LIMIT = 25


# ---------------------------------------------------------------------------
# Critical difference
# ---------------------------------------------------------------------------

def critical_difference(g: Graph) -> int:
    """d_c(g) = max d(X) over all X, computed as n - mu(double cover).

    The double cover puts a left and a right copy of every vertex and joins
    (u, left)-(v, right) for each edge uv; by Koenig's theorem its matching
    deficiency on one side equals the maximum difference.
    """
    n = g.n
    size = 2 * n
    adj: list[list[int]] = [[] for _ in range(size)]
    for u, v in g.edges:
        adj[u].append(v + n)
        adj[v + n].append(u)
        adj[v].append(u + n)
        adj[u + n].append(v)
    match = _hopcroft_karp(size, adj, list(range(n)))
    matched = sum(1 for u in range(n) if match[u] != -1)
    return n - matched


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
                            limit: int = ENUMERATION_LIMIT) -> list[VertexSet]:
    """All subsets attaining the critical difference, deterministic order."""
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
        h, _ = delete_vertices(g, [v])
        if critical_difference(h) == dc - 1:
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
        closed = frozenset(bits(g.adj[v])) | {v}
        h, _ = delete_vertices(g, closed)
        if 1 - g.degree(v) + critical_difference(h) == dc:
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
        g: Graph, limit: int = ENUMERATION_LIMIT) -> list[VertexSet]:
    """All inclusion-minimal sets with positive difference.

    Minimality is certified against every proper subset (single-vertex
    removals alone are not sufficient), via an any-positive-subset DP over
    the subset lattice.
    """
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
    svs = sorted(bits(smask))
    nvs = sorted(bits(g.neighborhood_mask(smask)))
    nindex = {v: len(svs) + i for i, v in enumerate(nvs)}
    size = len(svs) + len(nvs)
    adj: list[list[int]] = [[] for _ in range(size)]
    for i, u in enumerate(svs):
        for w in bits(g.adj[u]):
            adj[i].append(nindex[w])
            adj[nindex[w]].append(i)
    match = _hopcroft_karp(size, adj, list(range(len(svs))))
    matched = sum(1 for i in range(len(svs)) if match[i] != -1)
    return len(svs) - matched


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
    """Require d(Y) < d(X) for every proper subset Y of X."""
    dx = g.difference_mask(xmask)
    sub = (xmask - 1) & xmask
    while True:
        if g.difference_mask(sub) >= dx:
            raise PreconditionError(
                f"proper subset {sorted(bits(sub))} has difference "
                f"{g.difference_mask(sub)} >= d(x) = {dx}")
        if sub == 0:
            break
        sub = (sub - 1) & xmask


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


def union_is_minimal_union(g: Graph, x: Iterable[int],
                           limit: int = ENUMERATION_LIMIT) -> bool:
    """True iff x is a union of inclusion-minimal positive-difference sets."""
    xmask = g.mask_of(x)
    if xmask == 0:
        return False
    covered = 0
    for s in enumerate_minimal_positive_sets(g, limit):
        smask = g.mask_of(s)
        if smask & ~xmask == 0:
            covered |= smask
    return covered == xmask


# ---------------------------------------------------------------------------
# Lemma 3.1
# ---------------------------------------------------------------------------

def check_lemma_31(g: Graph, x: Iterable[int], y: Iterable[int]) -> bool:
    """For critical independent x, y: |N(x) meet y| = |N(y) meet x|."""
    xset = set_of(g.mask_of(x))
    yset = set_of(g.mask_of(y))
    dc = critical_difference(g)
    for name, s in (("x", xset), ("y", yset)):
        if not is_independent(g, s):
            raise PreconditionError(f"{name} must be independent")
        if g.difference_mask(g.mask_of(s)) != dc:
            raise PreconditionError(f"{name} must be critical")
    return (len(neighborhood(g, xset) & yset)
            == len(neighborhood(g, yset) & xset))


# ---------------------------------------------------------------------------
# Profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalProfile:
    d_c: int
    ker: VertexSet
    diadem: VertexSet
    critical_sets: tuple[VertexSet, ...] | None
    critical_independent_sets: tuple[VertexSet, ...] | None
    minimal_positive_sets: tuple[VertexSet, ...] | None


def critical_profile(g: Graph,
                     limit: int = ENUMERATION_LIMIT) -> CriticalProfile:
    """d_c, ker and diadem always; exhaustive enumerations when n permits."""
    within = g.n <= limit
    return CriticalProfile(
        d_c=critical_difference(g),
        ker=ker(g),
        diadem=diadem(g),
        critical_sets=tuple(enumerate_critical_sets(g, limit=limit))
        if within else None,
        critical_independent_sets=tuple(
            enumerate_critical_sets(g, independent_only=True, limit=limit))
        if within else None,
        minimal_positive_sets=tuple(enumerate_minimal_positive_sets(g, limit))
        if within else None,
    )
