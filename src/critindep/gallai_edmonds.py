"""The classical matching-structure partition (D, A, C) and the structural
checks of its clauses.

D is computed from its definition, one matching number per vertex (v is
in D iff deleting v does not lower the matching number).  The maximum
matching of the graph comes from passes of one alternating forest grown
from every exposed vertex; the last pass flips nothing, and each of these
n numbers is read off its even vertices.  A = N(D) - D is read off the
neighbour lists, and the components of G[D] come from one search over
them and one pass that hands each component its own edges.  Each
factor-critical flag of a component reads that component's own last
pass: odd order, one vertex left exposed, and every vertex even.  A
singleton component is K1, factor-critical without a matching.

The partition is built once per graph and kept on the graph, so the
report and every check that reads it share one frozen copy.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, compress
from operator import or_
from typing import NamedTuple

from .errors import LimitExceededError
from .graphs import Graph, VertexSet, _per_graph, bits
# ker stays bound here: perfbench/test_perfbench.py checks that the tracer
# rebinds and restores it in this namespace.
from .critical import ker  # noqa: F401
from .matching import is_factor_critical, max_matching_general, mu

SUBSET_CLAUSE_LIMIT = 15
MISSED_VERTICES_LIMIT = 10


class GallaiEdmondsPartition(NamedTuple):
    d_set: VertexSet
    a_set: VertexSet
    c_set: VertexSet
    d_components: tuple[tuple[VertexSet, bool], ...]  # (vertices, factor_critical)

    def singleton_union(self) -> VertexSet:
        out: set[int] = set()
        for comp, _ in self.d_components:
            if len(comp) == 1:
                out |= comp
        return frozenset(out)


@_per_graph
def gallai_edmonds(g: Graph) -> GallaiEdmondsPartition:
    """D = vertices missed by some maximum matching; A = N(D) - D; C = rest."""
    base = mu(g)
    d_set = frozenset(v for v in range(g.n) if mu(g, v) == base)
    nbrs = g.nbrs
    a_set = frozenset(w for v in d_set for w in nbrs[v]) - d_set
    c_set = frozenset(range(g.n)) - d_set - a_set
    return GallaiEdmondsPartition(d_set=d_set, a_set=a_set, c_set=c_set,
                                  d_components=_d_components(g, d_set))


def _d_components(g: Graph, d_set: VertexSet
                  ) -> tuple[tuple[VertexSet, bool], ...]:
    """The components of G[D] by smallest member, each with its
    factor-critical flag.  Each non-singleton component is built from its
    own edges, relabelled in ascending order as `induced_subgraph` would
    cut it out of g."""
    nbrs = g.nbrs
    in_d = g.flags_of(d_set)
    comp = [-1] * g.n
    rank = [0] * g.n
    groups: list[list[int]] = []
    for start in compress(range(g.n), in_d):
        if comp[start] != -1:
            continue
        comp[start] = len(groups)
        group = [start]
        for v in group:
            for w in nbrs[v]:
                if in_d[w] and comp[w] == -1:
                    comp[w] = comp[start]
                    group.append(w)
        group.sort()
        for i, v in enumerate(group):
            rank[v] = i
        groups.append(group)
    edges: list[list[tuple[int, int]]] = [[] for _ in groups]
    for a, b in g.edges:
        if in_d[a] and in_d[b]:
            edges[comp[a]].append((rank[a], rank[b]))
    return tuple((frozenset(group), len(group) == 1 or is_factor_critical(
        Graph.build(len(group), own))) for group, own in zip(groups, edges))


def missed_vertices_oracle(g: Graph,
                           limit: int = MISSED_VERTICES_LIMIT) -> VertexSet:
    """Union of vertices missed by some maximum matching, by enumerating
    every maximum matching."""
    if g.n > limit:
        raise LimitExceededError(f"n={g.n} exceeds enumeration limit {limit}")
    target = mu(g)
    adj = g.adj
    missed: set[int] = set()

    def rec(mask: int, size: int, covered: int) -> None:
        # mask: vertices still available for matching edges
        if size + mask.bit_count() // 2 < target:
            return
        if size == target:
            missed.update(v for v in range(g.n) if not (covered >> v & 1))
            # keep exploring other maximum matchings
        if mask == 0:
            return
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        for w in bits(adj[v] & rest):
            rec(rest ^ (1 << w), size + 1, covered | low | (1 << w))
        rec(rest, size, covered)

    rec(g.full_mask, 0, 0)
    return frozenset(missed)


def check_theorem_53(g: Graph, p: GallaiEdmondsPartition,
                     subset_limit: int = SUBSET_CLAUSE_LIMIT) -> dict:
    """Verify the four structural clauses of the partition.  The subset
    clause (ii) is skipped (None) when A is too large to enumerate.

    Clause (i) reads the maximum matching M kept on g: it holds when M
    matches every vertex of C inside C, for then M restricted to C is a
    perfect matching of G[C].  Every maximum matching does so for the
    true partition (Gallai-Edmonds), so M is a certificate and no
    matching of G[C] is computed."""
    m = max_matching_general(g)
    partner = {}
    for u, v in m.edges:
        partner[u] = v
        partner[v] = u
    report: dict[str, bool | None] = {"c_perfect_matching": all(
        partner.get(v) in p.c_set for v in p.c_set)}

    comp_of = {v: i for i, (comp, _) in enumerate(p.d_components)
               for v in comp}
    avs = sorted(p.a_set)
    if len(avs) > subset_limit:
        report["a_subsets_touch_components"] = None
    else:
        # The components each vertex of A touches, as a bitset; a subset
        # touches the union of its members' bitsets.
        touches = []
        for a in avs:
            bitset = 0
            for w in g.nbrs[a]:
                if w in comp_of:
                    bitset |= 1 << comp_of[w]
            touches.append(bitset)
        ok = True
        for size in range(1, len(avs) + 1):
            for s in combinations(touches, size):
                if reduce(or_, s).bit_count() < size + 1:
                    ok = False
                    break
            if not ok:
                break
        report["a_subsets_touch_components"] = ok

    used_components = set()
    ok = True
    for a in avs:
        comp_idx = comp_of.get(partner.get(a))
        if comp_idx is None or comp_idx in used_components:
            ok = False
            break
        used_components.add(comp_idx)
    report["a_matched_to_distinct_components"] = ok

    report["d_components_factor_critical"] = all(
        flag for _, flag in p.d_components)
    return report

