"""The classical matching-structure partition (D, A, C) and the structural
checks of its clauses.

D is computed by n extra matching calls (v is in D iff deleting v does not
lower the matching number) so that the partition's correctness does not
depend on the internals of the blossom implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import LimitExceededError, PreconditionError
from .graphs import (Graph, VertexSet, connected_components, delete_vertices,
                     induced_subgraph, neighborhood)
# ker stays bound here: perfbench/test_perfbench.py checks that the tracer
# rebinds and restores it in this namespace.
from .critical import ENUMERATION_LIMIT, ker  # noqa: F401
from .matching import (has_perfect_matching, is_factor_critical,
                       max_matching_general, mu)

SUBSET_CLAUSE_LIMIT = 15
MISSED_VERTICES_LIMIT = 10


@dataclass(frozen=True)
class GallaiEdmondsPartition:
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


def gallai_edmonds(g: Graph) -> GallaiEdmondsPartition:
    """D = vertices missed by some maximum matching; A = N(D) - D; C = rest."""
    base = mu(g)
    d_members = []
    for v in range(g.n):
        h, _ = delete_vertices(g, [v])
        if mu(h) == base:
            d_members.append(v)
    d_set = frozenset(d_members)
    a_set = neighborhood(g, d_set) - d_set
    c_set = frozenset(range(g.n)) - d_set - a_set
    comps = []
    for comp_of_sub in _d_components(g, d_set):
        sub, _ = induced_subgraph(g, comp_of_sub)
        comps.append((comp_of_sub, is_factor_critical(sub)))
    return GallaiEdmondsPartition(d_set=d_set, a_set=a_set, c_set=c_set,
                                  d_components=tuple(comps))


def _d_components(g: Graph, d_set: VertexSet) -> list[VertexSet]:
    sub, labels = induced_subgraph(g, d_set)
    return [frozenset(labels[v] for v in comp)
            for comp in connected_components(sub)]


def missed_vertices_oracle(g: Graph,
                           limit: int = MISSED_VERTICES_LIMIT) -> VertexSet:
    """Union of vertices missed by some maximum matching, by enumerating
    every maximum matching."""
    if g.n > limit:
        raise LimitExceededError(f"n={g.n} exceeds enumeration limit {limit}")
    target = mu(g)
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
        for w in range(g.n):
            if rest >> w & 1 and g.has_edge(v, w):
                rec(rest ^ (1 << w), size + 1, covered | low | (1 << w))
        rec(rest, size, covered)

    rec(g.full_mask, 0, 0)
    return frozenset(missed)


def check_theorem_53(g: Graph, p: GallaiEdmondsPartition,
                     subset_limit: int = SUBSET_CLAUSE_LIMIT) -> dict:
    """Verify the four structural clauses of the partition.  The subset
    clause (ii) is skipped (None) when A is too large to enumerate."""
    report: dict[str, bool | None] = {}
    c_sub, _ = induced_subgraph(g, p.c_set)
    report["c_perfect_matching"] = has_perfect_matching(c_sub)

    avs = sorted(p.a_set)
    if len(avs) > subset_limit:
        report["a_subsets_touch_components"] = None
    else:
        ok = True
        comp_sets = [comp for comp, _ in p.d_components]
        for size in range(1, len(avs) + 1):
            for s in combinations(avs, size):
                nb = neighborhood(g, s)
                touched = sum(1 for comp in comp_sets if nb & comp)
                if touched < size + 1:
                    ok = False
                    break
            if not ok:
                break
        report["a_subsets_touch_components"] = ok

    m = max_matching_general(g)
    partner = {}
    for u, v in m.edges:
        partner[u] = v
        partner[v] = u
    used_components = set()
    ok = True
    for a in avs:
        mate = partner.get(a)
        comp_idx = next(
            (i for i, (comp, _) in enumerate(p.d_components)
             if mate in comp), None)
        if comp_idx is None or comp_idx in used_components:
            ok = False
            break
        used_components.add(comp_idx)
    report["a_matched_to_distinct_components"] = ok

    report["d_components_factor_critical"] = all(
        flag for _, flag in p.d_components)
    return report


def check_lemma_54(g: Graph, limit: int = ENUMERATION_LIMIT) -> bool:
    """On a disjoint union of factor-critical graphs of order > 1, every
    nonempty independent set has negative difference."""
    for comp in connected_components(g):
        if len(comp) <= 1:
            raise PreconditionError(
                "every component must have order strictly greater than 1")
        sub, _ = induced_subgraph(g, comp)
        if not is_factor_critical(sub):
            raise PreconditionError(
                f"component {sorted(comp)} is not factor-critical")
    if g.n > limit:
        raise LimitExceededError(f"n={g.n} exceeds enumeration limit {limit}")
    for mask in range(1, 1 << g.n):
        if g.neighborhood_mask(mask) & mask:
            continue
        if g.difference_mask(mask) >= 0:
            return False
    return True
