"""The (D, A, C) matching-structure partition and its ker-localization."""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings

import critindep.gallai_edmonds as ge
import critindep.matching as mt
from critindep import (Graph, GallaiEdmondsPartition, LimitExceededError,
                       check_theorem_53, diadem, ker, neighborhood, reports)
from critindep.gallai_edmonds import gallai_edmonds, missed_vertices_oracle
from critindep.graphs import induced_subgraph
from critindep.verification import (GraphContext, Limits, all_labeled_graphs,
                                    random_gnp, run_graph_checks)

from common import (components_by_masks, cycle, empty, induced_by_dict, path,
                    random_graphs, run_check, star)
from conftest import graphs


class TestPartition:
    def test_p3(self):
        p = gallai_edmonds(path(3))
        assert p.d_set == {0, 2}
        assert p.a_set == {1}
        assert p.c_set == frozenset()

    def test_c5_is_all_d(self):
        p = gallai_edmonds(cycle(5))
        assert p.d_set == frozenset(range(5))
        assert p.a_set == p.c_set == frozenset()
        assert p.d_components == ((frozenset(range(5)), True),)

    def test_c6_is_all_c(self):
        p = gallai_edmonds(cycle(6))
        assert p.c_set == frozenset(range(6))
        assert p.d_set == p.a_set == frozenset()

    def test_star(self):
        p = gallai_edmonds(star(3))
        assert p.d_set == {1, 2, 3}
        assert p.a_set == {0}
        assert len(p.d_components) == 3

    def test_partition_covers_vertex_set(self):
        g = Graph.build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)])
        p = gallai_edmonds(g)
        assert p.d_set | p.a_set | p.c_set == frozenset(range(6))
        assert not (p.d_set & p.a_set or p.d_set & p.c_set
                    or p.a_set & p.c_set)

    @settings(max_examples=150)
    @given(g=graphs(max_n=8))
    def test_d_agrees_with_all_matchings_oracle(self, g):
        p = gallai_edmonds(g)
        assert p.d_set == missed_vertices_oracle(g)

    @settings(max_examples=100)
    @given(g=graphs(max_n=8))
    def test_no_edge_joins_d_and_c(self, g):
        p = gallai_edmonds(g)
        for u, v in g.edges:
            assert not ((u in p.d_set and v in p.c_set)
                        or (v in p.d_set and u in p.c_set))

    @pytest.mark.parametrize("g, d_set", [
        # Root 6 is exposed; 6-0=1 reaches the triangle 1-2=3, contracted
        # first, and 3-4=5-6 then closes an odd cycle around it.
        (Graph.build(7, [(0, 1), (0, 6), (1, 2), (1, 3), (2, 3), (3, 4),
                         (4, 5), (5, 6)]), frozenset(range(7))),
        # Root 4 is exposed; the triangle 1-2=3 hangs below odd vertex 0.
        (Graph.build(5, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 3)]),
         frozenset({1, 2, 3, 4})),
    ], ids=["nested-blossom", "blossom-below-an-odd-vertex"])
    def test_forest_blossoms_match_the_oracle(self, g, d_set):
        # The first forest pass matches greedily; here that matching is
        # already maximum and leaves only the root exposed, so the last
        # pass grows the tree the comments describe.
        match = mt._base_matching(g).match
        assert [v for v in range(g.n) if match[v] == -1] == [g.n - 1]
        assert gallai_edmonds(g).d_set == missed_vertices_oracle(g) == d_set
        base = mt.mu(g)
        assert [mt.mu(g, v) for v in range(g.n)] == [
            base - (v not in d_set) for v in range(g.n)]

    def test_one_matching_per_graph(self, monkeypatch):
        # Forest passes run on g and on each component of G[D] with an
        # edge, whose factor-critical flag reads its own matching; the
        # mu(G - v) queries all read g's last pass.  n = 300 and seed 19
        # give two such components, of 3 and 47 vertices.
        rng = random.Random(19)
        n = 300
        g = Graph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < 3 / n])
        calls = []
        counted = mt._forest

        def forest(adj, match):
            calls.append(len(adj))
            return counted(adj, match)

        monkeypatch.setattr(mt, "_forest", forest)
        p = gallai_edmonds(g)
        sizes = sorted(len(comp) for comp, _ in p.d_components
                       if len(comp) > 1)
        assert sizes == [3, 47]
        assert sorted(set(calls)) == [*sizes, n]
        calls.clear()
        base = mt.mu(g)
        assert [mt.mu(g, v) for v in range(n)] == [
            base - (v not in p.d_set) for v in range(n)]
        assert calls == []

    def test_oracle_limit(self):
        with pytest.raises(LimitExceededError):
            missed_vertices_oracle(empty(11))


class TestTheorem53:
    def test_p3_all_clauses(self):
        g = path(3)
        report = check_theorem_53(g, gallai_edmonds(g))
        assert report == {
            "c_perfect_matching": True,
            "a_subsets_touch_components": True,
            "a_matched_to_distinct_components": True,
            "d_components_factor_critical": True,
        }

    def test_c5(self):
        g = cycle(5)
        report = check_theorem_53(g, gallai_edmonds(g))
        assert all(v for v in report.values() if v is not None)

    def test_c6(self):
        g = cycle(6)
        report = check_theorem_53(g, gallai_edmonds(g))
        assert report["c_perfect_matching"]

    def test_large_a_clause_is_skipped(self):
        g = star(3)
        report = check_theorem_53(g, gallai_edmonds(g), subset_limit=0)
        assert report["a_subsets_touch_components"] is None

    def test_c_clause_equals_the_matching_of_g_c(self):
        # The clause reads g's maximum matching; it must give the verdict
        # of a fresh matching of G[C], on the true partition and on one
        # that moves a vertex of C into A, which both routes reject.
        graphs = [g for n in range(7) for g in all_labeled_graphs(n)]
        graphs += random_graphs(300, seed=5301, max_n=200)
        tampered = 0
        for g in graphs:
            p = gallai_edmonds(g)
            partitions = [p]
            if p.c_set:
                v = min(p.c_set)
                partitions.append(p._replace(
                    a_set=p.a_set | {v}, c_set=p.c_set - {v}))
            for q, want in zip(partitions, (True, False)):
                got = check_theorem_53(g, q)["c_perfect_matching"]
                sub, _ = induced_subgraph(g, q.c_set)
                assert got == mt.has_perfect_matching(sub) == want
            tampered += len(partitions) - 1
        assert tampered > 10_000


class TestLemma54:
    def test_c5(self):
        assert run_check(GraphContext(cycle(5)), "lemma_5_4") == "pass"

    def test_disjoint_odd_cycles(self):
        edges = [(i, (i + 1) % 3) for i in range(3)]
        edges += [(3 + i, 3 + (i + 1) % 5) for i in range(5)]
        assert run_check(GraphContext(Graph.build(8, edges)),
                         "lemma_5_4") == "pass"

    @pytest.mark.parametrize("flag, status", [(False, "skipped"),
                                              (True, "fail")],
                             ids=["not-factor-critical", "factor-critical"])
    def test_component_flag_gates_the_check(self, monkeypatch, flag, status):
        # P3 is not factor-critical and {0, 2} has difference 1, so the
        # check runs (and fails) only if the partition claims otherwise.
        whole = frozenset(range(3))
        fake = GallaiEdmondsPartition(d_set=whole, a_set=frozenset(),
                                      c_set=frozenset(),
                                      d_components=((whole, flag),))
        monkeypatch.setattr(ge, "gallai_edmonds", lambda g: fake)
        assert run_check(GraphContext(path(3)), "lemma_5_4") == status


class TestPartitionCache:
    def test_one_partition_per_graph(self, monkeypatch):
        # A star, a 5-cycle and a path: D has singleton and non-singleton
        # components, and n = 12 keeps the missed-vertices oracle (and its
        # own mu call) out of the check run.
        edges = [(0, 1), (0, 2), (0, 3), (9, 10), (10, 11)]
        edges += [(4 + i, 4 + (i + 1) % 5) for i in range(5)]
        g = Graph.build(12, edges)
        calls = []
        counted = ge.mu

        def mu(*args, **kwargs):
            calls.append(args)
            return counted(*args, **kwargs)

        monkeypatch.setattr(ge, "mu", mu)
        statuses = run_graph_checks(GraphContext(g))
        reports.analyze(g)
        assert len(calls) == g.n + 1
        assert statuses["lemma_5_4"] == "pass"
        assert gallai_edmonds(g) is gallai_edmonds(g)

    def test_one_clause_report_per_analyze(self, monkeypatch):
        # |A| = 2 here, so clause (ii) walks the subsets of A.
        g = Graph.build(7, [(0, 1), (0, 2), (3, 4), (3, 5), (0, 6), (3, 6)])
        calls = []
        counted = ge.check_theorem_53

        def check_theorem_53(*args, **kwargs):
            calls.append(args)
            return counted(*args, **kwargs)

        monkeypatch.setattr(ge, "check_theorem_53", check_theorem_53)
        report = reports.analyze(g)
        assert len(calls) == 1
        assert report["checks"]["theorem_5_3"] == "pass"
        assert report["gallai_edmonds"]["A"] == [0, 3]
        assert report["gallai_edmonds"]["checks"] == {
            "a_matched_to_distinct_components": True,
            "a_subsets_touch_components": True,
            "c_perfect_matching": True,
            "d_components_factor_critical": True}


class TestCorollary56:
    def test_p3(self):
        assert run_check(GraphContext(path(3)), "corollary_5_6") == "pass"

    def test_c5(self):
        assert run_check(GraphContext(cycle(5)), "corollary_5_6") == "pass"

    def test_star(self):
        g = star(3)
        p = gallai_edmonds(g)
        assert ker(g) <= p.singleton_union()
        assert run_check(GraphContext(g), "corollary_5_6") == "pass"

    def test_reads_context_ker(self):
        ctx = GraphContext(star(3))
        ctx.ker = frozenset({0})
        assert run_check(ctx, "corollary_5_6") == "fail"

    @settings(max_examples=150)
    @given(g=graphs(max_n=8))
    def test_holds_on_random_graphs(self, g):
        assert run_check(GraphContext(g), "corollary_5_6") == "pass"


def partition_per_component(g: Graph) -> GallaiEdmondsPartition:
    """The partition as it was built before the one-pass component cut:
    A through the bitmasks, and each component of G[D] cut out of G[D] by
    its own induced subgraph and matched, singletons included."""
    base = mt.mu(g)
    d_set = frozenset(v for v in range(g.n) if mt.mu(g, v) == base)
    a_set = neighborhood(g, d_set) - d_set
    c_set = frozenset(range(g.n)) - d_set - a_set
    return GallaiEdmondsPartition(d_set, a_set, c_set,
                                  components_per_component(g, d_set))


def components_per_component(g: Graph, d_set) -> tuple:
    """The components of G[d_set], each cut out of G[d_set] by its own
    induced subgraph and flagged by `is_factor_critical` on it."""
    sub, labels = induced_by_dict(g, d_set)
    return tuple((frozenset(labels[v] for v in comp),
                  mt.is_factor_critical(induced_by_dict(sub, comp)[0]))
                 for comp in components_by_masks(sub))


def clauses_by_scan(g: Graph, p: GallaiEdmondsPartition,
                    subset_limit: int = ge.SUBSET_CLAUSE_LIMIT) -> tuple:
    """Clauses (ii) and (iii) of Theorem 5.3 as they were decided before
    the vertex-to-component map: every subset of A and every A vertex
    scans all of D's components."""
    comp_sets = [comp for comp, _ in p.d_components]
    avs = sorted(p.a_set)
    touch = None
    if len(avs) <= subset_limit:
        touch = all(
            sum(1 for comp in comp_sets if neighborhood(g, s) & comp)
            >= size + 1
            for size in range(1, len(avs) + 1)
            for s in combinations(avs, size))
    partner = {}
    for u, v in mt.max_matching_general(g).edges:
        partner[u], partner[v] = v, u
    used = set()
    for a in avs:
        i = next((i for i, comp in enumerate(comp_sets)
                  if partner.get(a) in comp), None)
        if i is None or i in used:
            return touch, False
        used.add(i)
    return touch, True


def scrambled_partition(g: Graph, rng: random.Random
                        ) -> GallaiEdmondsPartition:
    """A partition-shaped value with random A and random D components,
    so that the clauses fail as often as they pass."""
    order = list(range(g.n))
    rng.shuffle(order)
    cut = rng.randint(0, g.n)
    a_set = frozenset(order[:min(cut, 6)])
    rest = order[cut:]
    comps = []
    while rest:
        size = rng.randint(1, 3)
        comps.append((frozenset(rest[:size]), True))
        rest = rest[size:]
    return GallaiEdmondsPartition(frozenset().union(*(c for c, _ in comps)),
                                  a_set, frozenset(), tuple(comps))


class TestComponentFlags:
    """`_d_components` runs forest passes on each component's own
    adjacency lists from g's matching; it must agree with a fresh
    induced subgraph per component."""

    def test_flags_equal_the_per_component_route_up_to_six(self):
        for n in range(7):
            for g in all_labeled_graphs(n):
                assert (ge._d_components(g, gallai_edmonds(g).d_set)
                        == partition_per_component(g).d_components)

    def test_tampered_sets_get_their_own_flags(self):
        # Sets other than D: random sets, and D with one vertex added or
        # dropped.  g's matching need not be near-perfect on their
        # components, many of which are not factor-critical.
        rng = random.Random(27)
        flags = set()
        for g in random_graphs(400, seed=27, max_n=10):
            d_set = gallai_edmonds(g).d_set
            tampered = [frozenset(v for v in range(g.n) if rng.random() < 0.6)]
            tampered += [d_set ^ {v} for v in range(g.n)]
            for s in tampered:
                got = ge._d_components(g, s)
                assert got == components_per_component(g, s)
                flags.update(flag for comp, flag in got if len(comp) > 1)
        assert flags == {True, False}


class TestSparseRoutes:
    GRAPHS = random_graphs(2000, seed=53, max_n=18)

    def test_partition_equals_the_per_component_route(self):
        for g in self.GRAPHS:
            assert gallai_edmonds(g) == partition_per_component(g)

    def test_clause_verdicts_equal_the_component_scan(self):
        rng = random.Random(54)
        verdicts = set()
        for g in self.GRAPHS[:600]:
            for p in (gallai_edmonds(g), scrambled_partition(g, rng)):
                report = check_theorem_53(g, p)
                got = (report["a_subsets_touch_components"],
                       report["a_matched_to_distinct_components"])
                assert got == clauses_by_scan(g, p)
                verdicts.add(got)
        assert {(True, True), (False, False)} <= verdicts

    def test_ker_checks_equal_the_mask_route(self):
        # theorem_2_2 and diadem_avoids_ker_neighborhood read neighbour
        # lists; the true sets, critical sets and random sets must get the
        # verdicts of the bitmask route.  A critical set has d = d_c, so
        # with core out of reach (omega limit 0) only independence
        # decides theorem_2_2 on it.
        rng = random.Random(55)
        verdicts = set()
        for g in self.GRAPHS[:300]:
            truth = GraphContext(g)
            drawn = [frozenset(v for v in range(g.n) if rng.random() < 0.3)
                     for _ in range(2)]
            claims = [(truth.ker, truth.diadem), drawn]
            claims += [(x, truth.diadem)
                       for x in (truth.critical_sets or [])[:3]]
            for (kernel, dia), limits in product(claims,
                                                 (Limits(), Limits(omega=0))):
                ctx = GraphContext(g, limits)
                ctx.ker, ctx.diadem = kernel, dia
                kmask = g.mask_of(kernel)
                want = (not g.neighborhood_mask(kmask) & kmask
                        and g.difference_mask(kmask) == ctx.dc
                        and (ctx.core is None or kernel <= ctx.core),
                        not dia & neighborhood(g, kernel))
                got = run_graph_checks(ctx, [
                    "theorem_2_2", "diadem_avoids_ker_neighborhood"])
                assert tuple(got.values()) == tuple(
                    "pass" if ok else "fail" for ok in want)
                verdicts.add(want)
        assert {(True, True), (False, False)} <= verdicts

    def test_polynomial_routes_build_no_bitmasks(self):
        g = random_gnp(5000, 3 / 5000, random.Random(5))
        for route in (ker, diadem, gallai_edmonds, mt.max_matching_general):
            route(g)
        ctx = GraphContext(g)
        assert run_graph_checks(ctx, ["theorem_2_2",
                                      "diadem_avoids_ker_neighborhood"]) \
            == {"theorem_2_2": "pass",
                "diadem_avoids_ker_neighborhood": "pass"}
        assert "nbrs" in vars(g) and "adj" not in vars(g)
        # |ker| = 1 is within the enumeration limit, so the report runs
        # theorem_2_7 and theorem_2_12 on ker; they read neighbour lists.
        n, rng = 5000, random.Random(0)
        edges = set()
        while len(edges) < 25_000:
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        g = Graph.build(n, edges)
        report = reports.analyze(g)
        assert report["critical"]["d_c"] == len(report["critical"]["ker"]) == 1
        assert report["checks"]["theorem_2_7"] == "pass"
        assert report["checks"]["theorem_2_12"] == "pass"
        assert "adj" not in vars(g)
