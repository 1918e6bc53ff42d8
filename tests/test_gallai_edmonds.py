"""The (D, A, C) matching-structure partition and its ker-localization."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

import critindep.gallai_edmonds as ge
import critindep.matching as mt
from critindep import (Graph, GallaiEdmondsPartition, LimitExceededError,
                       check_theorem_53, ker, reports)
from critindep.gallai_edmonds import gallai_edmonds, missed_vertices_oracle
from critindep.verification import GraphContext, run_graph_checks

from common import cycle, empty, path, run_check, star
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
        assert [mt.mu(g, [v]) for v in range(g.n)] == [
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
        for cache in (ge._partition, mt._base_matching):
            cache.cache_clear()
        p = gallai_edmonds(g)
        sizes = sorted(len(comp) for comp, _ in p.d_components
                       if len(comp) > 1)
        assert sizes == [3, 47]
        assert sorted(set(calls)) == [*sizes, n]
        calls.clear()
        base = mt.mu(g)
        assert [mt.mu(g, [v]) for v in range(n)] == [
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
        ge._partition.cache_clear()
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
