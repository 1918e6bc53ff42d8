"""The (D, A, C) matching-structure partition and its ker-localization."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from critindep import (Graph, LimitExceededError, PreconditionError,
                       check_lemma_54, check_theorem_53, ker)
from critindep.gallai_edmonds import gallai_edmonds, missed_vertices_oracle
from critindep.verification import GraphContext

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
        assert check_lemma_54(cycle(5))

    def test_disjoint_odd_cycles(self):
        edges = [(i, (i + 1) % 3) for i in range(3)]
        edges += [(3 + i, 3 + (i + 1) % 5) for i in range(5)]
        assert check_lemma_54(Graph.build(8, edges))

    def test_rejects_singleton_component(self):
        with pytest.raises(PreconditionError):
            check_lemma_54(empty(1))

    def test_rejects_non_factor_critical_component(self):
        with pytest.raises(PreconditionError):
            check_lemma_54(path(3))


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
