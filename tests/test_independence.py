"""Exact independence oracles: alpha, maximum-set enumeration, core."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from critindep import (LimitExceededError, alpha, core,
                       enumerate_maximum_independent_sets, is_independent,
                       mu)

from common import complete, cycle, empty, path, petersen, star
from conftest import bipartite_graphs, graphs


class TestIsIndependent:
    def test_empty_set(self):
        assert is_independent(cycle(5), [])

    def test_star_leaves(self):
        assert is_independent(star(3), [1, 2, 3])

    def test_edge_endpoints(self):
        assert not is_independent(path(2), [0, 1])


class TestAlpha:
    def test_c5(self):
        assert alpha(cycle(5)) == 2

    def test_star(self):
        assert alpha(star(3)) == 3

    def test_petersen(self):
        assert alpha(petersen()) == 4

    def test_complete(self):
        assert alpha(complete(6)) == 1

    def test_empty_graph(self):
        assert alpha(empty(7)) == 7

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            alpha(empty(5), limit=4)

    @settings(max_examples=150)
    @given(g=graphs(max_n=8))
    def test_alpha_matches_exhaustive_enumeration(self, g):
        best = 0
        for mask in range(1 << g.n):
            members = [v for v in range(g.n) if mask >> v & 1]
            if is_independent(g, members):
                best = max(best, len(members))
        assert alpha(g) == best


class TestEnumeration:
    def test_path_has_unique_maximum_set(self):
        assert enumerate_maximum_independent_sets(path(3)) == [{0, 2}]

    def test_c5_has_five_maximum_sets(self):
        sets = enumerate_maximum_independent_sets(cycle(5))
        assert len(sets) == 5
        assert all(len(s) == 2 for s in sets)

    def test_single_edge(self):
        assert enumerate_maximum_independent_sets(path(2)) == [{0}, {1}]

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            enumerate_maximum_independent_sets(empty(21))

    @settings(max_examples=100)
    @given(g=graphs(max_n=7))
    def test_every_member_is_maximum_and_independent(self, g):
        a = alpha(g)
        sets = enumerate_maximum_independent_sets(g)
        assert sets
        for s in sets:
            assert len(s) == a
            assert is_independent(g, s)


class TestCore:
    def test_path(self):
        assert core(path(3)) == {0, 2}

    def test_c5(self):
        assert core(cycle(5)) == frozenset()

    def test_star(self):
        assert core(star(3)) == {1, 2, 3}

    @settings(max_examples=100)
    @given(g=graphs(max_n=7))
    def test_core_is_intersection_of_enumeration(self, g):
        sets = enumerate_maximum_independent_sets(g)
        expected = frozenset(range(g.n))
        for s in sets:
            expected &= s
        assert core(g) == expected


class TestProfileAndKoenig:
    def test_profile_consistency(self):
        g = star(3)
        assert alpha(g) == 3
        assert enumerate_maximum_independent_sets(g) == [{1, 2, 3}]
        assert core(g) == {1, 2, 3}

    @settings(max_examples=150)
    @given(gb=bipartite_graphs(max_n=10))
    def test_bipartite_alpha_is_n_minus_mu(self, gb):
        g, _ = gb
        assert alpha(g) == g.n - mu(g)
