"""Bipartite and general maximum matching plus matching predicates."""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import combinations

import critindep.matching as mt
from critindep import (Graph, LimitExceededError, PartitionError,
                       PreconditionError, critical_difference,
                       has_perfect_matching,
                       is_factor_critical, matching_from_into,
                       max_matching_bipartite, max_matching_bruteforce,
                       max_matching_general, mu, neighborhood)
from critindep.graphs import bits, delete_vertices

from common import (complete, cycle, empty, path, petersen, random_graphs,
                    shuffled_path, star)
from conftest import bipartite_graphs, graphs


class TestBipartiteMatching:
    def test_even_cycle_has_perfect_matching(self):
        m = max_matching_bipartite(cycle(6), [0, 2, 4], [1, 3, 5])
        assert m.size == 3
        assert m.is_valid_for(cycle(6))

    def test_star_from_center(self):
        m = max_matching_bipartite(star(3), [0], [1, 2, 3])
        assert m.size == 1

    def test_path_alternating_parts(self):
        assert max_matching_bipartite(path(4), [0, 2], [1, 3]).size == 2

    def test_rejects_non_crossing_edge(self):
        with pytest.raises(PartitionError):
            max_matching_bipartite(path(3), [0, 1], [2])

    def test_rejects_overlapping_parts(self):
        with pytest.raises(PartitionError):
            max_matching_bipartite(path(3), [0, 1], [1, 2])

    @settings(max_examples=150)
    @given(gb=bipartite_graphs(max_n=9))
    def test_agrees_with_brute_force(self, gb):
        g, side = gb
        left = [v for v in range(g.n) if side[v]]
        right = [v for v in range(g.n) if not side[v]]
        m = max_matching_bipartite(g, left, right)
        assert m.is_valid_for(g)
        assert m.size == max_matching_bruteforce(g)


class TestGeneralMatching:
    def test_odd_cycle(self):
        assert max_matching_general(cycle(5)).size == 2

    def test_petersen(self):
        assert max_matching_general(petersen()).size == 5

    def test_empty_graph(self):
        assert max_matching_general(empty(4)).size == 0

    def test_witness_is_valid(self):
        g = petersen()
        assert max_matching_general(g).is_valid_for(g)

    @settings(max_examples=300)
    @given(g=graphs(max_n=9))
    def test_blossom_agrees_with_brute_force(self, g):
        m = max_matching_general(g)
        assert m.is_valid_for(g)
        assert m.size == max_matching_bruteforce(g)

    @settings(max_examples=150)
    @given(g=graphs(max_n=9))
    def test_cached_witness_is_maximum(self, g):
        # mu fills the cache that max_matching_general then reads.
        size = mu(g)
        m = max_matching_general(g)
        assert m.is_valid_for(g)
        assert m.size == size == max_matching_bruteforce(g)

    @given(g=graphs(min_n=1, max_n=8))
    def test_deleting_a_vertex_drops_mu_by_at_most_one(self, g):
        base = mu(g)
        for v in range(g.n):
            h, _ = delete_vertices(g, [v])
            assert mu(h) in (base, base - 1)

    @settings(max_examples=200)
    @given(g=graphs(max_n=12))
    def test_every_single_deletion_matches_the_oracle(self, g):
        for v in range(g.n):
            h, _ = delete_vertices(g, [v])
            assert mu(g, v) == max_matching_bruteforce(h)

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_every_single_deletion_matches_hopcroft_karp(self, n):
        # Hopcroft-Karp shares no code with the blossom forest, so it is
        # an independent oracle at sizes the brute force cannot reach.
        rng = random.Random(n)
        left = {v for v in range(n) if rng.random() < 0.5}
        g = Graph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if (u in left) != (v in left)
                            and rng.random() < 3 / n])

        def hopcroft_karp(h, labels):
            side = [labels[v] in left for v in range(h.n)]
            return max_matching_bipartite(
                h, [v for v in range(h.n) if side[v]],
                [v for v in range(h.n) if not side[v]]).size

        assert mu(g) == hopcroft_karp(g, range(n))
        for v in range(n):
            assert mu(g, v) == hopcroft_karp(*delete_vertices(g, [v]))

    def test_edge_between_two_trees_augments(self):
        # P4 with only its middle edge matched: the trees grown from the
        # two exposed ends meet across the edge 2-3.
        adj = [[1], [0, 2], [1, 3], [2]]
        match = [-1, 2, 1, -1]
        flipped, _ = mt._forest(adj, match)
        assert flipped and match == [1, 0, 3, 2]
        flipped, even = mt._forest(adj, match)
        assert not flipped and not any(even)
        assert match == [1, 0, 3, 2]
        # Two disjoint such paths both augment in one pass.
        adj = [*adj, *([x + 4 for x in xs] for xs in adj)]
        match = [-1, 2, 1, -1, -1, 6, 5, -1]
        flipped, _ = mt._forest(adj, match)
        assert flipped and match == [1, 0, 3, 2, 5, 4, 7, 6]

    def test_brute_force_limit(self):
        with pytest.raises(LimitExceededError):
            max_matching_bruteforce(empty(13))


class TestMatchingFromInto:
    def test_center_into_leaves(self):
        m = matching_from_into(star(3), [0], [1, 2, 3])
        assert m is not None and m.size == 1

    def test_leaves_into_center_fails(self):
        assert matching_from_into(star(3), [1, 2, 3], [0]) is None

    def test_star_neighborhood_into_critical_set(self):
        leaves = {1, 2, 3}
        m = matching_from_into(star(3), neighborhood(star(3), leaves), leaves)
        assert m is not None

    def test_empty_source_gives_empty_matching(self):
        m = matching_from_into(cycle(5), [], [0, 1])
        assert m is not None and m.size == 0

    def test_rejects_overlap(self):
        with pytest.raises(PreconditionError):
            matching_from_into(path(3), [0, 1], [1, 2])

    def test_uses_only_crossing_edges(self):
        # 0-1 and 2-3; a saturates only via its own edge
        g = path(4)
        m = matching_from_into(g, [1], [0])
        assert m is not None and m.edges == ((0, 1),)

    @settings(max_examples=150)
    @given(g=graphs(min_n=2, max_n=8), data=st.data())
    def test_hall_condition_equivalence(self, g, data):
        a = data.draw(st.sets(st.integers(0, g.n - 1), max_size=4))
        b = set(range(g.n)) - a
        found = matching_from_into(g, a, b) is not None
        hall = all(
            len(neighborhood(g, s) & b) >= len(s)
            for k in range(len(a) + 1) for s in combinations(sorted(a), k))
        assert found == hall


def _match_sides_by_masks(g, lmask, rmask):
    """The mask branch `matching._match_sides` once had for sides other
    than the whole range: each left list read off g's bitmasks."""
    lvs = list(bits(lmask))
    rvs = list(bits(rmask))
    index = {v: len(lvs) + i for i, v in enumerate(rvs)}
    adj = [[index[w] for w in bits(g.adj[u] & rmask)] for u in lvs]
    match = [-1] * (len(lvs) + len(rvs))
    mt._hopcroft_karp(adj, match, range(len(lvs)))
    return adj, match, lvs + rvs


class TestMatchSides:
    @settings(max_examples=300)
    @given(g=graphs(max_n=12), data=st.data())
    def test_lists_and_match_equal_the_mask_branch(self, g, data):
        lmask = data.draw(st.integers(0, g.full_mask))
        rmask = data.draw(st.integers(0, g.full_mask))
        got = mt._match_sides(g, list(bits(lmask)), list(bits(rmask)))
        assert got == _match_sides_by_masks(g, lmask, rmask)

    @settings(max_examples=300)
    @given(g=graphs(max_n=12), data=st.data())
    def test_a_seed_is_extended_to_a_maximum_matching(self, g, data):
        # The seed is g's Edmonds matching or a random maximal matching;
        # each pair whose two copies exist starts matched.
        if data.draw(st.booleans()):
            partner = mt._base_matching(g).match
        else:
            partner = [-1] * g.n
            for u, v in data.draw(st.permutations(g.edges)):
                if partner[u] == partner[v] == -1:
                    partner[u], partner[v] = v, u
        left = list(bits(data.draw(st.integers(0, g.full_mask))))
        right = list(bits(data.draw(st.integers(0, g.full_mask))))
        adj, match, _ = mt._match_sides(g, left, right, partner)
        for i, j in enumerate(match):
            # Each pair is one edge between a left and a right copy.
            assert j == -1 or match[j] == i
            assert j == -1 or i >= len(adj) or j in adj[i]
        _, fresh, _ = mt._match_sides(g, left, right)
        assert match[:len(adj)].count(-1) == fresh[:len(adj)].count(-1)

    def test_whole_range_is_the_double_cover_layout(self):
        g = petersen()
        adj, _, labels = mt._match_sides(g, range(g.n), range(g.n))
        assert adj == [[g.n + w for w in nb] for nb in g.nbrs]
        assert labels == [*range(g.n), *range(g.n)]


def _hopcroft_karp_recursive(n, adj, left):
    """`matching._hopcroft_karp` as it was with a recursive depth-first
    search, one call per step of an augmenting path."""
    INF = n + 1
    match = [-1] * n
    for u in left:
        for v in adj[u]:
            if match[v] == -1:
                match[u] = v
                match[v] = u
                break
    dist = [0] * n
    while True:
        queue = deque()
        for u in left:
            if match[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            break

        def dfs(u):
            for v in adj[u]:
                w = match[v]
                if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                    match[u] = v
                    match[v] = u
                    return True
            dist[u] = INF
            return False

        for u in left:
            if match[u] == -1:
                dfs(u)
    return match


class TestHopcroftKarp:
    @settings(max_examples=300)
    @given(g=graphs(max_n=14), data=st.data())
    def test_match_equals_the_recursive_search(self, g, data):
        lmask = data.draw(st.integers(0, g.full_mask))
        rmask = data.draw(st.integers(0, g.full_mask))
        adj, match, _ = mt._match_sides(g, list(bits(lmask)),
                                        list(bits(rmask)))
        assert match == _hopcroft_karp_recursive(len(match), adj,
                                                 list(range(len(adj))))

    def test_double_covers_equal_the_recursive_search(self):
        for g in random_graphs(300, seed=11, max_n=60):
            adj, match, _ = mt._match_sides(g, range(g.n), range(g.n))
            assert match == _hopcroft_karp_recursive(2 * g.n, adj,
                                                     list(range(g.n)))

    @pytest.mark.parametrize("seed", range(5))
    def test_long_augmenting_paths(self, seed):
        # The recursive search raised RecursionError on all five.
        g = shuffled_path(10_000, seed)
        assert critical_difference(g) == 0
        _, match, _ = mt._match_sides(g, range(g.n), range(g.n))
        assert -1 not in match


class TestPredicates:
    def test_single_edge_perfect(self):
        assert has_perfect_matching(complete(2))

    def test_odd_cycle_not_perfect(self):
        assert not has_perfect_matching(cycle(5))

    def test_even_cycle_perfect(self):
        assert has_perfect_matching(cycle(6))

    def test_odd_cycles_factor_critical(self):
        assert is_factor_critical(cycle(5))
        assert is_factor_critical(cycle(7))

    def test_single_vertex_factor_critical(self):
        assert is_factor_critical(empty(1))

    def test_path_not_factor_critical(self):
        assert not is_factor_critical(path(3))

    def test_even_order_never_factor_critical(self):
        assert not is_factor_critical(complete(4))
