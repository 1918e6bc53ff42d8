"""Deletion queries and structures read off one cached maximum matching.

`critical_difference(g, [v])` reads the alternating structure of the
cached double-cover matching, and `mu(g, [v])` reads the alternating
forest that the cached blossom matching grows from its exposed vertices;
both must agree with the same quantity computed from scratch on the
graph G - v.  Several deleted vertices are answered from a fresh
graph, and must agree with the oracles as well.  `diadem` reads the same
alternating structure, and each clause of its membership test is pinned
on a small graph.  The structures built on these (ker, diadem, the
Gallai-Edmonds partition) must agree with the deletion route that builds
every G - S as a fresh graph.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critindep import (Graph, critical_difference, critical_difference_oracle,
                       diadem, diadem_oracle, is_factor_critical, ker,
                       max_matching_bruteforce, max_matching_general, mu)
from critindep.critical import _double_cover
from critindep.gallai_edmonds import gallai_edmonds
from critindep.graphs import (bits, connected_components, delete_vertices,
                              induced_subgraph, neighborhood)

from common import cycle, path, petersen, star
from conftest import graphs


@st.composite
def graphs_with_removal(draw, max_n: int = 12):
    g = draw(graphs(max_n=max_n))
    removed = draw(st.lists(st.integers(0, max(g.n - 1, 0)), unique=True,
                            max_size=g.n))
    return g, removed


@settings(max_examples=300)
@given(case=graphs_with_removal())
def test_repaired_values_match_the_deleted_graph(case):
    g, removed = case
    h, _ = delete_vertices(g, removed)
    assert critical_difference(g, removed) == critical_difference(h)
    assert critical_difference(h) == critical_difference_oracle(h)
    assert mu(g, removed) == mu(h) == max_matching_general(h).size
    assert mu(h) == max_matching_bruteforce(h)


@settings(max_examples=200)
@given(g=graphs(max_n=12))
def test_single_deletion_table_matches_the_oracle(g):
    for v in range(g.n):
        h, _ = delete_vertices(g, [v])
        assert critical_difference(g, [v]) == critical_difference_oracle(h)


@pytest.mark.parametrize("g, v, change", [
    (path(2), 0, +1),       # K2 leaves one isolated vertex
    (path(3), 1, +1),       # the centre of P3 leaves two
    (star(3), 0, +1),       # the centre of K1,3 leaves three
    (path(3), 0, -1),       # a leaf of P3 lies in ker
    (cycle(3), 0, 0),       # C3 - v is K2
    (cycle(5), 2, 0),       # C5 - v is P4
])
def test_single_deletion_gives_each_change(g, v, change):
    dc = critical_difference(g)
    assert critical_difference(g, [v]) == dc + change
    assert critical_difference_oracle(delete_vertices(g, [v])[0]) == dc + change


@pytest.mark.parametrize("g, removed, dc, size", [
    # A triangle 1-2-4 with a pendant at 1 and at 2; G - {0, 3} is the
    # triangle.
    (Graph.build(5, [(0, 1), (1, 2), (1, 4), (2, 3), (2, 4)]), [0, 3], 0, 1),
    # Pendants 0 at 2 and 1 at 3 of the path 4-2-3-5, which G - {0, 1} is.
    (Graph.build(6, [(0, 2), (1, 3), (2, 3), (2, 4), (3, 5)]), [0, 1], 0, 2),
], ids=["triangle-with-pendants", "path-with-pendants"])
def test_several_deleted_vertices_match_the_oracles(g, removed, dc, size):
    h, _ = delete_vertices(g, removed)
    assert critical_difference(g, removed) == critical_difference_oracle(h)
    assert critical_difference_oracle(h) == dc
    assert mu(g, removed) == max_matching_bruteforce(h) == size


def _blocked(cover, x: int) -> bool:
    """Whether the left copy x of the cover has an exposed right
    neighbour."""
    return any(cover.match[r] == -1 for r in cover.nbrs[x])


def test_diadem_drops_a_vertex_that_reaches_its_cover_mate():
    g = cycle(3)
    cover = _double_cover(g)
    slack, comp, reach = cover.structure()
    for v in range(g.n):
        u = cover.match[v + g.n]
        assert not slack[v] and not slack[u] and reach[comp[v]] >> u & 1
    assert diadem(g) == diadem_oracle(g) == frozenset()


def test_diadem_drops_the_centre_of_p3():
    # Its cover mate is a slack leaf, and its own left copy has an exposed
    # right neighbour.
    g = path(3)
    cover = _double_cover(g)
    slack, comp, reach = cover.structure()
    assert not slack[1] and slack[cover.match[1 + g.n]]
    assert any(_blocked(cover, x) for x in bits(reach[comp[1]]))
    assert diadem(g) == diadem_oracle(g) == {0, 2}


def test_diadem_takes_a_vertex_whose_right_copy_is_exposed():
    # Two leaves of K1,3 have exposed right copies in any maximum
    # matching of the cover; the mirror makes their left copies slack.
    g = star(3)
    cover = _double_cover(g)
    slack = cover.structure().slack
    exposed = {v for v in range(g.n) if cover.match[v + g.n] == -1}
    assert len(exposed) == 2 and all(slack[v] for v in exposed)
    assert exposed < diadem(g) == diadem_oracle(g) == {1, 2, 3}


def test_diadem_takes_a_vertex_whose_cover_mate_lies_outside_its_reach():
    g = path(4)
    cover = _double_cover(g)
    slack, comp, reach = cover.structure()
    assert not any(slack) and not any(_blocked(cover, x) for x in range(g.n))
    assert not reach[comp[1]] >> cover.match[1 + g.n] & 1
    assert diadem(g) == diadem_oracle(g) == {0, 1, 2, 3}


def test_repairs_match_fresh_covers_on_sparse_random_graphs():
    rng = random.Random(1958)
    for n in range(20, 81, 10):
        g = Graph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < 3 / n])
        for v in range(n):
            h, _ = delete_vertices(g, [v])
            assert critical_difference(g, [v]) == critical_difference(h)
            assert mu(g, [v]) == mu(h)


def _ker_by_deletion(g: Graph) -> frozenset[int]:
    dc = critical_difference(g)
    return frozenset(v for v in range(g.n)
                     if critical_difference(delete_vertices(g, [v])[0])
                     == dc - 1)


def _diadem_by_deletion(g: Graph) -> frozenset[int]:
    dc = critical_difference(g)
    members = set()
    for v in range(g.n):
        rest, _ = delete_vertices(g, bits(g.adj[v] | 1 << v))
        if 1 - g.degree(v) + critical_difference(rest) == dc:
            members.add(v)
    return frozenset(members)


def _d_by_deletion(g: Graph) -> frozenset[int]:
    base = max_matching_general(g).size
    return frozenset(v for v in range(g.n)
                     if max_matching_general(delete_vertices(g, [v])[0]).size
                     == base)


def _factor_critical_by_deletion(g: Graph) -> bool:
    if g.n % 2 == 0:
        return g.n == 0
    return all(max_matching_general(delete_vertices(g, [v])[0]).size
               == g.n // 2 for v in range(g.n))


def _partition_by_deletion(g: Graph) -> tuple:
    """(D, A, C, {(component of G[D], factor-critical)}) from fresh
    graphs."""
    d_set = _d_by_deletion(g)
    a_set = neighborhood(g, d_set) - d_set
    sub, labels = induced_subgraph(g, d_set)
    comps = frozenset(
        (frozenset(labels[v] for v in comp),
         _factor_critical_by_deletion(induced_subgraph(sub, comp)[0]))
        for comp in connected_components(sub))
    return d_set, a_set, frozenset(range(g.n)) - d_set - a_set, comps


def _partition_fields(g: Graph) -> tuple:
    p = gallai_edmonds(g)
    return p.d_set, p.a_set, p.c_set, frozenset(p.d_components)


def test_structures_match_the_deletion_route_on_random_graphs():
    rng = random.Random(20170111)
    for n in (*range(20, 121, 20), 300):
        for degree in (1.0, 2.5, 4.0):
            g = Graph.build(n, [(u, v) for u in range(n)
                                for v in range(u + 1, n)
                                if rng.random() < degree / n])
            assert ker(g) == _ker_by_deletion(g)
            assert diadem(g) == _diadem_by_deletion(g)
            assert _partition_fields(g) == _partition_by_deletion(g)


def test_factor_critical_matches_the_deletion_route():
    rng = random.Random(5)
    samples = [cycle(7), path(5), star(4), petersen(), Graph.build(1, [])]
    for _ in range(40):
        n = rng.choice((5, 7, 9, 11))
        samples.append(Graph.build(n, [(u, v) for u in range(n)
                                       for v in range(u + 1, n)
                                       if rng.random() < 0.5]))
    for g in samples:
        assert is_factor_critical(g) == _factor_critical_by_deletion(g)


def test_equal_graphs_built_separately_give_equal_answers():
    edges = [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (4, 6)]
    first = Graph.build(7, edges)
    second = Graph.build(7, list(reversed(edges)))
    assert first == second and first is not second
    for v in range(7):
        assert critical_difference(first, [v]) == critical_difference(
            second, [v])
        assert mu(first, [v]) == mu(second, [v])
    assert ker(first) == ker(second) == frozenset({1, 2})


def test_interleaved_graphs_keep_their_own_answers():
    # More graphs than any of the caches holds, queried round-robin, so
    # every entry is evicted and rebuilt while the others are in use.
    rng = random.Random(3)
    pool = [Graph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < 0.3])
            for n in (5, 6, 7, 8, 9, 10, 11, 12)]
    expected = {}
    for g in pool:
        for v in range(g.n):
            h, _ = delete_vertices(g, [v])
            expected[g, v] = (critical_difference_oracle(h),
                              max_matching_bruteforce(h))
        expected[g] = _partition_by_deletion(g)
    for _ in range(3):
        for v in range(12):
            for g in pool:
                if v < g.n:
                    assert (critical_difference(g, [v]),
                            mu(g, [v])) == expected[g, v]
                if v % 4 == 0:
                    assert _partition_fields(g) == expected[g]
    for g in pool:
        assert critical_difference(g) == critical_difference_oracle(g)
        assert mu(g) == max_matching_bruteforce(g)
