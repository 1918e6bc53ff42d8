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
every G - S as a fresh graph.  `ker_without(g, v)` repairs the cached
cover matching into one of the cover of G - v, and must agree with the
cover of G - v built afresh.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critindep import (Graph, PreconditionError, cover_ker,
                       critical_difference, critical_difference_oracle,
                       diadem, diadem_oracle, is_factor_critical, ker,
                       ker_without, max_matching_bruteforce,
                       max_matching_general, mu)
from critindep import critical
from critindep.critical import _double_cover, _repair
from critindep.gallai_edmonds import gallai_edmonds
from critindep.graphs import (bits, connected_components, delete_vertices,
                              induced_subgraph, neighborhood)

from critindep.verification import GraphContext, all_labeled_graphs

from common import cycle, path, petersen, random_graphs, run_check, star
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


def test_cover_ker_equals_ker_on_every_labeled_graph_up_to_six():
    count = 0
    for n in range(7):
        for g in all_labeled_graphs(n):
            assert cover_ker(g) == ker(g)
            count += 1
    assert count == 33_868


def test_cover_ker_equals_ker_on_sparse_random_graphs():
    rng = random.Random(1707)
    for _ in range(2000):
        n = rng.randint(2, 200)
        edges = {tuple(sorted(rng.sample(range(n), 2)))
                 for _ in range(round(rng.uniform(0.25, 2.5) * n))}
        g = Graph.build(n, sorted(edges))
        assert cover_ker(g) == ker(g)


def test_context_ker_reads_the_cover_without_deletion_lookups(monkeypatch):
    # GraphContext.ker, which the report and the checks read, is the
    # cover route; the deletion route stays as its oracle.
    lookups = []
    lookup = critical.critical_difference

    def counted(g, removed=()):
        lookups.extend(removed)
        return lookup(g, removed)

    monkeypatch.setattr(critical, "critical_difference", counted)
    for n in range(7):
        for g in all_labeled_graphs(n):
            got = GraphContext(g).ker
            assert lookups == []
            assert got == ker(g)
            assert len(lookups) == g.n
            lookups.clear()


def test_ker_is_intersection_holds_ker_against_the_deletion_route(
        monkeypatch):
    g = star(3)
    assert run_check(GraphContext(g), "ker_is_intersection") == "pass"
    for wrong in (frozenset(), frozenset({1, 2}), frozenset(range(4))):
        monkeypatch.setattr(critical, "ker", lambda h, wrong=wrong: wrong)
        assert run_check(GraphContext(g), "ker_is_intersection") == "fail"


def _ker_by_fresh_cover(g: Graph, v: int) -> frozenset[int]:
    h, labels = delete_vertices(g, [v])
    return frozenset(labels[u] for u in cover_ker(h))


def test_ker_without_equals_the_fresh_cover_on_labeled_graphs_up_to_six():
    pairs = 0
    for n in range(7):
        for g in all_labeled_graphs(n):
            for v in cover_ker(g):
                assert ker_without(g, v) == _ker_by_fresh_cover(g, v)
                pairs += 1
    assert pairs == 23_517


def test_ker_without_equals_the_fresh_cover_on_sparse_random_graphs():
    rng = random.Random(1919)
    for _ in range(300):
        n = rng.randint(7, 200)
        edges = {tuple(sorted(rng.sample(range(n), 2)))
                 for _ in range(round(rng.uniform(0.25, 3.0) * n))}
        g = Graph.build(n, sorted(edges))
        for v in cover_ker(g):
            assert ker_without(g, v) == _ker_by_fresh_cover(g, v)


def _assert_maximum_matching_of_the_cover_without(g: Graph, v: int) -> None:
    """The repaired match array pairs copies of g - v along cover edges,
    exposes v, ties v + n to v, and is as large as the fresh cover's."""
    cover = _double_cover(g)
    match, _ = _repair(cover, v)
    n = g.n
    assert match[v] == -1 and match[v + n] == v
    pairs = 0
    for x in range(n):
        r = match[x]
        if x != v and r != -1:
            assert r != v + n and r in cover.nbrs[x] and match[r] == x
            pairs += 1
    assert all(match[r] in (-1, v) or match[match[r]] == r
               for r in range(n, 2 * n))
    h, _ = delete_vertices(g, [v])
    assert pairs == h.n - critical_difference(h)


def test_repair_leaves_a_maximum_matching_of_the_cover_without_v():
    for g in (*(g for n in range(6) for g in all_labeled_graphs(n)),
              *random_graphs(300, seed=1919, max_n=40)):
        for v in cover_ker(g):
            _assert_maximum_matching_of_the_cover_without(g, v)


def test_the_flip_path_never_runs_through_the_right_copy_of_v():
    # v is slack, so the mirror of a maximum matching that misses v
    # misses v + n; v + n is then matched to no slack copy, while the
    # flip path holds slack copies and their mates only.
    for n in range(7):
        for g in all_labeled_graphs(n):
            cover = _double_cover(g)
            slack = cover.slack().flags
            for v in cover_ker(g):
                b = cover.match[v + n]
                assert b == -1 or not slack[b]


def _repair_case(g: Graph, v: int, monkeypatch) -> list[tuple[int, int]]:
    """ker_without(g, v) against the fresh cover, with (left copies the
    augmenting search entered, left copies whose pair it changed), one
    entry per search run."""
    searches = []
    augment = critical._augment

    def watched(nbrs, match, b, seen):
        before = list(match)
        augment(nbrs, match, b, seen)
        changed = sum(before[x] != match[x] for x in range(len(nbrs)))
        searches.append((sum(seen) - 1, changed))  # v is flagged up front

    monkeypatch.setattr(critical, "_augment", watched)
    assert ker_without(g, v) == _ker_by_fresh_cover(g, v)
    monkeypatch.undo()
    _assert_maximum_matching_of_the_cover_without(g, v)
    return searches


def test_ker_without_an_isolated_vertex(monkeypatch):
    # Both copies of v = 2 are exposed: no flip and no b.
    g = Graph.build(3, [(0, 1)])
    assert _double_cover(g).match[2] == _double_cover(g).match[5] == -1
    assert _repair_case(g, 2, monkeypatch) == []
    assert ker_without(g, 2) == frozenset()


def test_ker_without_an_exposed_vertex_with_neighbours(monkeypatch):
    # In the path 1 - 0 - 2, the cover leaves v = 2 exposed: no flip.
    g = Graph.build(3, [(0, 1), (0, 2)])
    cover = _double_cover(g)
    assert cover.match[2] == -1 and g.nbrs[2]
    _repair_case(g, 2, monkeypatch)


def test_ker_without_when_the_right_copy_of_v_is_exposed(monkeypatch):
    # v = 3 is matched, and its path is flipped, but v + n is exposed, so
    # nothing is freed and no search runs.
    g = Graph.build(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)])
    cover = _double_cover(g)
    assert cover.match[3] != -1 and cover.match[3 + 5] == -1
    assert _repair_case(g, 3, monkeypatch) == []


def test_ker_without_when_the_search_from_b_meets_a_dead_end(monkeypatch):
    # The search from b = mate(v + n) enters a left copy that lies on no
    # augmenting path before it finds one.
    g = Graph.build(5, [(0, 1), (0, 3), (0, 4), (1, 2)])
    [(entered, changed)] = _repair_case(g, 3, monkeypatch)
    assert entered > changed


def test_ker_without_rejects_a_vertex_outside_ker():
    g = star(3)
    assert cover_ker(g) == {1, 2, 3}
    for v in (0, -1, 4):
        with pytest.raises(PreconditionError):
            ker_without(g, v)


def _theorem_2_5ii_by_ker(g: Graph, kernel: frozenset[int]) -> bool:
    for v in kernel:
        h, labels = delete_vertices(g, [v])
        if not {labels[u] for u in ker(h)} <= kernel - {v}:
            return False
    return True


def test_theorem_2_5ii_verdicts_match_the_ker_route():
    # The check runs on the true ker and on two tampered ones, so that
    # both verdicts occur.
    rng = random.Random(25)
    verdicts = set()
    for g in random_graphs(300, seed=25):
        kernel = ker(g)
        for claimed in (kernel, kernel - {min(kernel, default=0)},
                        frozenset(v for v in range(g.n)
                                  if rng.random() < 0.5)):
            ctx = GraphContext(g)
            ctx.ker = claimed
            want = _theorem_2_5ii_by_ker(g, claimed)
            assert run_check(ctx, "theorem_2_5ii") == ("pass" if want
                                                       else "fail")
            verdicts.add(want)
    assert verdicts == {True, False}


def test_theorem_2_5ii_fails_on_a_tampered_ker():
    # ker(K1,3) = {1, 2, 3}; with {1, 2} claimed, ker(G - 1) = {2, 3}
    # leaves the claimed set minus 1.
    assert run_check(GraphContext(star(3)), "theorem_2_5ii") == "pass"
    ctx = GraphContext(star(3))
    ctx.ker = frozenset({1, 2})
    assert run_check(ctx, "theorem_2_5ii") == "fail"


def test_theorem_2_5ii_reads_a_non_slack_vertex_off_the_fresh_cover():
    # The centre 0 of K1,3 is outside ker = {1, 2, 3}, so a claimed ker
    # holding it sends the check to the fresh cover of G - 0, whose ker
    # {1, 2, 3} decides the verdict either way.
    g = star(3)
    for claimed, verdict in (({0, 1, 2, 3}, "pass"), ({0}, "fail"),
                             ({0, 1, 2}, "fail")):
        ctx = GraphContext(g)
        ctx.ker = frozenset(claimed)
        assert _theorem_2_5ii_by_ker(g, ctx.ker) == (verdict == "pass")
        assert run_check(ctx, "theorem_2_5ii") == verdict


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
