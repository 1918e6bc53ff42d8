"""Graph construction, elementary queries, cycles, and file formats."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critindep import (FormatError, Graph, InvalidVertexError,
                       NotUnicyclicError, connected_components, difference,
                       delete_vertices, find_unique_cycle, generate_random,
                       induced_subgraph, neighborhood, parse_edge_list,
                       parse_graph6, to_edge_list, to_graph6)
from critindep.critical import difference_table
from critindep.graphs import MAX_VERTICES, bits, cycle_space_dimension

from common import (complete, components_by_masks, cycle, empty,
                    induced_by_dict, path, petersen, random_graphs, star)
from conftest import graphs


@st.composite
def sparse_graphs_past_one_byte_header(draw):
    """Graphs with 63 <= n <= 130, where graph6 writes n in four bytes,
    and at most 2n edges."""
    n = draw(st.integers(min_value=63, max_value=130))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
    return Graph.build(n, {(min(u, v), max(u, v)) for u, v in pairs
                           if u != v})


@st.composite
def unicyclic_with_forest(draw):
    """A generated unicyclic graph or a bare cycle, with a random forest
    hung on it or left beside it, relabelled at random."""
    if draw(st.booleans()):
        _, cu = generate_random(draw(st.sampled_from([3, 5, 7, 9])),
                                draw(st.integers(1, 4)),
                                draw(st.integers(0, 4)),
                                seed=draw(st.integers(0, 2 ** 30)))
        base = cu.graph
    else:
        base = cycle(draw(st.integers(3, 10)))
    edges = list(base.edges)
    n = base.n
    for v in range(n, n + draw(st.integers(0, 12))):
        # Each new vertex joins at most one earlier vertex: no new cycle.
        if draw(st.booleans()):
            edges.append((draw(st.integers(0, v - 1)), v))
        n = v + 1
    label = draw(st.permutations(range(n)))
    return Graph.build(n, [(label[u], label[v]) for u, v in edges])


def relabelled_cycle(order: list[int]) -> Graph:
    """The cycle that visits `order` in turn."""
    return Graph.build(len(order), [(order[i - 1], order[i])
                                    for i in range(len(order))])


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(FormatError):
            Graph.build(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(FormatError):
            Graph.build(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(InvalidVertexError):
            Graph.build(2, [(0, 2)])

    def test_edges_are_normalized_and_sorted(self):
        g = Graph.build(4, [(3, 1), (2, 0)])
        assert g.edges == ((0, 2), (1, 3))
        assert g.edge_count == 2

    def test_adjacency_is_symmetric(self):
        g = cycle(5)
        for u, v in g.edges:
            assert g.has_edge(u, v) and g.has_edge(v, u)

    @settings(max_examples=100)
    @given(g=graphs(), seed=st.randoms(use_true_random=False))
    def test_graphs_built_separately_hash_and_compare_equal(self, g, seed):
        edges = [(v, u) for u, v in g.edges]
        seed.shuffle(edges)
        twin = Graph.build(g.n, edges)
        assert twin is not g
        assert twin == g and hash(twin) == hash(g)
        assert hash(g) == hash((g.n, g.edges))
        assert {g: 1}[twin] == 1

    def test_equality_reads_the_vertex_count_and_edges_only(self):
        p3 = path(3)
        assert p3.nbrs == ((1,), (0, 2), (1,)) and p3.adj == (2, 5, 2)
        # The adjacency caches stay out of equality and hashing: a twin
        # that built neither, or holds a wrong one, is the same graph.
        twin = Graph.build(3, [(1, 2), (0, 1)])
        assert p3 == twin and hash(p3) == hash(twin)
        assert "nbrs" not in vars(twin) and "adj" not in vars(twin)
        vars(twin)["adj"] = (0, 0, 0)
        assert p3 == twin and hash(p3) == hash(twin)
        assert p3 != Graph.build(4, p3.edges)
        assert p3 != Graph.build(3, [(0, 1)])
        assert p3 != (3, p3.edges)


class TestNeighborhoodAndDifference:
    def test_path_middle_vertex(self):
        assert neighborhood(path(3), [1]) == {0, 2}

    def test_empty_set(self):
        assert neighborhood(cycle(5), []) == frozenset()

    def test_c5_two_vertices(self):
        assert neighborhood(cycle(5), [0, 2]) == {1, 3, 4}

    def test_neighborhood_may_intersect_input(self):
        assert 1 in neighborhood(path(3), [0, 1])

    def test_difference_empty(self):
        assert difference(cycle(5), []) == 0

    def test_difference_star_leaves(self):
        assert difference(star(3), [1, 2, 3]) == 2

    def test_difference_c5_singleton(self):
        assert difference(cycle(5), [0]) == -1

    def test_invalid_vertex_raises(self):
        with pytest.raises(InvalidVertexError):
            difference(cycle(5), [5])

    @given(g=graphs(max_n=7), data=st.data())
    def test_difference_bounds(self, g, data):
        xs = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)))
                       if g.n else st.just(set()))
        xs = {v for v in xs if v < g.n}
        d = difference(g, xs)
        assert len(xs) - g.n <= d <= len(xs)

    @given(g=graphs(max_n=7), data=st.data())
    def test_neighborhood_monotone(self, g, data):
        if g.n == 0:
            return
        y = data.draw(st.sets(st.integers(0, g.n - 1)))
        x = {v for v in y if data.draw(st.booleans())}
        assert neighborhood(g, x) <= neighborhood(g, y)


class TestSubgraphs:
    def test_three_consecutive_of_c5_is_path(self):
        sub, labels = induced_subgraph(cycle(5), [0, 1, 2])
        assert labels == (0, 1, 2)
        assert sub.edges == ((0, 1), (1, 2))

    def test_full_vertex_set_is_identity(self):
        g = cycle(5)
        sub, labels = induced_subgraph(g, range(5))
        assert sub == g
        assert labels == tuple(range(5))

    def test_star_leaves_are_isolated(self):
        sub, _ = induced_subgraph(star(3), [1, 2, 3])
        assert sub.edge_count == 0

    def test_delete_middle_of_path(self):
        sub, labels = delete_vertices(path(3), [1])
        assert sub.edge_count == 0
        assert labels == (0, 2)

    def test_delete_one_of_c5_is_p4(self):
        sub, _ = delete_vertices(cycle(5), [0])
        assert sub.edges == ((0, 1), (1, 2), (2, 3))

    def test_delete_nothing_is_identity(self):
        g = star(3)
        sub, _ = delete_vertices(g, [])
        assert sub == g


class TestSparseFirst:
    """The neighbour lists against the bitmasks, and the one-pass
    deletion and component routes against the routes they replaced."""

    GRAPHS = random_graphs(2000, seed=16)

    def test_the_corpus_has_tiny_graphs_and_isolated_vertices(self):
        assert [g.n for g in self.GRAPHS[:2]] == [0, 1]
        assert sum(any(not nb for nb in g.nbrs) for g in self.GRAPHS) > 1000

    def test_neighbour_lists_are_the_bitmasks_in_order(self):
        for g in self.GRAPHS:
            assert len(g.nbrs) == len(g.adj) == g.n
            for v in range(g.n):
                assert list(g.nbrs[v]) == list(bits(g.adj[v]))

    def test_each_representation_is_built_on_first_use(self):
        g = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
        assert "nbrs" not in vars(g) and "adj" not in vars(g)
        assert connected_components(g) == [frozenset(range(4))]
        assert "nbrs" in vars(g) and "adj" not in vars(g)
        assert neighborhood(g, [1]) == {0, 2}
        assert "adj" not in vars(g)
        difference_table(g)
        assert "adj" in vars(g)

    def test_subgraphs_equal_the_dict_route(self):
        rng = random.Random(17)
        for g in self.GRAPHS:
            for _ in range(2):
                keep = [v for v in range(g.n) if rng.random() < 0.6]
                gone = sorted(set(range(g.n)) - set(keep))
                rng.shuffle(keep)
                expected = induced_by_dict(g, keep)
                assert induced_subgraph(g, keep) == expected
                assert delete_vertices(g, gone + gone[:1]) == expected

    def test_subgraphs_equal_graph_build_on_the_same_edges(self):
        # The deletion skips Graph.build's checks; its graph must still be
        # the one build makes, down to the hash and the neighbour lists.
        rng = random.Random(19)
        for g in self.GRAPHS:
            for gone in (rng.sample(range(g.n), rng.randint(0, g.n)),
                         [v for v in range(g.n) if not g.nbrs[v]],
                         range(g.n)):
                sub, labels = delete_vertices(g, gone)
                built = Graph.build(len(labels), list(sub.edges))
                assert sub == built and hash(sub) == hash(built)
                assert sub.nbrs == built.nbrs
        assert delete_vertices(self.GRAPHS[-1], range(self.GRAPHS[-1].n)) \
            == (Graph.build(0, []), ())

    def test_components_equal_the_mask_route(self):
        for g in self.GRAPHS:
            assert connected_components(g) == components_by_masks(g)

    def test_deletion_rejects_a_vertex_out_of_range(self):
        for bad in (-1, 5):
            with pytest.raises(InvalidVertexError):
                delete_vertices(path(5), [bad])
            with pytest.raises(InvalidVertexError):
                induced_subgraph(path(5), [0, bad])


class TestComponentsAndCycles:
    def test_isolated_vertices(self):
        assert connected_components(empty(3)) == [{0}, {1}, {2}]

    def test_single_component(self):
        assert connected_components(cycle(5)) == [frozenset(range(5))]

    def test_two_components_ordered_by_smallest_member(self):
        g = Graph.build(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        assert connected_components(g) == [{0, 1, 2}, {3, 4}]

    def test_cycle_space_dimension(self):
        assert cycle_space_dimension(path(4)) == 0
        assert cycle_space_dimension(cycle(5)) == 1
        assert cycle_space_dimension(complete(4)) == 3

    def test_find_unique_cycle_c5(self):
        assert find_unique_cycle(cycle(5)) == [0, 1, 2, 3, 4]

    def test_find_unique_cycle_on_tree_is_none(self):
        assert find_unique_cycle(path(6)) is None

    def test_find_unique_cycle_rejects_k4(self):
        with pytest.raises(NotUnicyclicError):
            find_unique_cycle(complete(4))

    def test_cycle_with_pendant_tree(self):
        g = Graph.build(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (3, 5)])
        assert find_unique_cycle(g) == [0, 1, 2]

    def test_unique_cycle_is_rotated_and_reflected(self):
        for order, canonical in (([3, 4, 0, 1, 2], [0, 1, 2, 3, 4]),
                                 ([0, 4, 3, 2, 1], [0, 1, 2, 3, 4]),
                                 ([2, 4, 1, 3, 0], [0, 2, 4, 1, 3]),
                                 ([0, 3, 1, 4, 2], [0, 2, 4, 1, 3]),
                                 ([4, 0, 1, 3, 2], [0, 1, 3, 2, 4])):
            assert find_unique_cycle(relabelled_cycle(order)) == canonical

    @settings(max_examples=200)
    @given(g=unicyclic_with_forest())
    def test_unique_cycle_of_a_relabelled_unicyclic_graph(self, g):
        found = find_unique_cycle(g)
        # The cycle's vertices are exactly those whose deletion leaves a
        # forest.
        assert set(found) == {
            v for v in range(g.n)
            if cycle_space_dimension(delete_vertices(g, [v])[0]) == 0}
        assert len(found) == len(set(found))
        assert all(g.has_edge(found[i - 1], found[i])
                   for i in range(len(found)))
        assert found[0] == min(found) and found[1] < found[-1]


class TestEdgeListFormat:
    def test_round_trip(self):
        g = cycle(5)
        assert parse_edge_list(to_edge_list(g)) == g

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n3 2\n0 1\n# another\n1 2\n"
        assert parse_edge_list(text) == path(3)

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_edge_list("")

    def test_bad_edge_reports_line_number(self):
        with pytest.raises(FormatError) as err:
            parse_edge_list("3 1\n1 1\n")
        assert err.value.line == 2

    def test_edge_count_mismatch(self):
        with pytest.raises(FormatError):
            parse_edge_list("3 2\n0 1\n")

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("3 1\n2 1\n")

    def test_negative_vertex_count_reports_line_number(self):
        with pytest.raises(FormatError) as err:
            parse_edge_list("# header next\n-1 0\n")
        assert err.value.line == 2
        assert "negative" in str(err.value)

    def test_vertex_count_cap(self):
        assert parse_edge_list(f"{MAX_VERTICES} 0\n").n == MAX_VERTICES
        with pytest.raises(FormatError) as err:
            parse_edge_list(f"# header next\n{MAX_VERTICES + 1} 0\n")
        assert err.value.line == 2
        assert "exceeds" in str(err.value)

    def test_duplicate_edge_reports_line_number(self):
        with pytest.raises(FormatError) as err:
            parse_edge_list("3 3\n0 1\n1 2\n0 1\n")
        assert err.value.line == 4
        assert "duplicate" in str(err.value)


class TestGraph6Format:
    def test_known_encodings(self):
        # A round trip cannot catch a wrong bit order; these strings can.
        for g, encoded in ((empty(0), "?"), (complete(2), "A_"),
                           (complete(3), "Bw"), (cycle(5), "Dhc"),
                           (star(3), "Cs"), (petersen(), "IheA@GUAo"),
                           (empty(63), "~??~" + "?" * 326)):
            assert to_graph6(g) == encoded
            assert parse_graph6(encoded) == g

    @pytest.mark.parametrize("text, message", [
        ("~?", "truncated graph6 size field"),
        ("Bx", "nonzero graph6 padding bits"),
    ])
    def test_rejection_messages(self, text, message):
        with pytest.raises(FormatError, match=f"^{message}$"):
            parse_graph6(text)

    def test_header_prefix_is_stripped(self):
        assert parse_graph6(">>graph6<<Bw") == complete(3)

    def test_rejects_empty_string(self):
        with pytest.raises(FormatError):
            parse_graph6("")

    def test_rejects_bad_body_length(self):
        with pytest.raises(FormatError):
            parse_graph6("B")

    def test_rejects_out_of_range_byte(self):
        with pytest.raises(FormatError):
            parse_graph6("B\x01")

    def test_large_n_header(self):
        g = empty(100)
        encoded = to_graph6(g)
        assert encoded.startswith("~")
        assert parse_graph6(encoded) == g

    @settings(max_examples=200)
    @given(g=graphs(max_n=9))
    def test_round_trip(self, g):
        assert parse_graph6(to_graph6(g)) == g

    @settings(max_examples=100)
    @given(g=graphs(max_n=9))
    def test_edge_list_round_trip(self, g):
        assert parse_edge_list(to_edge_list(g)) == g

    @settings(max_examples=50)
    @given(g=sparse_graphs_past_one_byte_header())
    def test_round_trip_with_four_byte_header(self, g):
        encoded = to_graph6(g)
        assert encoded.startswith("~")
        assert parse_graph6(encoded) == g

    @settings(max_examples=50)
    @given(g=sparse_graphs_past_one_byte_header())
    def test_edge_list_round_trip_past_62_vertices(self, g):
        assert parse_edge_list(to_edge_list(g)) == g
