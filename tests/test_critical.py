"""Critical difference, ker, diadem, minimal positive sets, the gadget,
and the decomposition machinery."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critindep import (ColoredUnicyclic, Graph, PreconditionError, build_hx,
                       critical_difference, critical_difference_oracle,
                       critical_profile, decompose_minimal, diadem,
                       diadem_oracle, difference, enumerate_critical_sets,
                       enumerate_minimal_positive_sets, is_independent, ker,
                       min_cardinality_positive_subset, union_is_minimal_union,
                       verify_hx_ker)
from critindep.critical import check_lemma_31
from critindep.verification import GraphContext

from common import (cycle, empty, figure1_graph, path, run_check, star,
                    witness_graph)
from conftest import graphs


def isolated_plus_edge() -> Graph:
    return Graph.build(3, [(1, 2)])


def black_context(g: Graph, black) -> GraphContext:
    """A context whose coloring carries only a black set, which is all
    that theorem_4_14 reads from it."""
    colored = ColoredUnicyclic(graph=g, cycle=(), blue=frozenset(),
                               red=frozenset(), black=frozenset(black),
                               parent={})
    return GraphContext(g, colored=colored)


class TestCriticalDifference:
    def test_c5(self):
        assert critical_difference(cycle(5)) == 0

    def test_star(self):
        assert critical_difference(star(3)) == 2

    def test_isolated_vertex_plus_edge(self):
        assert critical_difference(isolated_plus_edge()) == 1

    def test_oracle_examples(self):
        assert critical_difference_oracle(empty(4)) == 4
        assert critical_difference_oracle(cycle(5)) == 0
        assert critical_difference_oracle(path(3)) == 1

    @settings(max_examples=300)
    @given(g=graphs(max_n=8))
    def test_double_cover_agrees_with_oracle(self, g):
        assert critical_difference(g) == critical_difference_oracle(g)


class TestCriticalSets:
    def test_star_sole_critical_set(self):
        assert enumerate_critical_sets(star(3)) == [{1, 2, 3}]

    def test_c5_includes_empty_set(self):
        sets = enumerate_critical_sets(cycle(5))
        assert frozenset() in sets
        assert all(difference(cycle(5), s) == 0 for s in sets)

    def test_path_independent_only(self):
        assert enumerate_critical_sets(path(3),
                                       independent_only=True) == [{0, 2}]


class TestKer:
    def test_star(self):
        assert ker(star(3)) == {1, 2, 3}

    def test_c5(self):
        assert ker(cycle(5)) == frozenset()

    def test_path(self):
        assert ker(path(3)) == {0, 2}

    @settings(max_examples=200)
    @given(g=graphs(max_n=7))
    def test_ker_is_intersection_of_critical_sets(self, g):
        expected = frozenset(range(g.n))
        for s in enumerate_critical_sets(g):
            expected &= s
        assert ker(g) == expected

    @settings(max_examples=100)
    @given(g=graphs(max_n=7))
    def test_ker_is_independent_and_critical(self, g):
        k = ker(g)
        assert is_independent(g, k)
        assert difference(g, k) == critical_difference(g)


class TestDiadem:
    def test_star(self):
        assert diadem(star(3)) == {1, 2, 3}

    def test_p4_is_everything(self):
        assert diadem(path(4)) == {0, 1, 2, 3}

    def test_p3(self):
        assert diadem(path(3)) == {0, 2}

    @settings(max_examples=200)
    @given(g=graphs(max_n=7))
    def test_formula_agrees_with_oracle(self, g):
        assert diadem(g) == diadem_oracle(g)


class TestMinimalPositiveSets:
    def test_star_leaf_pairs(self):
        assert enumerate_minimal_positive_sets(star(3)) == [
            {1, 2}, {1, 3}, {2, 3}]

    def test_c5_has_none(self):
        assert enumerate_minimal_positive_sets(cycle(5)) == []

    def test_witness_graph_single_removal_is_insufficient(self):
        g = witness_graph()
        assert enumerate_minimal_positive_sets(g) == [{0}]
        # {0,1,2} has positive difference and every single-vertex removal
        # kills it, yet it is not inclusion-minimal: it contains {0}.
        assert difference(g, [0, 1, 2]) == 1
        for v in (0, 1, 2):
            assert difference(g, {0, 1, 2} - {v}) <= 0

    @settings(max_examples=150)
    @given(g=graphs(max_n=7))
    def test_members_are_independent_with_difference_one(self, g):
        for s in enumerate_minimal_positive_sets(g):
            assert is_independent(g, s)
            assert difference(g, s) == 1


class TestMinCardinalityPositiveSubset:
    def test_star_leaves(self):
        got = min_cardinality_positive_subset(star(3), [1, 2, 3])
        assert got == {1, 2}

    def test_c5_has_none(self):
        assert min_cardinality_positive_subset(cycle(5), [0, 2]) is None

    def test_isolated_vertex_wins(self):
        assert min_cardinality_positive_subset(
            isolated_plus_edge(), [0, 1]) == {0}


class TestHXGadget:
    def test_isolated_vertex_gadget(self):
        g = isolated_plus_edge()
        hx = build_hx(g, [0])
        assert hx.gadget.n == 3
        assert hx.gadget.edges == ((hx.v_label, hx.w_label),)

    def test_star_leaves_gadget(self):
        hx = build_hx(star(3), [1, 2, 3])
        # leaves, center, v, w: star plus the path center-v-w
        assert hx.gadget.n == 6
        assert hx.gadget.edge_count == 5

    def test_figure1_structure(self):
        g, x = figure1_graph()
        hx = build_hx(g, x)
        nx = {4, 5, 6}
        assert hx.gadget.n == len(x) + len(nx) + 2
        assert hx.gadget.has_edge(hx.v_label, hx.w_label)
        for u in nx:
            assert hx.gadget.has_edge(hx.embedding[u], hx.v_label)
        # only X-N(X) host edges survive, plus v's edges
        expected_host_edges = {(a, b) for a, b in g.edges
                               if (a in set(x)) != (b in set(x))
                               and (a in nx or b in nx)}
        gadget_host_edges = {
            e for e in hx.gadget.edges if hx.v_label not in e}
        assert len(gadget_host_edges) == len(expected_host_edges)

    def test_rejects_dependent_set(self):
        with pytest.raises(PreconditionError):
            build_hx(path(2), [0, 1])

    @settings(max_examples=100)
    @given(g=graphs(min_n=1, max_n=7))
    def test_subset_differences_are_preserved(self, g):
        x = sorted(ker(g))
        if not x:
            return
        hx = build_hx(g, x)
        for mask in range(1 << len(x)):
            y = [x[i] for i in range(len(x)) if mask >> i & 1]
            embedded = [hx.embedding[u] for u in y]
            assert difference(hx.gadget, embedded) == difference(g, y)


class TestVerifyHXKer:
    def test_star_leaves(self):
        assert verify_hx_ker(star(3), [1, 2, 3])

    def test_path_ends(self):
        assert verify_hx_ker(path(3), [0, 2])

    def test_two_star_leaves(self):
        assert verify_hx_ker(star(3), [1, 2])

    def test_rejects_equal_subset_difference(self):
        # {0,1} is a proper subset of X with the same difference
        g, x = figure1_graph()
        with pytest.raises(PreconditionError):
            verify_hx_ker(g, x)

    def test_rejects_nonpositive_difference(self):
        with pytest.raises(PreconditionError):
            verify_hx_ker(cycle(5), [0, 2])


class TestDecomposeMinimal:
    def test_star_leaves(self):
        dec = decompose_minimal(star(3), [1, 2, 3])
        assert dec.k == 2
        assert len(dec.parts) == 2
        union = set()
        for part in dec.parts:
            assert difference(star(3), part) == 1
            union |= part
        assert union == {1, 2, 3}
        assert dec.representatives[0] not in dec.parts[1]

    def test_k_equal_one(self):
        g = isolated_plus_edge()
        dec = decompose_minimal(g, [0])
        assert dec.k == 1 and dec.parts == ({0},)

    def test_two_disjoint_stars(self):
        edges = [(0, i) for i in (1, 2, 3)] + [(4, i) for i in (5, 6, 7)]
        g = Graph.build(8, edges)
        x = [1, 2, 3, 5, 6, 7]
        dec = decompose_minimal(g, x)
        assert dec.k == 4
        union = set()
        for part in dec.parts:
            assert difference(g, part) == 1
            union |= part
        assert union == set(x)

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            decompose_minimal(cycle(5), [0, 2])


class TestConverseAndCriticality:
    def test_union_examples(self):
        assert union_is_minimal_union(star(3), [1, 2, 3])
        assert not union_is_minimal_union(star(3), [1])
        assert not union_is_minimal_union(cycle(5), [0, 2])

    def test_theorem_4_14_star(self):
        ctx = black_context(star(3), [1, 2, 3])
        assert run_check(ctx, "theorem_4_14") == "pass"

    def test_theorem_4_14_fails_without_ker(self):
        ctx = black_context(star(3), [1, 2])
        assert run_check(ctx, "theorem_4_14") == "fail"
        ctx = black_context(star(3), [1, 2, 3])
        ctx.ker = frozenset({0})
        assert run_check(ctx, "theorem_4_14") == "fail"

    def test_lemma_31_p4(self):
        assert check_lemma_31(path(4), [0, 2], [1, 3])

    def test_lemma_31_rejects_noncritical(self):
        with pytest.raises(PreconditionError):
            check_lemma_31(star(3), [1, 2], [1, 3])

    def test_theorem_32_examples(self):
        for g in (star(3), cycle(5), path(4)):
            assert run_check(GraphContext(g), "theorem_3_2") == "pass"

    def test_theorem_32_reads_context_diadem(self):
        ctx = GraphContext(star(3))
        ctx.diadem = frozenset({0, 1, 2, 3})
        assert run_check(ctx, "theorem_3_2") == "fail"


class TestSupermodularity:
    """theorem_2_3 checks the local form exhaustively up to n = 9 and
    samples pairs of subsets from n = 10 on."""

    @pytest.mark.parametrize("n", [9, 10])
    def test_tampered_table_fails(self, n):
        ctx = GraphContext(empty(n))
        assert run_check(ctx, "theorem_2_3") == "pass"
        # d(X) = |X| is modular; lifting one layer breaks supermodularity
        ctx.dtab = [d + (x.bit_count() == n // 2)
                    for x, d in enumerate(ctx.dtab)]
        assert run_check(ctx, "theorem_2_3") == "fail"

    def test_exhaustive_branch_finds_one_bad_entry(self):
        ctx = GraphContext(path(9))
        ctx.dtab = list(ctx.dtab)
        ctx.dtab[0b101000110] += 1
        assert run_check(ctx, "theorem_2_3") == "fail"

    @settings(max_examples=150)
    @given(g=graphs(max_n=5), data=st.data())
    def test_agrees_with_all_pairs(self, g, data):
        ctx = GraphContext(g)
        d = list(ctx.dtab)
        x = data.draw(st.integers(0, len(d) - 1))
        d[x] += data.draw(st.integers(-1, 1))
        ctx.dtab = d
        everywhere = all(d[a | b] + d[a & b] >= d[a] + d[b]
                         for a in range(len(d)) for b in range(len(d)))
        assert run_check(ctx, "theorem_2_3") == ("pass" if everywhere
                                                  else "fail")


class TestProfile:
    def test_star_profile(self):
        profile = critical_profile(star(3))
        assert profile.d_c == 2
        assert profile.ker == {1, 2, 3}
        assert profile.diadem == {1, 2, 3}
        assert profile.critical_sets == ({1, 2, 3},)
        assert len(profile.minimal_positive_sets) == 3

    def test_large_graph_skips_enumerations(self):
        profile = critical_profile(empty(18), limit=16)
        assert profile.d_c == 18
        assert profile.critical_sets is None
        assert profile.minimal_positive_sets is None
