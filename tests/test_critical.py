"""Critical difference, ker, diadem, minimal positive sets, the gadget,
and the decomposition machinery."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critindep import (ColoredUnicyclic, Graph, PreconditionError, build_hx,
                       critical_difference, critical_difference_oracle,
                       decompose_minimal, diadem, diadem_oracle, difference,
                       enumerate_critical_sets,
                       enumerate_minimal_positive_sets, is_independent, ker,
                       min_cardinality_positive_subset, verify_hx_ker)
from critindep import critical
from critindep.critical import (_check_strict_subset_differences,
                                _max_differences_without, difference_table,
                                max_subset_difference)
from critindep.graphs import bits, set_of
from critindep.verification import (GraphContext, Limits,
                                    all_labeled_graphs, random_gnp,
                                    run_graph_checks)

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


def submasks(mask: int):
    """Every submask of mask, mask itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def strict_subsets_reference(g: Graph, xmask: int) -> bool:
    """d(Y) < d(X) for every proper subset Y of X, by walking them all."""
    dx = g.difference_mask(xmask)
    return all(g.difference_mask(sub) < dx
               for sub in submasks(xmask) if sub != xmask)


class TestMaxSubsetDifference:
    def test_star_leaves(self):
        assert max_subset_difference(star(3), [1, 2, 3]) == 2

    def test_dependent_set(self):
        # d({0,1,2}) = 0 in P3, but its subset {0,2} has d = 1.
        assert max_subset_difference(path(3), [0, 1, 2]) == 1

    @settings(max_examples=300)
    @given(g=graphs(max_n=10), data=st.data())
    def test_agrees_with_submask_walk(self, g, data):
        smask = data.draw(st.integers(0, g.full_mask))
        assert max_subset_difference(g, bits(smask)) == max(
            g.difference_mask(sub) for sub in submasks(smask))


class TestStrictSubsetPrecondition:
    @settings(max_examples=300)
    @given(g=graphs(min_n=1, max_n=10), data=st.data())
    def test_agrees_with_submask_walk(self, g, data):
        xmask = data.draw(st.integers(1, g.full_mask))
        try:
            _check_strict_subset_differences(g, set_of(xmask))
            holds = True
        except PreconditionError:
            holds = False
        assert holds == strict_subsets_reference(g, xmask)

    def test_one_matching_and_no_per_vertex_calls(self, monkeypatch):
        calls = {"_match_sides": 0, "max_subset_difference": 0}

        def counting(name):
            original = getattr(critical, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(critical, name, counting(name))
        g = Graph.build(8, [(0, i) for i in (1, 2, 3)]
                        + [(4, i) for i in (5, 6, 7)])
        _check_strict_subset_differences(g, frozenset([1, 2, 3, 5, 6, 7]))
        assert calls == {"_match_sides": 1, "max_subset_difference": 0}

    def test_each_maximum_is_the_one_of_x_without_v(self):
        # Every nonempty set of every labeled graph on at most five
        # vertices, and one seeded set per labeled graph on six.
        rng = random.Random(23)
        count = 0
        for n in range(1, 7):
            for g in all_labeled_graphs(n):
                masks = (range(1, 1 << n) if n < 6
                         else [rng.randrange(1, 1 << n)])
                for xmask in masks:
                    xs = set_of(xmask)
                    assert _max_differences_without(g, xs) == [
                        max_subset_difference(g, xs - {v})
                        for v in sorted(xs)]
                    count += 1
        assert count == 32_767 + 32_768

    def test_names_the_left_out_vertex(self):
        g, x = figure1_graph()
        with pytest.raises(PreconditionError, match="without"):
            _check_strict_subset_differences(g, frozenset(x))


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
        assert run_check(GraphContext(path(4)), "lemma_3_1") == "pass"

    def test_lemma_31_reads_context_sets(self):
        # |N({1,2,3}) meet {0}| = 1 but |N({0}) meet {1,2,3}| = 3.
        ctx = GraphContext(star(3))
        ctx.critical_independent_sets = [frozenset({1, 2, 3}),
                                         frozenset({0})]
        assert run_check(ctx, "lemma_3_1") == "fail"

    def test_theorem_32_examples(self):
        for g in (star(3), cycle(5), path(4)):
            assert run_check(GraphContext(g), "theorem_3_2") == "pass"

    def test_theorem_32_reads_context_diadem(self):
        ctx = GraphContext(star(3))
        ctx.diadem = frozenset({0, 1, 2, 3})
        assert run_check(ctx, "theorem_3_2") == "fail"


def locally_supermodular(d, n: int) -> bool:
    """The local form of supermodularity, d(X+i) + d(X+j) <= d(X+i+j) +
    d(X), by a loop over every mask X and every pair i < j outside it."""
    singles = [1 << i for i in range(n)]
    for x in range(1 << n):
        dx = d[x]
        free = [b for b in singles if not x & b]
        for a, bi in enumerate(free):
            xi = x | bi
            dxi = d[xi] - dx
            for bj in free[a + 1:]:
                if dxi + d[x | bj] > d[xi | bj]:
                    return False
    return True


def raise_entry(ctx: GraphContext, x: int) -> None:
    """Raise d(x) by one in ctx's table, and require that this breaks the
    local inequality at some X = x - i and j outside x."""
    d = ctx.dtab = list(ctx.dtab)
    d[x] += 1
    assert any(d[x | 1 << j] + d[x ^ 1 << i] < d[x] + d[x ^ 1 << i | 1 << j]
               for i in bits(x) for j in range(ctx.g.n) if not x >> j & 1)


class TestSupermodularity:
    """theorem_2_3 decides the local form exactly at every n by one bulk
    pass over the subset table (`critical.is_supermodular`)."""

    @pytest.mark.parametrize("n", [9, 10])
    def test_tampered_table_fails(self, n):
        ctx = GraphContext(empty(n))
        assert run_check(ctx, "theorem_2_3") == "pass"
        # d(X) = |X| is modular; lifting one layer breaks supermodularity
        ctx.dtab = [d + (x.bit_count() == n // 2)
                    for x, d in enumerate(ctx.dtab)]
        assert run_check(ctx, "theorem_2_3") == "fail"

    def test_finds_one_bad_entry(self):
        ctx = GraphContext(path(9))
        ctx.dtab = list(ctx.dtab)
        ctx.dtab[0b101000110] += 1
        assert run_check(ctx, "theorem_2_3") == "fail"

    @pytest.mark.parametrize("n, seed, x", [
        (10, 22, 136), (12, 1, 3264), (14, 1, 13053), (16, 0, 50945)])
    def test_one_raised_entry_fails_at_every_size(self, n, seed, x):
        # Few pairs (X, Y) break these tables, so a sample of 10,000
        # random pairs drawn at seed 0 misses each of them.
        ctx = GraphContext(random_gnp(n, 0.3, random.Random(seed)))
        assert run_check(ctx, "theorem_2_3") == "pass"
        raise_entry(ctx, x)
        assert run_check(ctx, "theorem_2_3") == "fail"

    def test_verdicts_do_not_depend_on_the_seed(self):
        g = random_gnp(10, 0.3, random.Random(22))
        verdicts = []
        for seed in (0, 1):
            ctx = GraphContext(g, seed=seed)
            raise_entry(ctx, 136)
            verdicts.append(run_graph_checks(ctx))
        assert verdicts[0]["theorem_2_3"] == "fail"
        assert verdicts[0] == verdicts[1]

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

    @settings(max_examples=100, deadline=None)
    @given(g=graphs(max_n=10), data=st.data())
    def test_agrees_with_the_local_loop(self, g, data):
        d = list(difference_table(g).d)
        for _ in range(data.draw(st.integers(0, 2))):
            x = data.draw(st.integers(0, len(d) - 1))
            d[x] += data.draw(st.integers(-2, 2))
        assert critical.is_supermodular(d) == locally_supermodular(d, g.n)


class TestProfile:
    def test_star_profile(self):
        ctx = GraphContext(star(3))
        assert ctx.dc == 2
        assert ctx.ker == {1, 2, 3}
        assert ctx.diadem == {1, 2, 3}
        assert ctx.critical_sets == [{1, 2, 3}]
        assert len(ctx.minimal_positive_sets) == 3

    def test_large_graph_skips_enumerations(self):
        ctx = GraphContext(empty(18), Limits(enumeration=16))
        assert ctx.dc == 18
        assert ctx.critical_sets is None
        assert ctx.minimal_positive_sets is None


def anypos_minimal_sets(dtab) -> list[frozenset[int]]:
    """The inclusion-minimal positive masks of a table, by the per-mask
    any-positive-subset walk over the subset lattice."""
    anypos = bytearray(len(dtab))
    out = []
    for mask in range(1, len(dtab)):
        below = any(anypos[mask ^ (1 << v)] for v in bits(mask))
        if dtab[mask] > 0:
            anypos[mask] = 1
            if not below:
                out.append(set_of(mask))
        elif below:
            anypos[mask] = 1
    return sorted(out, key=sorted)


class TestSubsetTable:
    @settings(max_examples=150)
    @given(g=graphs(max_n=10))
    def test_agrees_with_per_mask_queries(self, g):
        table = difference_table(g)
        assert len(table.d) == len(table.independent) == 1 << g.n
        for x in range(1 << g.n):
            assert table.d[x] == g.difference_mask(x)
            assert table.independent[x] == (not g.neighborhood_mask(x) & x)

    @settings(max_examples=150)
    @given(g=graphs(max_n=10))
    def test_minimal_positive_sets_match_the_subset_walk(self, g):
        assert enumerate_minimal_positive_sets(g) == anypos_minimal_sets(
            difference_table(g).d)

    @settings(max_examples=100)
    @given(k=st.integers(0, 7), data=st.data())
    def test_closure_on_arbitrary_tables(self, k, data):
        # Any table of small integers with d(empty set) = 0, not only a
        # graph's, so minimality is exercised on arbitrary positive sets.
        dtab = [0] + data.draw(st.lists(st.integers(-2, 2),
                                        min_size=(1 << k) - 1,
                                        max_size=(1 << k) - 1))
        assert enumerate_minimal_positive_sets(
            empty(k), dtab=dtab) == anypos_minimal_sets(dtab)

    def test_limit(self):
        with pytest.raises(critical.LimitExceededError):
            difference_table(empty(5), limit=4)

    def test_checks_peak_memory_at_n_16(self):
        # Lists of Python ints per mask peak at about 4.8 MiB here, and
        # keeping N(X) for every mask as Python ints adds 1.2-1.5 MiB.
        g = random_gnp(16, 0.35, random.Random(0))
        tracemalloc.start()
        try:
            statuses = run_graph_checks(GraphContext(g))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "fail" not in statuses.values()
        assert peak < 1.5 * 2 ** 20


class TestTheorem215:
    @pytest.mark.parametrize("mask, status", [
        (0b1110, "fail"),   # ker = {1, 2, 3} itself: independent, matched
        (0b0011, "pass"),   # {0, 1} is not independent
        (0b0010, "pass"),   # {1} does not contain ker
    ])
    def test_tampered_table(self, mask, status):
        ctx = GraphContext(star(3))
        assert run_check(ctx, "theorem_2_15") == "pass"
        ctx.dtab[mask] = ctx.dc - 1
        assert run_check(ctx, "theorem_2_15") == status
