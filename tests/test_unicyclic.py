"""Generation, recognition and invariants of the colored unicyclic family."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critindep import (BuildScript, Graph, LimitExceededError,
                       NotUnicyclicError, PreconditionError, ScriptError, alpha,
                       critical_difference, disconnected_invariants, generate,
                       generate_random, is_ke, mu, parse_script, recognize,
                       script_to_text)
from critindep import independence, reports, unicyclic
from critindep.verification import GraphContext, run_graph_checks
from common import (c3_with_pendant, coloring_from_json, cycle,
                    figure2_script, path, run_check)


class TestGenerate:
    def test_bare_odd_cycle(self):
        cu = generate(BuildScript(cycle_length=3, steps=()))
        assert cu.graph == cycle(3)
        assert cu.blue == {0, 1, 2}
        assert cu.red == cu.black == frozenset()
        assert cu.m == 1

    def test_rejects_even_or_short_cycle(self):
        with pytest.raises(ScriptError):
            generate(BuildScript(cycle_length=4, steps=()))
        with pytest.raises(ScriptError):
            generate(BuildScript(cycle_length=1, steps=()))

    def test_single_path_attachment(self):
        cu = generate(BuildScript(cycle_length=5, steps=(("p2", 0),)))
        g = cu.graph
        assert g.n == 7
        assert cu.red == {5} and cu.black == {6}
        assert alpha(g) == 3 and mu(g) == 3
        assert critical_difference(g) == 0
        assert alpha(g) + mu(g) == g.n - 1

    def test_leaf_on_non_red_vertex_names_step(self):
        script = BuildScript(cycle_length=3, steps=(("leaf", 0),))
        with pytest.raises(ScriptError) as err:
            generate(script)
        assert "step 0" in str(err.value)

    def test_target_must_exist(self):
        with pytest.raises(ScriptError):
            generate(BuildScript(cycle_length=3, steps=(("p2", 9),)))

    def test_figure2_counts(self):
        cu = generate(figure2_script())
        assert cu.graph.n == 21
        assert len(cu.black) == 9
        assert len(cu.red) == 7
        assert len(cu.blue) == 5


class TestGenerateRandom:
    def test_sized_example(self):
        script, cu = generate_random(5, 2, 3, seed=1)
        assert cu.graph.n == 12
        assert len(cu.black) == 5 and len(cu.red) == 2
        assert critical_difference(cu.graph) == 3

    def test_deterministic_per_seed(self):
        first, _ = generate_random(5, 2, 3, seed=42)
        second, _ = generate_random(5, 2, 3, seed=42)
        assert first == second

    def test_leaf_requires_a_path_step(self):
        with pytest.raises(PreconditionError):
            generate_random(3, 0, 2, seed=0)

    @pytest.mark.parametrize("cycle_length", [0, 1, 4])
    def test_bad_cycle_length_rejected_before_drawing(self, cycle_length):
        with pytest.raises(ScriptError, match="cycle length"):
            generate_random(cycle_length, 1, 0, seed=0)

    @pytest.mark.parametrize("n_p2, n_leaf", [(-1, 0), (1, -2), (-1, -1)])
    def test_negative_step_counts_rejected(self, n_p2, n_leaf):
        with pytest.raises(PreconditionError):
            generate_random(3, n_p2, n_leaf, seed=0)

    def test_vertex_cap_is_inclusive(self):
        cap = unicyclic.MAX_GENERATED_VERTICES
        _, cu = generate_random(cap - 5, 2, 1, seed=0)
        assert cu.graph.n == cap
        with pytest.raises(PreconditionError, match="above the limit"):
            generate_random(cap - 5, 2, 2, seed=0)
        with pytest.raises(PreconditionError, match="above the limit"):
            generate(BuildScript(cycle_length=cap - 1, steps=(("p2", 0),)))


class TestRecognize:
    def test_bare_c7_all_blue(self):
        cu = recognize(cycle(7))
        assert cu is not None
        assert cu.blue == frozenset(range(7))
        assert cu.m == 3

    def test_leaf_on_cycle_is_ke(self):
        assert recognize(c3_with_pendant()) is None

    def test_even_cycle_is_ke(self):
        assert recognize(cycle(6)) is None

    def test_rejects_tree(self):
        with pytest.raises(NotUnicyclicError):
            recognize(path(4))

    def test_rejects_disconnected(self):
        g = Graph.build(8, [(i, (i + 1) % 5) for i in range(5)] + [(6, 7)])
        with pytest.raises(NotUnicyclicError):
            recognize(g)

    @settings(max_examples=80, deadline=None)
    @given(cyc=st.sampled_from([3, 5, 7]),
           n_p2=st.integers(1, 5), n_leaf=st.integers(0, 5),
           seed=st.integers(0, 10 ** 6))
    def test_roundtrip_and_order_invariance(self, cyc, n_p2, n_leaf, seed):
        _, cu = generate_random(cyc, n_p2, n_leaf, seed=seed)
        got = recognize(cu.graph)
        assert got is not None
        assert (got.blue, got.red, got.black) == (cu.blue, cu.red, cu.black)
        shuffled = recognize(cu.graph, order_seed=seed + 1)
        assert shuffled is not None
        assert (shuffled.red, shuffled.black) == (cu.red, cu.black)

    def test_relabelled_generated_graphs(self):
        rng = random.Random(9005)
        for _ in range(500):
            _, cu = generate_random(rng.choice([3, 5, 7, 9]),
                                    rng.randint(1, 20), rng.randint(0, 20),
                                    seed=rng.randrange(10 ** 6))
            perm = list(range(cu.graph.n))
            rng.shuffle(perm)
            g = Graph.build(cu.graph.n,
                            [(perm[u], perm[v]) for u, v in cu.graph.edges])
            want = tuple(frozenset(perm[v] for v in part)
                         for part in (cu.blue, cu.red, cu.black))
            for order_seed in (None, rng.randrange(10 ** 6)):
                got = recognize(g, order_seed=order_seed)
                assert (got.blue, got.red, got.black) == want
                assert got.parent == {perm[v]: perm[p]
                                      for v, p in cu.parent.items()}

    def test_none_exactly_on_ke_graphs(self):
        # A leaf added anywhere to a generated graph keeps it connected
        # and unicyclic; it is KE, and has no coloring, or it is not.
        rng = random.Random(4)
        outcomes = set()
        for _ in range(300):
            _, cu = generate_random(rng.choice([3, 5]), rng.randint(1, 6),
                                    rng.randint(0, 6),
                                    seed=rng.randrange(10 ** 6))
            h = Graph.build(cu.graph.n + 1, [*cu.graph.edges,
                                             (rng.randrange(cu.graph.n),
                                              cu.graph.n)])
            got = recognize(h)
            assert (got is None) == is_ke(h)
            seeded = recognize(h, order_seed=rng.randrange(10 ** 6))
            assert (seeded is None) == (got is None)
            if got is not None:
                assert (seeded.red, seeded.black) == (got.red, got.black)
            outcomes.add(got is None)
        assert outcomes == {True, False}

    def test_large_generated_graph(self):
        _, cu = generate_random(5, 3000, 3000, seed=1)
        got = recognize(cu.graph)
        assert cu.graph.n == 9005
        assert (got.red, got.black) == (cu.red, cu.black)

    def test_figure2_roundtrip(self):
        cu = generate(figure2_script())
        got = recognize(cu.graph)
        assert got is not None
        assert got.coloring_dict() == cu.coloring_dict()


class TestIsKe:
    def test_bipartite_graph(self):
        assert is_ke(path(5))

    def test_c5(self):
        assert not is_ke(cycle(5))

    def test_c3_with_pendant(self):
        assert is_ke(c3_with_pendant())


class TestDisconnectedInvariants:
    def test_c5_plus_edge(self):
        g = Graph.build(7, [(i, (i + 1) % 5) for i in range(5)] + [(5, 6)])
        stats = disconnected_invariants(g)
        assert stats["whole"]["alpha"] == 3
        assert stats["whole"]["mu"] == 3
        assert stats["whole"]["d_c"] == 0
        assert all(stats["checks"].values())

    def test_generated_plus_isolated_vertex(self):
        _, cu = generate_random(3, 1, 1, seed=5)
        shift = cu.graph.n
        g = Graph.build(shift + 1, list(cu.graph.edges))
        stats = disconnected_invariants(g)
        assert stats["whole"]["d_c"] == stats["cycle_component"]["d_c"] + 1
        assert all(stats["checks"].values())

    def test_rejects_connected_input(self):
        with pytest.raises(PreconditionError):
            disconnected_invariants(cycle(5))

    def test_alpha_runs_once_per_part(self, monkeypatch):
        g = Graph.build(7, [(i, (i + 1) % 5) for i in range(5)] + [(5, 6)])
        sizes = []

        def counted(h, *args):
            sizes.append(h.n)
            return alpha(h, *args)

        monkeypatch.setattr(unicyclic, "alpha", counted)
        disconnected_invariants(g)
        assert sizes == [7, 5, 2]
        # A KE graph is still refused, from the same alpha of the whole.
        sizes.clear()
        with pytest.raises(PreconditionError, match="Koenig-Egervary"):
            disconnected_invariants(Graph.build(
                6, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)]))
        assert sizes == [6, 4, 2]

    def test_alpha_limit_is_honoured(self):
        g = Graph.build(7, [(i, (i + 1) % 5) for i in range(5)] + [(5, 6)])
        with pytest.raises(LimitExceededError):
            disconnected_invariants(g, limit=6)
        assert all(disconnected_invariants(g, limit=7)["checks"].values())


    def test_one_invariants_report_per_analyze(self, monkeypatch):
        # A triangle with the pendant path 2-3-4, plus the edge 5-6: alpha
        # runs once for the whole graph, whose value the context shares
        # with the report, and once per part inside the one report.
        g = Graph.build(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (5, 6)])
        runs = {"invariants": 0, "alpha": 0}
        sizes = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                runs[name] += 1
                if name == "alpha":
                    sizes.append(args[0].n)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(unicyclic, "disconnected_invariants",
                            counted("invariants", disconnected_invariants))
        counted_alpha = counted("alpha", alpha)
        monkeypatch.setattr(unicyclic, "alpha", counted_alpha)
        monkeypatch.setattr(independence, "alpha", counted_alpha)
        report = reports.analyze(g)
        assert runs == {"invariants": 1, "alpha": 3}
        assert sizes == [7, 5, 2]
        assert report["unicyclic"]["invariants"]["whole"]["alpha"] == 3
        assert report["ke_status"] is False
        assert report["unicyclic"]["verdict"] == "non-KE"
        assert all(report["unicyclic"]["invariants"]["checks"].values())
        assert report["checks"]["conjecture_1_3"] == "pass"


def red_holding_a_d_vertex():
    """A triangle 0-1-2 with the path 1-3-4 and the leaf 5 on 3, and its
    coloring with 1 added to red.  The maximum matching {0, 2}, {3, 4}
    misses 1, so 1 lies in the Gallai-Edmonds set D."""
    cu = generate(BuildScript(cycle_length=3,
                              steps=(("p2", 1), ("leaf", 3))))
    return cu, cu._replace(red=cu.red | {1})


class TestRedSaturated:
    def test_generated_coloring_passes(self):
        cu, _ = red_holding_a_d_vertex()
        assert run_check(GraphContext(cu.graph, colored=cu),
                         "theorem_4_4") == "pass"

    def test_red_d_vertex_fails(self):
        # The maximum matching {0, 1}, {3, 4} covers 1, so a check that
        # samples maximum matchings can miss this D vertex.
        cu, bad = red_holding_a_d_vertex()
        assert run_check(GraphContext(cu.graph, colored=bad),
                         "theorem_4_4") == "fail"

    def test_verdicts_do_not_depend_on_the_seed(self):
        cu, bad = red_holding_a_d_vertex()
        verdicts = []
        for seed in (0, 1):
            statuses = run_graph_checks(
                GraphContext(cu.graph, seed=seed, colored=bad))
            del statuses["unicyclic_roundtrip"]
            verdicts.append(statuses)
        assert verdicts[0]["theorem_4_4"] == "fail"
        assert verdicts[0] == verdicts[1]


class TestScriptFormat:
    def test_round_trip(self):
        script = figure2_script()
        assert parse_script(script_to_text(script)) == script

    def test_comments_ignored(self):
        text = "# build\ncycle 3\n# attach\np2 0\n"
        assert parse_script(text) == BuildScript(3, (("p2", 0),))

    def test_missing_header(self):
        with pytest.raises(ScriptError):
            parse_script("p2 0\n")

    def test_bad_step_reports_line(self):
        with pytest.raises(ScriptError) as err:
            parse_script("cycle 3\nattach 0\n")
        assert err.value.line == 2

    def test_even_cycle_rejected(self):
        with pytest.raises(ScriptError):
            parse_script("cycle 4\n")

    def test_coloring_json_round_trip(self):
        cu = generate(figure2_script())
        assert coloring_from_json(cu.coloring_json()) == cu.coloring_dict()
