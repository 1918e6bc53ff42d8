"""The value types: a frozen hand-written `Graph` and NamedTuple records.

`Graph` must keep what a frozen dataclass gave it.  The records are
tuples, so `len`, iteration and `==` follow tuple rules; none of them
may reach a report, where the JSON writer would print it as a list.
"""

from __future__ import annotations

import pytest

from critindep import BuildScript, Graph, Matching, generate, reports
from critindep.verification import DEFAULT_LIMITS, Limits, SweepConfig

from common import c3_with_pendant, cycle, figure2_script, petersen, star


class TestGraph:
    def test_assigning_an_attribute_raises(self):
        g = Graph.build(3, [(0, 1)])
        for name, value in (("n", 4), ("edges", ()), ("nbrs", ()),
                            ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(g, name, value)
        assert (g.n, g.edges) == (3, ((0, 1),))

    def test_deleting_an_attribute_raises(self):
        g = Graph.build(3, [(0, 1)])
        g.nbrs  # built on first read, into g.__dict__
        for name in ("n", "edges", "nbrs", "absent"):
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert (g.n, g.edges, g.nbrs) == (3, ((0, 1),), ((1,), (0,), ()))

    def test_equal_graphs_built_separately_compare_and_hash_equal(self):
        a = Graph.build(4, [(2, 3), (0, 1)])
        b = Graph.build(4, [(1, 0), (3, 2)])
        a.nbrs  # a cached structure is not compared
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Graph.build(5, [(0, 1), (2, 3)])
        assert a != Graph.build(4, [(0, 1)])
        assert a != (4, ((0, 1), (2, 3)))

    def test_repr_names_both_fields(self):
        assert repr(Graph.build(2, [(0, 1)])) == "Graph(n=2, edges=((0, 1),))"
        assert repr(Graph.build(0, [])) == "Graph(n=0, edges=())"


class TestRecords:
    def test_limits_build_by_keyword(self):
        limits = Limits(enumeration=5)
        assert limits.enumeration == 5
        assert limits.omega == DEFAULT_LIMITS.omega
        assert limits.alpha_exact == DEFAULT_LIMITS.alpha_exact
        assert limits == DEFAULT_LIMITS._replace(enumeration=5)

    def test_build_script_builds_by_keyword(self):
        steps = (("p2", 0), ("leaf", 5))
        script = BuildScript(cycle_length=5, steps=steps)
        assert (script.cycle_length, script.steps) == (5, steps)
        assert script == BuildScript(5, steps)
        assert generate(script).graph.n == 8

    def test_records_follow_tuple_rules_as_the_readme_says(self):
        matching = Matching(((0, 1), (2, 3)))
        assert (len(matching), matching.size) == (1, 2)
        (edges,) = matching
        assert edges == ((0, 1), (2, 3))
        assert matching == (((0, 1), (2, 3)),)
        assert BuildScript(3, ()) == (3, ())

    def test_sweep_config_defaults_are_the_default_limits(self):
        config = SweepConfig(family="random-gnp")
        assert config.limits == DEFAULT_LIMITS
        assert (config.min_n, config.max_n, config.samples, config.seed,
                config.checks, config.inject_failure) == (
                    1, 6, 100, 0, None, False)


def _records_in(value, path="report") -> list[str]:
    """Paths of the NamedTuple records held anywhere in a report."""
    if hasattr(value, "_fields"):
        return [path]
    if isinstance(value, dict):
        return [p for k, v in value.items()
                for p in _records_in(v, f"{path}.{k}")]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value)
                for p in _records_in(v, f"{path}[{i}]")]
    return []


def test_no_record_reaches_a_report():
    colored = generate(figure2_script()).graph
    forest_and_cycle = Graph.build(7, [(0, 1), (1, 2), (0, 2), (3, 4),
                                       (5, 6)])
    for g in (cycle(5), star(3), petersen(), c3_with_pendant(), colored,
              forest_and_cycle, Graph.build(0, [])):
        assert _records_in(reports.analyze(g)) == []
