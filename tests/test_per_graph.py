"""Per-graph structures are kept on the graph object itself.

The double cover's matching, its slack pass and its alternating
structure, the Edmonds matching and the Gallai-Edmonds partition are each
built once per Graph object by a `_per_graph` builder and stored in the
graph's `__dict__`, beside the `cached_property` adjacencies.  No module
keeps a cache keyed by a graph, so a graph is freed with its structures,
equal graphs built separately do not share them, and the benchmark
tracer's call counts do not depend on what ran before.
"""

from __future__ import annotations

import ast
import gc
import sys
import weakref
from pathlib import Path

import pytest

import critindep
from critindep import Graph, reports
from critindep import critical, gallai_edmonds as ge, matching as mt

from common import random_graphs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

BUILDERS = (critical._double_cover, critical._slack_pass,
            critical._structure, mt._base_matching, ge.gallai_edmonds)

CACHE_DECORATORS = {"lru_cache", "cache"}


def _decorator_name(node: ast.expr) -> str | None:
    """`lru_cache`, `functools.cache`, `lru_cache(maxsize=4)`, ... -> the
    bare decorator name."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_graph(annotation: ast.expr | None) -> bool:
    if isinstance(annotation, ast.Constant):
        return annotation.value == "Graph"
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "Graph"
    return isinstance(annotation, ast.Name) and annotation.id == "Graph"


def _graph_caches(source: str) -> list[str]:
    """The module-level functions of `source` that a functools cache
    decorates and whose first parameter is annotated Graph."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = node.args.posonlyargs + node.args.args
        if (params and _is_graph(params[0].annotation)
                and any(_decorator_name(d) in CACHE_DECORATORS
                        for d in node.decorator_list)):
            found.append(node.name)
    return found


def test_no_module_caches_a_structure_keyed_by_a_graph():
    found = {path.name: names
             for path in sorted(Path(critindep.__file__).parent.glob("*.py"))
             if (names := _graph_caches(path.read_text()))}
    assert found == {}


@pytest.mark.parametrize("source", [
    "@lru_cache(maxsize=4)\ndef f(g: Graph) -> int: ...",
    "@functools.lru_cache\ndef f(g: 'Graph', k: int): ...",
    "@functools.cache\ndef f(g: graphs.Graph): ...",
    "@cache\ndef f(g: Graph, /): ...",
])
def test_the_cache_finder_sees_each_spelling(source):
    assert _graph_caches(source) == ["f"]


@pytest.mark.parametrize("source", [
    "@lru_cache(maxsize=256)\ndef f(c: int) -> bytes: ...",
    "@_per_graph\ndef f(g: Graph): ...",
    "def outer(g: Graph):\n    @lru_cache\n    def best(mask: int): ...",
])
def test_the_cache_finder_passes_other_caches(source):
    assert _graph_caches(source) == []


def test_each_structure_is_built_once_and_kept_on_its_graph():
    for g in random_graphs(40, seed=22, max_n=12):
        twin = Graph.build(g.n, reversed(g.edges))
        for build in BUILDERS:
            first = build(g)
            assert build(g) is first
            assert build(twin) == first and build(twin) is not first
            assert any(kept is first for kept in g.__dict__.values())


def test_a_graph_is_freed_with_its_structures():
    g = Graph.build(12, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6),
                         (4, 6), (6, 7), (7, 8), (8, 9), (9, 10), (9, 11)])
    reports.analyze(g)
    assert all(build(g) is not None for build in BUILDERS)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_the_benchmark_self_test_passes_twice_in_one_process():
    # The counts self_test pins must not depend on an earlier run: each
    # call builds its own graphs, whose structures start empty.  A missed
    # binding must still fail it after two passing runs.
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracing.self_test(tracer)
        tracing.self_test(tracer)
        ge.mu = ge.mu.__wrapped__
        with pytest.raises(tracing.SelfTestError, match="mu calls"):
            tracing.self_test(tracer)
    finally:
        tracer.uninstall()
