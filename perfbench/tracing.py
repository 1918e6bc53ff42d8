"""Per-module spans recorded from outside the program.

`Tracer.install` wraps the public functions of the critindep modules and
rebinds each wrapper in every namespace that holds the original: modules
import names such as `ker`, `mu` and `delete_vertices` directly, the
check registry dispatches through the `CHECKS` dict, and `Graph.build` is
a staticmethod.  Spans are aggregated in memory per (function, parent
function) and exported once at the end of a run.

A layer's self time is its span duration minus the time covered by its
child spans.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns
from types import FunctionType

MODULES = ("graphs", "matching", "independence", "critical",
           "gallai_edmonds", "unicyclic", "verification", "reports", "cli")

# Leaf helpers called once per set bit or per vertex set; a span around
# each call would cost more than the work it measures.
UNWRAPPED = {"graphs.bits", "graphs.set_of"}


class SelfTestError(RuntimeError):
    """A wrapper count differs from the count the program's code implies."""


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[tuple[str, str | None], list[int]] = {}
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()

    def wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0, 0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[1]

        return traced

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("critindep")
        modules = {name: importlib.import_module(f"critindep.{name}")
                   for name in MODULES}
        verification = modules["verification"]
        registry = verification.CHECKS
        check_functions = set(registry.values())

        wrappers = {}
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                if (not isinstance(value, FunctionType)
                        or value.__module__ != mod.__name__
                        or attr.startswith("_")
                        or value in check_functions
                        or f"{short}.{attr}" in UNWRAPPED
                        or (short == "cli" and attr != "main")):
                    continue
                wrappers[value] = self.wrap(f"{short}.{attr}", value)

        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    self._set(mod, attr, wrappers[value])

        graph_cls = modules["graphs"].Graph
        build = graph_cls.__dict__["build"].__func__
        self._set(graph_cls, "build",
                  staticmethod(self.wrap("graphs.build", build)))

        for cid, fn in list(registry.items()):
            self._set(registry, cid, self.wrap(f"verification.check.{cid}", fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def export(self) -> list[dict]:
        return [{"name": name, "parent": parent, "calls": calls,
                 "total_ns": total, "self_ns": own}
                for (name, parent), (calls, total, own)
                in sorted(self.spans.items(), key=lambda kv: (kv[0][0],
                                                             kv[0][1] or ""))]


def totals(spans: list[dict]) -> dict[str, list[int]]:
    """name -> [calls, total ns, self ns] over exported spans, summed over
    parents (and over repetitions, when spans of several are passed)."""
    out: dict[str, list[int]] = {}
    for span in spans:
        acc = out.setdefault(span["name"], [0, 0, 0])
        acc[0] += span["calls"]
        acc[1] += span["total_ns"]
        acc[2] += span["self_ns"]
    return out


def _calls(tracer: Tracer, name: str) -> int:
    return totals(tracer.export()).get(name, [0])[0]


def _calls_from(tracer: Tracer, name: str, parent: str) -> int:
    return tracer.spans.get((name, parent), [0])[0]


def self_test(tracer: Tracer) -> None:
    """Assert the call counts the program's code implies on fixed graphs.

    Must run after `install`; it goes through the module attributes, so a
    binding the tracer missed shows up as a count of zero.  Leaves the
    tracer's spans empty.
    """
    from critindep import critical, gallai_edmonds, verification
    from critindep.graphs import Graph

    def expect(what: str, got: int, want: int) -> None:
        if got != want:
            raise SelfTestError(f"{what}: counted {got}, code implies {want}")

    # A star, a triangle and a path: ker is non-empty and n = 7 stays above
    # the n <= 6 supermodularity table cache.
    small = Graph.build(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6),
                            (4, 6)])
    large = Graph.build(11, [*small.edges, (6, 7), (7, 8), (8, 9), (9, 10)])

    tracer.reset()
    kernel = critical.ker(small)
    expect("critical_difference calls made by ker",
           _calls_from(tracer, "critical.critical_difference", "critical.ker"),
           small.n + 1)

    tracer.reset()
    gallai_edmonds.gallai_edmonds(small)
    expect("mu calls made directly by gallai_edmonds",
           _calls_from(tracer, "matching.mu", "gallai_edmonds.gallai_edmonds"),
           small.n + 1)

    for g, want in ((small, 4), (large, 3)):
        tracer.reset()
        verification.run_graph_checks(verification.GraphContext(g))
        expect(f"gallai_edmonds calls per sweep graph with n = {g.n}",
               _calls(tracer, "gallai_edmonds.gallai_edmonds"), want)
        expect(f"registry dispatches per graph with n = {g.n}",
               sum(_calls(tracer, f"verification.check.{cid}")
                   for cid in verification.CHECKS),
               len(verification.CHECKS))

    tracer.reset()
    verification.run_graph_checks(verification.GraphContext(small),
                                  ["theorem_2_5ii"])
    expect("delete_vertices calls made by the theorem_2_5ii check",
           _calls_from(tracer, "graphs.delete_vertices",
                       "verification.check.theorem_2_5ii"),
           len(kernel))
    tracer.reset()
