"""Generation, recognition and invariants of connected unicyclic graphs
whose independence and matching numbers sum to one less than their order.

Such graphs are exactly the ones built from an odd cycle (blue) by
repeatedly attaching a path of length two (red support + black tip) to any
vertex, or a black leaf to an already red vertex.  The coloring is a graph
invariant: recognition recovers it by running the construction backwards,
and the outcome does not depend on reduction order.
"""

from __future__ import annotations

import json
import random
from heapq import heappop, heappush
from typing import NamedTuple

from .errors import (NotUnicyclicError, PreconditionError, ScriptError)
from .graphs import (Graph, VertexSet, connected_components,
                     cycle_space_dimension, delete_vertices,
                     find_unique_cycle, induced_subgraph)
from .independence import ALPHA_LIMIT, alpha
from .matching import mu

Step = tuple[str, int]  # ("p2", target) or ("leaf", target)

# The most vertices a build script may create; graph6 output holds n^2/2
# bits, 50 MB at this size.
MAX_GENERATED_VERTICES = 10_000


class BuildScript(NamedTuple):
    cycle_length: int
    steps: tuple[Step, ...]


class ColoredUnicyclic(NamedTuple):
    graph: Graph
    cycle: tuple[int, ...]
    blue: VertexSet
    red: VertexSet
    black: VertexSet
    parent: dict[int, int]  # rooted-forest parent; cycle vertices absent

    @property
    def m(self) -> int:
        return len(self.cycle) // 2

    def coloring_dict(self) -> dict:
        return {
            "blue": sorted(self.blue),
            "red": sorted(self.red),
            "black": sorted(self.black),
            "cycle": list(self.cycle),
        }

    def coloring_json(self) -> str:
        return json.dumps(self.coloring_dict(), sort_keys=True)


def _check_cycle_length(k: int, line: int | None = None) -> None:
    if k < 3 or k % 2 == 0:
        raise ScriptError(f"cycle length must be odd and >= 3, got {k}", line)


def _check_vertex_count(k: int, n_path2: int, n_leaf: int) -> None:
    n = k + 2 * n_path2 + n_leaf
    if n > MAX_GENERATED_VERTICES:
        raise PreconditionError(
            f"the script builds {n} vertices, above the limit "
            f"{MAX_GENERATED_VERTICES}")


def generate(script: BuildScript) -> ColoredUnicyclic:
    """Execute a build script; vertex ids follow creation order."""
    k = script.cycle_length
    _check_cycle_length(k)
    n_path2 = sum(kind == "p2" for kind, _ in script.steps)
    _check_vertex_count(k, n_path2, len(script.steps) - n_path2)
    edges = [(i, (i + 1) % k) for i in range(k)]
    red: set[int] = set()
    black: set[int] = set()
    parent: dict[int, int] = {}
    n = k
    for index, (kind, target) in enumerate(script.steps):
        if not (0 <= target < n):
            raise ScriptError(
                f"step {index}: target {target} does not exist yet")
        if kind == "p2":
            u1, u2 = n, n + 1
            edges.extend([(target, u1), (u1, u2)])
            red.add(u1)
            black.add(u2)
            parent[u1] = target
            parent[u2] = u1
            n += 2
        elif kind == "leaf":
            if target not in red:
                raise ScriptError(
                    f"step {index}: leaf target {target} is not red")
            u1 = n
            edges.append((target, u1))
            black.add(u1)
            parent[u1] = target
            n += 1
        else:
            raise ScriptError(f"step {index}: unknown step kind {kind!r}")
    return ColoredUnicyclic(
        graph=Graph.build(n, edges),
        cycle=tuple(range(k)),
        blue=frozenset(range(k)),
        red=frozenset(red),
        black=frozenset(black),
        parent=parent,
    )


def generate_random(cycle_length: int, n_path2: int, n_leaf: int,
                    seed: int) -> tuple[BuildScript, ColoredUnicyclic]:
    """Seed-deterministic random interleaving of the two attachment steps."""
    _check_cycle_length(cycle_length)
    if n_path2 < 0 or n_leaf < 0:
        raise PreconditionError(
            f"step counts must be non-negative, got {n_path2} path and "
            f"{n_leaf} leaf steps")
    if n_leaf >= 1 and n_path2 < 1:
        raise PreconditionError(
            "a leaf step needs a red vertex, so at least one path step "
            "is required")
    _check_vertex_count(cycle_length, n_path2, n_leaf)
    rng = random.Random(seed)
    steps: list[Step] = []
    n = cycle_length
    reds: list[int] = []
    p2_left, leaf_left = n_path2, n_leaf
    while p2_left or leaf_left:
        options = []
        if p2_left:
            options.append("p2")
        if leaf_left and reds:
            options.append("leaf")
        kind = rng.choice(options)
        if kind == "p2":
            target = rng.randrange(n)
            reds.append(n)
            n += 2
            p2_left -= 1
        else:
            target = rng.choice(reds)
            n += 1
            leaf_left -= 1
        steps.append((kind, target))
    script = BuildScript(cycle_length=cycle_length, steps=tuple(steps))
    return script, generate(script)


# ---------------------------------------------------------------------------
# Recognition (reverse construction)
# ---------------------------------------------------------------------------

def recognize(g: Graph,
              order_seed: int | None = None) -> ColoredUnicyclic | None:
    """Recover the canonical coloring of a connected unicyclic graph, or
    return None when the graph's independence and matching numbers sum to
    its order (no coloring exists).

    The default reduction picks the lowest-numbered reducible vertex; an
    order_seed randomizes the choices, which must not change the outcome.

    A vertex off the cycle is reducible when it has two leaf children, or
    one leaf child and no other child.  Reducible vertices wait in a heap,
    and each one's leaf children in a heap of their own, both keyed by
    label (by a seeded shuffle of the labels under order_seed).  A step
    changes the degree of one surviving vertex at most, so the whole
    reduction takes O(n log n).
    """
    if len(connected_components(g)) != 1:
        raise NotUnicyclicError("graph is not connected")
    cycle = find_unique_cycle(g)
    if cycle is None:
        raise NotUnicyclicError("graph is a tree, not unicyclic")
    if len(cycle) % 2 == 0:
        return None
    n = g.n
    nbrs = g.nbrs
    key = list(range(n))
    if order_seed is not None:
        random.Random(order_seed).shuffle(key)

    # Rooted forest: breadth first from the cycle, so each vertex off it
    # hangs on its one neighbour closer to the cycle.
    on_cycle = bytearray(n)
    for v in cycle:
        on_cycle[v] = 1
    seen = bytearray(on_cycle)
    parent: dict[int, int] = {}
    order = list(cycle)
    for v in order:
        for w in nbrs[v]:
            if not seen[w]:
                seen[w] = 1
                parent[w] = v
                order.append(w)

    deg = [len(nb) for nb in nbrs]
    leaf_kids: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    ready: list[tuple[int, int]] = []
    red: set[int] = set()
    black: set[int] = set()

    def reducible(x: int) -> bool:
        kids = len(leaf_kids[x])
        return kids >= 2 or kids == 1 and deg[x] == 2

    def settle(v: int) -> bool:
        """Record a change of v's degree; False if v became a leaf that
        hangs directly on the cycle."""
        if deg[v] == 1:
            x = parent[v]
            if on_cycle[x]:
                return False
            heappush(leaf_kids[x], (key[v], v))
            v = x
        if reducible(v):
            heappush(ready, (key[v], v))
        return True

    for v in parent:
        if deg[v] == 1 and not settle(v):
            return None  # a leaf hangs directly on the cycle
    left = len(parent)
    while left:
        # Entries go stale as their vertices lose leaf children or degree;
        # a removed vertex has no leaf children left.
        while ready and not reducible(ready[0][1]):
            heappop(ready)
        if not ready:
            return None  # stuck: no reverse step applies
        x = ready[0][1]
        kids = leaf_kids[x]
        y = heappop(kids)[1]
        black.add(y)
        deg[x] -= 1
        left -= 1
        if not kids:
            # x had y as its only child: remove the pair.
            red.add(x)
            left -= 1
            p = parent[x]
            deg[p] -= 1
            if not on_cycle[p] and not settle(p):
                return None  # a leaf hangs directly on the cycle
    return ColoredUnicyclic(
        graph=g,
        cycle=tuple(cycle),
        blue=frozenset(cycle),
        red=frozenset(red),
        black=frozenset(black),
        parent=parent,
    )


def is_ke(g: Graph, limit: int = ALPHA_LIMIT) -> bool:
    """Oracle: independence number plus matching number equals the order."""
    return alpha(g, limit) + mu(g) == g.n


def disconnected_invariants(g: Graph, limit: int = ALPHA_LIMIT,
                            whole_alpha: int | None = None) -> dict:
    """Split a disconnected unicyclic graph (cycle component + forest) and
    verify that its critical difference, independence and matching numbers
    all add up component-wise, with d_c equal to alpha minus mu.  Raises
    LimitExceededError when g has more than `limit` vertices, the largest
    order whose alpha is computed exactly.  A caller that already holds
    alpha(g) passes it as `whole_alpha`."""
    from .critical import critical_difference

    comps = connected_components(g)
    if len(comps) < 2:
        raise PreconditionError("graph must be disconnected")
    if cycle_space_dimension(g) != 1:
        raise PreconditionError("graph must have exactly one cycle")
    on_cycle = find_unique_cycle(g)[0]
    cycle_comp = next(comp for comp in comps if on_cycle in comp)
    gp, _ = induced_subgraph(g, cycle_comp)
    f, _ = delete_vertices(g, cycle_comp)
    stats = {}
    for name, h in (("whole", g), ("cycle_component", gp), ("forest", f)):
        stats[name] = {
            "n": h.n,
            "d_c": critical_difference(h),
            "alpha": (whole_alpha if h is g and whole_alpha is not None
                      else alpha(h, limit)),
            "mu": mu(h),
        }
    w, c, fo = stats["whole"], stats["cycle_component"], stats["forest"]
    if w["alpha"] + w["mu"] == g.n:
        raise PreconditionError("graph must not be Koenig-Egervary")
    stats["checks"] = {
        "d_c_additive": w["d_c"] == c["d_c"] + fo["d_c"],
        "alpha_additive": w["alpha"] == c["alpha"] + fo["alpha"],
        "mu_additive": w["mu"] == c["mu"] + fo["mu"],
        "d_c_equals_alpha_minus_mu": w["d_c"] == w["alpha"] - w["mu"],
    }
    return stats


# ---------------------------------------------------------------------------
# Script file format
# ---------------------------------------------------------------------------

def parse_script(text: str) -> BuildScript:
    """Text format: 'cycle <odd-k>' then 'p2 <v>' / 'leaf <v>' lines."""
    cycle_length = None
    steps: list[Step] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if cycle_length is None:
            if len(parts) != 2 or parts[0] != "cycle":
                raise ScriptError("expected 'cycle <odd-k>'", lineno)
            try:
                cycle_length = int(parts[1])
            except ValueError:
                raise ScriptError("non-integer cycle length", lineno) from None
            _check_cycle_length(cycle_length, lineno)
            continue
        if len(parts) != 2 or parts[0] not in ("p2", "leaf"):
            raise ScriptError("expected 'p2 <v>' or 'leaf <v>'", lineno)
        try:
            target = int(parts[1])
        except ValueError:
            raise ScriptError("non-integer step target", lineno) from None
        steps.append((parts[0], target))
    if cycle_length is None:
        raise ScriptError("missing 'cycle <odd-k>' header")
    return BuildScript(cycle_length=cycle_length, steps=tuple(steps))


def script_to_text(script: BuildScript) -> str:
    lines = [f"cycle {script.cycle_length}"]
    lines.extend(f"{kind} {target}" for kind, target in script.steps)
    return "\n".join(lines) + "\n"
