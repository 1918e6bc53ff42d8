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
from dataclasses import dataclass

from .errors import (NotUnicyclicError, PreconditionError, ScriptError)
from .graphs import (Graph, VertexSet, connected_components,
                     cycle_space_dimension, find_unique_cycle,
                     induced_subgraph)
from .independence import ALPHA_LIMIT, alpha
from .matching import mu

Step = tuple[str, int]  # ("p2", target) or ("leaf", target)


@dataclass(frozen=True)
class BuildScript:
    cycle_length: int
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class ColoredUnicyclic:
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


def generate(script: BuildScript) -> ColoredUnicyclic:
    """Execute a build script; vertex ids follow creation order."""
    k = script.cycle_length
    _check_cycle_length(k)
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
    """
    if len(connected_components(g)) != 1:
        raise NotUnicyclicError("graph is not connected")
    cycle = find_unique_cycle(g)
    if cycle is None:
        raise NotUnicyclicError("graph is a tree, not unicyclic")
    if len(cycle) % 2 == 0:
        return None
    rng = random.Random(order_seed) if order_seed is not None else None
    cycset = set(cycle)

    # Rooted forest: BFS from the cycle along non-cycle edges.
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {v: [] for v in range(g.n)}
    cyc_edges = {tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)])))
                 for i in range(len(cycle))}
    frontier = list(cycle)
    seen = set(cycle)
    while frontier:
        nxt = []
        for v in frontier:
            for w in sorted(g.neighbors(v)):
                if w in seen or tuple(sorted((v, w))) in cyc_edges:
                    continue
                parent[w] = v
                children[v].append(w)
                seen.add(w)
                nxt.append(w)
        frontier = nxt

    alive = set(range(g.n))
    deg = {v: g.degree(v) for v in range(g.n)}
    red: set[int] = set()
    black: set[int] = set()

    def remove(v: int) -> None:
        alive.discard(v)
        for w in g.neighbors(v):
            if w in alive:
                deg[w] -= 1

    while len(alive) > len(cycset):
        leaves = {v for v in alive if v not in cycset and deg[v] == 1}
        if any(parent[v] in cycset for v in leaves):
            return None  # a leaf hangs directly on the cycle
        candidates = []
        for x in alive - cycset:
            leaf_children = [c for c in children[x]
                             if c in alive and c in leaves]
            if len(leaf_children) >= 2:
                candidates.append((x, "multi", leaf_children))
            elif len(leaf_children) == 1 and deg[x] == 2:
                candidates.append((x, "pair", leaf_children))
        if not candidates:
            return None  # stuck: no reverse step applies
        if rng is None:
            x, kind, leaf_children = min(candidates)
        else:
            x, kind, leaf_children = rng.choice(sorted(candidates))
        if kind == "multi":
            y = min(leaf_children) if rng is None else rng.choice(
                sorted(leaf_children))
            black.add(y)
            remove(y)
        else:
            y = leaf_children[0]
            red.add(x)
            black.add(y)
            remove(y)
            remove(x)
    return ColoredUnicyclic(
        graph=g,
        cycle=tuple(cycle),
        blue=frozenset(cycset),
        red=frozenset(red),
        black=frozenset(black),
        parent=parent,
    )


def is_ke(g: Graph, limit: int = ALPHA_LIMIT) -> bool:
    """Oracle: independence number plus matching number equals the order."""
    return alpha(g, limit) + mu(g) == g.n


def disconnected_invariants(g: Graph, limit: int = ALPHA_LIMIT) -> dict:
    """Split a disconnected unicyclic graph (cycle component + forest) and
    verify that its critical difference, independence and matching numbers
    all add up component-wise, with d_c equal to alpha minus mu.  Raises
    LimitExceededError when g has more than `limit` vertices, the largest
    order whose alpha is computed exactly."""
    from .critical import critical_difference

    comps = connected_components(g)
    if len(comps) < 2:
        raise PreconditionError("graph must be disconnected")
    if cycle_space_dimension(g) != 1:
        raise PreconditionError("graph must have exactly one cycle")
    cyc_comps = []
    forest_vertices: set[int] = set()
    for comp in comps:
        sub, _ = induced_subgraph(g, comp)
        if cycle_space_dimension(sub) == 1:
            cyc_comps.append(comp)
        else:
            forest_vertices |= comp
    assert len(cyc_comps) == 1
    gp, _ = induced_subgraph(g, cyc_comps[0])
    f, _ = induced_subgraph(g, forest_vertices)
    if is_ke(g, limit):
        raise PreconditionError("graph must not be Koenig-Egervary")
    stats = {}
    for name, h in (("whole", g), ("cycle_component", gp), ("forest", f)):
        stats[name] = {
            "n": h.n,
            "d_c": critical_difference(h),
            "alpha": alpha(h, limit),
            "mu": mu(h),
        }
    w, c, fo = stats["whole"], stats["cycle_component"], stats["forest"]
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
