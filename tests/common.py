"""Shared graph builders for the test suite."""

from __future__ import annotations

import json
import random
from itertools import combinations

from critindep import BuildScript, Graph
from critindep.graphs import bits
from critindep.verification import GraphContext, run_graph_checks


def cycle(n: int) -> Graph:
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph.build(n, [(i, i + 1) for i in range(n - 1)])


def shuffled_path(n: int, seed: int) -> Graph:
    """A path on n vertices, its labels shuffled by random.Random(seed):
    the double cover's late augmenting paths run most of its length."""
    label = list(range(n))
    random.Random(seed).shuffle(label)
    return Graph.build(n, [(label[i], label[i + 1]) for i in range(n - 1)])


def disjoint_triangles(k: int) -> Graph:
    return Graph.build(3 * k, [(3 * t + a, 3 * t + b) for t in range(k)
                               for a, b in ((0, 1), (0, 2), (1, 2))])


def star(leaves: int) -> Graph:
    """K_{1,leaves} with the center at vertex 0."""
    return Graph.build(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete(n: int) -> Graph:
    return Graph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty(n: int) -> Graph:
    return Graph.build(n, [])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.build(10, outer + inner + spokes)


def witness_graph() -> Graph:
    """Vertex 0 isolated; 1 and 2 each adjacent to 3 and 4.

    Its only inclusion-minimal positive set is {0}, while {0,1,2} has
    d = 1 and survives every single-vertex-removal test, so it witnesses
    that single removals do not certify minimality.
    """
    return Graph.build(5, [(1, 3), (1, 4), (2, 3), (2, 4)])


def c3_with_pendant() -> Graph:
    return Graph.build(4, [(0, 1), (1, 2), (0, 2), (0, 3)])


def figure1_graph() -> tuple[Graph, list[int]]:
    """A ten-vertex host with the independent set {0,1,2,3} whose
    neighborhood is {4,5,6}; the remaining vertices 7,8,9 fill out the
    host but stay outside X and N(X)."""
    g = Graph.build(10, [(0, 4), (1, 4), (2, 5), (3, 5), (3, 6), (5, 6),
                         (4, 7), (4, 8), (7, 8), (8, 9), (6, 9)])
    return g, [0, 1, 2, 3]


def figure2_script() -> BuildScript:
    """Cycle of five plus seven path attachments and two leaf
    attachments: 21 vertices, 9 black, 7 red, critical difference 2."""
    return BuildScript(cycle_length=5, steps=(
        ("p2", 2),    # adds 5 (red), 6 (black)
        ("leaf", 5),  # adds 7 (black)
        ("p2", 1),    # adds 8 (red), 9 (black)
        ("leaf", 8),  # adds 10 (black)
        ("p2", 8),    # adds 11 (red), 12 (black)
        ("p2", 9),    # adds 13 (red), 14 (black)
        ("p2", 2),    # adds 15 (red), 16 (black)
        ("p2", 9),    # adds 17 (red), 18 (black)
        ("p2", 3),    # adds 19 (red), 20 (black)
    ))


def coloring_from_json(text: str) -> dict:
    """Parse a coloring as written by ColoredUnicyclic.coloring_json."""
    data = json.loads(text)
    return {key: sorted(data[key]) if key != "cycle" else list(data[key])
            for key in ("blue", "red", "black", "cycle")}


def run_check(ctx: GraphContext, check_id: str) -> str:
    """Status of one registry check: "pass", "fail" or "skipped"."""
    return run_graph_checks(ctx, [check_id])[check_id]


def random_graphs(count: int, seed: int, max_n: int = 24) -> list[Graph]:
    """Seeded random graphs: the first two have n = 0 and n = 1, and each
    draws its edges among a random subset of its vertices, so many have
    isolated vertices."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = i if i < 2 else rng.randint(2, max_n)
        active = [v for v in range(n) if rng.random() < 0.8]
        p = rng.random()
        out.append(Graph.build(n, [e for e in combinations(active, 2)
                                   if rng.random() < p]))
    return out


def induced_by_dict(g: Graph, u) -> tuple[Graph, tuple[int, ...]]:
    """G[u] through a dict from vertex to new label: the route
    `induced_subgraph` took before it read an index array."""
    labels = tuple(sorted(set(u)))
    index = {v: i for i, v in enumerate(labels)}
    edges = [(index[a], index[b]) for a, b in g.edges
             if a in index and b in index]
    return Graph.build(len(labels), edges), labels


def components_by_masks(g: Graph) -> list[frozenset[int]]:
    """Connected components grown one bitmask frontier at a time, ordered
    by smallest member."""
    unseen = g.full_mask
    comps = []
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            nb = 0
            for v in bits(frontier):
                nb |= g.adj[v]
            frontier = nb & unseen & ~comp
            comp |= frontier
        unseen &= ~comp
        comps.append(frozenset(bits(comp)))
    return comps
