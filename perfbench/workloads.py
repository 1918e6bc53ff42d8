"""Seeded inputs for the three benchmark workloads.

Everything here is pure Python and imports nothing from critindep: the
program under test receives only CLI arguments and graph files.  The same
(workload, seed) pair always yields the same commands and the same files.

Why each workload exists (see BENCHMARK.json for the one-line version):

* verify-oracle -- the random-gnp family with n from 10 to 14, where the
  2^n oracle layer (difference tables, minimal positive sets, the
  theorem_2_15 subset loop) dominates.  A change to the per-vertex-
  deletion ker should barely move it.
* analyze-sparse -- `analyze FILE --json --no-timestamp` on G(n, 3/n)
  with n = 50, 70, 90 and 110, alternating edge-list and graph6 files.
  Above n = 40 every enumeration- and alpha-limited field is skipped, so
  this is the polynomial per-vertex-deletion path (ker, diadem,
  Gallai-Edmonds, theorem_2_5ii) at sizes users analyze, and the only
  workload that parses files and builds reports.
* verify-unicyclic -- the generated colored unicyclic family: unicyclic
  recognition and generation, the colored checks and branch-and-bound
  alpha, plus many small ker calls (ker holds about half the vertices).

These three cover every layer the per-module metrics name.  A fourth,
the exhaustive family on n <= 5, is left out: on a 2-vCPU shared host
the speed drifts by a third over minutes, longer runs read steadier,
and runs of 40 seconds leave time for three workloads only.

Per-graph cost depends strongly on what the family draws per graph (n
and p for random-gnp; the cycle length and number of added vertices for
unicyclic-generated), so plain draws made the per-run figures swing from
seed to seed.  The two random sweep workloads are therefore stratified:
each repetition runs one-graph sweeps (`--samples 1`) whose --seed values
are picked so that every chosen cell of the family's own distribution is
covered once.  Picking a seed's cell repeats the first draws the family
makes from `random.Random(sweep_seed)` in `verification._iter_contexts`.
The cost of graphs in one cell still varies several-fold: between run
seeds, 50 freshly picked random-gnp graphs differed by a quarter in
total time, and unicyclic graphs of equal size differed up to fivefold;
between independent G(n, 3/n) draws, |ker| ranges from 2 to 54.  So the
graphs of every workload are fixed: the sweep seeds and the analyze-sparse
structures come from the STRUCTURE_SEED stream.  The run seed relabels
the analyze-sparse vertices and shuffles their edge order, so every seed
gets new files for the same structures.  It also shuffles the order of
each workload's commands, so a slow phase of the machine does not fall
on one stratum.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

WORKLOAD_NAMES = ("verify-oracle", "analyze-sparse", "verify-unicyclic")

# random-gnp: n, then p = uniform(0.05, 0.6) in ORACLE_P_BINS equal bins.
ORACLE_SIZES = range(10, 15)
ORACLE_P_RANGE = (0.05, 0.6)
ORACLE_P_BINS = 10
# unicyclic-generated with its default bounds: odd cycle length 3-9, then
# 0-30 added vertices.  The workload takes every cycle length and every
# UNICYCLIC_ADDED_STEP-th number of added vertices.
UNICYCLIC_CYCLES = range(3, 10, 2)
UNICYCLIC_ADDED = range(0, 31)
UNICYCLIC_ADDED_STEP = 3
ANALYZE_SIZES = range(50, 111, 20)
ANALYZE_AVG_DEGREE = 3.0
# The stream that fixes the analyze-sparse structures and the sweep seeds
# of the random families for every run seed.
STRUCTURE_SEED = 0


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  `graph` holds (n, edges) for analyze commands
    so the matching witness in the report can be validated."""

    argv: tuple[str, ...]
    graph: tuple[int, tuple[tuple[int, int], ...]] | None = None


def is_sweep(workload: str) -> bool:
    return workload.startswith("verify-")


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds are hashed with SHA-512 by `random`, so this is stable
    # across processes and Python versions.
    return random.Random(f"perfbench:{workload}:{seed}")


def _verify(family: str, seed: int, *extra: str) -> Command:
    return Command(("verify", "--family", family, *extra, "--seed", str(seed),
                    "--json", "--no-timestamp"))


def _pick_seeds(rng: random.Random, cells: list, cell_of) -> list[int]:
    """Sweep seeds from rng's stream whose first graph falls in each cell
    (once per occurrence of the cell in `cells`), in the order found."""
    want = Counter(cells)
    picked = []
    while want:
        candidate = rng.randrange(2 ** 31)
        cell = cell_of(candidate)
        if want[cell]:
            want[cell] -= 1
            if not want[cell]:
                del want[cell]
            picked.append(candidate)
    return picked


def _oracle_p_bin(sweep_seed: int) -> int:
    probe = random.Random(sweep_seed)
    probe.randint(ORACLE_SIZES.start, ORACLE_SIZES.start)  # the n draw
    low, high = ORACLE_P_RANGE
    return int((probe.uniform(low, high) - low) / (high - low) * ORACLE_P_BINS)


def _unicyclic_cell(sweep_seed: int) -> tuple[int, int]:
    probe = random.Random(sweep_seed)
    cycle = probe.randrange(UNICYCLIC_CYCLES.start, UNICYCLIC_CYCLES.stop,
                            UNICYCLIC_CYCLES.step)
    return cycle, probe.randint(UNICYCLIC_ADDED.start, UNICYCLIC_ADDED[-1])


def gnp_edges(n: int, p: float, rng: random.Random
              ) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p)


def to_edge_list_text(n: int, edges) -> str:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def to_graph6_text(n: int, edges) -> str:
    """The standard graph6 encoding (upper triangle, column by column)."""
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> k) & 63) + 63) for k in (12, 6, 0))
    present = set(edges)
    bitstream = [1 if (u, v) in present else 0
                 for v in range(1, n) for u in range(v)]
    bitstream += [0] * (-len(bitstream) % 6)
    body = "".join(
        chr(int("".join(map(str, bitstream[i:i + 6])), 2) + 63)
        for i in range(0, len(bitstream), 6))
    return head + body + "\n"


def analyze_corpus(seed: int) -> list[tuple[str, int, tuple]]:
    """(file name, n, edges) for each analyze-sparse graph of this seed:
    fixed G(n, 3/n) structures, relabeled and reordered by the seed."""
    structure = _rng("analyze-sparse", STRUCTURE_SEED)
    rng = _rng("analyze-sparse-labels", seed)
    corpus = []
    for i, n in enumerate(ANALYZE_SIZES):
        base = gnp_edges(n, ANALYZE_AVG_DEGREE / n, structure)
        label = list(range(n))
        rng.shuffle(label)
        edges = [tuple(sorted((label[u], label[v]))) for u, v in base]
        rng.shuffle(edges)
        name = f"g{i:02d}-n{n}." + ("txt" if i % 2 == 0 else "g6")
        corpus.append((name, n, tuple(edges)))
    return corpus


def write_corpus(seed: int, directory: Path) -> None:
    """Write the analyze-sparse files; done once per run, before timing."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, n, edges in analyze_corpus(seed):
        text = (to_edge_list_text(n, edges) if name.endswith(".txt")
                else to_graph6_text(n, edges))
        path = directory / name
        if not path.exists() or path.read_text() != text:
            path.write_text(text)


def commands(workload: str, seed: int, corpus_dir: Path | None = None
             ) -> list[Command]:
    """The closed-loop command list of one repetition of a workload."""
    rng = _rng(workload, seed)
    if workload == "verify-oracle":
        fixed = _rng(workload, STRUCTURE_SEED)
        out = [_verify("random-gnp", sweep_seed, "--min-n", str(n),
                       "--max-n", str(n), "--samples", "1")
               for n in ORACLE_SIZES
               for sweep_seed in _pick_seeds(
                   fixed, list(range(ORACLE_P_BINS)), _oracle_p_bin)]
    elif workload == "verify-unicyclic":
        cells = [(c, a) for c in UNICYCLIC_CYCLES
                 for a in UNICYCLIC_ADDED[::UNICYCLIC_ADDED_STEP]]
        out = [_verify("unicyclic-generated", sweep_seed, "--samples", "1")
               for sweep_seed in _pick_seeds(
                   _rng(workload, STRUCTURE_SEED), cells, _unicyclic_cell)]
    elif workload == "analyze-sparse":
        if corpus_dir is None:
            raise ValueError("analyze-sparse needs the corpus directory")
        out = [Command(("analyze", str(corpus_dir / name), "--json",
                        "--no-timestamp"), graph=(n, edges))
               for name, n, edges in analyze_corpus(seed)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out
