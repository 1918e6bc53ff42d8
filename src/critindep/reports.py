"""Analysis-report assembly shared by the library API and the CLI.

JSON is the machine format; the text rendering is derived from the same
dictionary so the two can never disagree.
"""

from __future__ import annotations

import hashlib

from . import matching as mt
from . import unicyclic as uc
from .errors import GraphError
from .graphs import Graph, connected_components, cycle_space_dimension
from .verification import GraphContext, Limits, run_graph_checks


def _sorted_sets(sets) -> list[list[int]]:
    return sorted(sorted(s) for s in sets)


def analyze(g: Graph, limits: Limits = Limits(), source: bytes = b"",
            fmt: str = "unknown") -> dict:
    """Full analysis report for one graph.  Fields whose exact computation
    exceeds a size limit are skipped with a reason."""
    ctx = GraphContext(g, limits)
    skipped: dict[str, str] = {}

    report: dict = {
        "input": {
            "n": g.n,
            "m": g.edge_count,
            "format": fmt,
            "sha256": hashlib.sha256(source).hexdigest(),
        },
    }

    matching = mt.max_matching_general(g)
    report["matching"] = {
        "mu": matching.size,
        "maximum_matching": [list(e) for e in sorted(matching.edges)],
    }

    independence: dict = {}
    if ctx.alpha is not None:
        independence["alpha"] = ctx.alpha
    else:
        skipped["independence.alpha"] = (
            f"n={g.n} exceeds exact limit {limits.alpha_exact}")
    if ctx.core is not None:
        independence["core"] = sorted(ctx.core)
    else:
        skipped["independence.core"] = (
            f"n={g.n} exceeds enumeration limit {limits.omega}")
    report["independence"] = independence

    critical: dict = {
        "d_c": ctx.dc,
        "ker": sorted(ctx.ker),
        "diadem": sorted(ctx.diadem),
    }
    if ctx.minimal_positive_sets is not None:
        critical["minimal_positive_count"] = len(ctx.minimal_positive_sets)
        critical["minimal_positive_sets"] = _sorted_sets(
            ctx.minimal_positive_sets)
    else:
        critical["minimal_positive_count"] = None
        skipped["critical.minimal_positive_sets"] = (
            f"n={g.n} exceeds enumeration limit {limits.enumeration}")
    checks = run_graph_checks(ctx)
    critical["checks"] = {
        cid: checks[cid] for cid in ("theorem_2_6", "corollary_2_11",
                                     "conjecture_1_1",
                                     "ker_diadem_inequality")
    }
    report["critical"] = critical

    if ctx.ke is not None:
        report["ke_status"] = ctx.ke
    else:
        report["ke_status"] = "unknown (limit)"
        skipped["ke_status"] = (
            f"n={g.n} exceeds exact limit {limits.alpha_exact}")

    p, clauses = ctx.theorem_53
    report["gallai_edmonds"] = {
        "D": sorted(p.d_set),
        "A": sorted(p.a_set),
        "C": sorted(p.c_set),
        "components": [
            {"vertices": sorted(comp), "factor_critical": flag}
            for comp, flag in p.d_components
        ],
        "checks": {k: (v if v is not None else "skipped")
                   for k, v in clauses.items()},
    }

    unicyclic_block = _unicyclic_block(ctx, skipped)
    if unicyclic_block is not None:
        report["unicyclic"] = unicyclic_block

    report["checks"] = checks
    if skipped:
        report["skipped"] = skipped
    return report


def _unicyclic_block(ctx: GraphContext,
                     skipped: dict[str, str]) -> dict | None:
    g = ctx.g
    if cycle_space_dimension(g) != 1:
        return None
    if len(connected_components(g)) == 1:
        try:
            cu = uc.recognize(g)
        except GraphError:
            return None
        if cu is None:
            return {"connected": True, "verdict": "KE"}
        return {"connected": True, "verdict": "non-KE",
                "coloring": cu.coloring_dict()}
    if ctx.ke is None:
        skipped["unicyclic.verdict"] = (
            f"n={g.n} exceeds exact limit {ctx.limits.alpha_exact}")
        return {"connected": False, "verdict": "unknown (limit)"}
    if ctx.ke:
        return {"connected": False, "verdict": "KE"}
    return {"connected": False, "verdict": "non-KE",
            "invariants": ctx.disconnected_unicyclic}


def render_text(report: dict) -> str:
    """Human-readable summary derived from the JSON report."""
    lines = []
    inp = report["input"]
    lines.append(f"graph: n={inp['n']} m={inp['m']} ({inp['format']})")
    lines.append(f"mu = {report['matching']['mu']}")
    indb = report["independence"]
    if "alpha" in indb:
        lines.append(f"alpha = {indb['alpha']}")
    if "core" in indb:
        lines.append(f"core = {indb['core']}")
    crit = report["critical"]
    lines.append(f"d_c = {crit['d_c']}")
    lines.append(f"ker = {crit['ker']}")
    lines.append(f"diadem = {crit['diadem']}")
    if crit.get("minimal_positive_count") is not None:
        lines.append(
            f"minimal positive sets = {crit['minimal_positive_count']}")
    lines.append(f"KE = {report['ke_status']}")
    gep = report["gallai_edmonds"]
    lines.append(f"D = {gep['D']}  A = {gep['A']}  C = {gep['C']}")
    if "unicyclic" in report:
        ub = report["unicyclic"]
        lines.append(f"unicyclic verdict: {ub['verdict']}")
        if "coloring" in ub:
            col = ub["coloring"]
            lines.append(f"  blue  = {col['blue']}")
            lines.append(f"  red   = {col['red']}")
            lines.append(f"  black = {col['black']}")
    for cid, status in sorted(report["checks"].items()):
        lines.append(f"check {cid}: {status}")
    if "skipped" in report:
        for field, reason in sorted(report["skipped"].items()):
            lines.append(f"skipped {field}: {reason}")
    return "\n".join(lines) + "\n"
