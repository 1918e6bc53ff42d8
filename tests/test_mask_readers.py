"""The n-bit adjacency masks are read only by the exhaustive 2^n oracles.

Every polynomial route reads `Graph.nbrs`, so a large sparse graph never
builds n^2 bits of masks.  This test parses the package and fails when
`.adj`, `.neighborhood_mask` or `.difference_mask` is read by any
function outside the allowlist below.
"""

import ast
from pathlib import Path

import critindep

MASK_ATTRIBUTES = {"adj", "neighborhood_mask", "difference_mask"}

# module.function (or module.Class.method) -> why it may read the masks.
ORACLES = {
    "graphs.Graph.neighborhood_mask": "the mask helper the oracles share",
    "graphs.Graph.difference_mask": "d(X) of a mask, for subset walks",
    "critical._subset_table": "d(X) over all 2^n masks",
    "verification.check_theorem_2_15": "walks all 2^n masks",
    "independence._alpha_mask": "branch-and-bound over vertex masks",
    "independence._iter_maximum_independent_masks":
        "enumerates maximum independent sets as masks",
    "matching.max_matching_bruteforce": "memoised over 2^n masks",
    "gallai_edmonds.missed_vertices_oracle":
        "enumerates every maximum matching",
}


def _mask_readers() -> dict[str, set[str]]:
    """Top-level function or method name -> the mask attributes it reads,
    over every module of the package; nested functions count toward the
    function that holds them."""
    readers: dict[str, set[str]] = {}
    for path in sorted(Path(critindep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node: ast.AST, owner: str | None, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                name = owner
                if owner is None and isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}{child.name}"
                if isinstance(child, ast.ClassDef) and owner is None:
                    visit(child, None, f"{prefix}{child.name}.")
                    continue
                if (isinstance(child, ast.Attribute)
                        and isinstance(child.ctx, ast.Load)
                        and child.attr in MASK_ATTRIBUTES):
                    readers.setdefault(name or f"{prefix}<module>",
                                       set()).add(child.attr)
                visit(child, name, prefix)

        visit(tree, None, f"{path.stem}.")
    return readers


def test_only_the_oracles_read_the_masks():
    outside = {name: sorted(attrs) for name, attrs in _mask_readers().items()
               if name not in ORACLES}
    assert outside == {}


def test_every_allowlisted_oracle_reads_the_masks():
    # An entry whose function no longer reads a mask, or no longer
    # exists, is dropped from the allowlist rather than left to widen it.
    assert set(ORACLES) <= set(_mask_readers())
