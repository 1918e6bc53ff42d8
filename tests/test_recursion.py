"""No routine of the package recurses unless its depth is bounded.

Python raises RecursionError about a thousand frames down, so a search
that recurses once per step of a path fails on a long path.  This test
parses the package and fails on any function that calls itself by name
(or, in a method, through `self` or `cls`) and is not on the allowlist
below.  Mutual recursion, and a call of the same method on another
object, are not detected.
"""

import ast
from pathlib import Path

import critindep

# module.function[.nested] -> what bounds its depth.
BOUNDED = {
    "matching.max_matching_bruteforce.best":
        "n <= 12 (BRUTE_FORCE_LIMIT)",
    "gallai_edmonds.missed_vertices_oracle.rec":
        "n <= 10 (MISSED_VERTICES_LIMIT)",
    "independence._alpha_mask.rec":
        "n, at most the alpha limit, which the CLI caps at ALPHA_CEILING",
    "independence._iter_maximum_independent_masks.rec":
        "n <= 20 (the omega limit's ceiling)",
    "cli._json_text": "the payload's nesting depth",
}


def _self_callers(package: Path) -> set[str]:
    """The qualified name of every function of the package's modules that
    calls itself."""
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    name = f"{prefix}{child.name}"
                    if any(_calls(call.func, child.name)
                           for call in ast.walk(child)
                           if isinstance(call, ast.Call)):
                        found.add(name)
                    visit(child, f"{name}.")
                else:
                    visit(child, prefix)

        visit(tree, f"{path.stem}.")
    return found


def _calls(func: ast.expr, name: str) -> bool:
    if isinstance(func, ast.Name):
        return func.id == name
    return (isinstance(func, ast.Attribute) and func.attr == name
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls"))


def test_only_bounded_routines_recurse():
    package = Path(critindep.__file__).parent
    assert _self_callers(package) - set(BOUNDED) == set()


def test_every_allowlisted_routine_recurses():
    # An entry whose function no longer recurses, or no longer exists, is
    # dropped from the allowlist rather than left to widen it.
    assert set(BOUNDED) <= _self_callers(Path(critindep.__file__).parent)


def test_the_rule_sees_each_kind_of_self_call(tmp_path):
    (tmp_path / "m.py").write_text(
        "def fact(k):\n"
        "    return 1 if k < 2 else k * fact(k - 1)\n"
        "\n"
        "def outer(xs):\n"
        "    def walk(i):\n"
        "        return [walk(j) for j in xs[i]]\n"
        "    return walk(0)\n"
        "\n"
        "class Tree:\n"
        "    def size(self):\n"
        "        return 1 + sum(c.size() for c in self.kids)\n"
        "\n"
        "    def depth(self):\n"
        "        return 1 + max(self.depth() for _ in ())\n"
        "\n"
        "def flat(xs):\n"
        "    return sorted(xs)\n")
    assert _self_callers(tmp_path) == {"m.fact", "m.outer.walk",
                                       "m.Tree.depth"}
