"""Pretty-printed JSON goes through `cli._json_text`.

`json.dumps` with `indent` encodes in pure Python, several times slower
than the writer, which prints the same bytes.  This test parses the
package and fails when any call of `json.dumps` (or of a bare `dumps`)
passes an `indent` keyword.
"""

import ast
from pathlib import Path

import critindep


def _indented_dumps(package: Path) -> list[str]:
    """file:line of every dumps(..., indent=...) call in the package."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name == "dumps" and any(kw.arg == "indent"
                                       for kw in node.keywords):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_dumps_call_indents():
    assert _indented_dumps(Path(critindep.__file__).parent) == []


def test_the_rule_sees_an_indented_call(tmp_path):
    (tmp_path / "m.py").write_text(
        "import json\n\nprint(json.dumps({}, indent=2))\n")
    assert _indented_dumps(tmp_path) == ["m.py:3"]
