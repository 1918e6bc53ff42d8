"""The README's library quick start runs and prints what it says.

Each code block of the quick-start section is run top to bottom.  A
statement that is a bare expression with a Python literal in its
trailing comment must evaluate to that literal; the one comment in
words is checked by hand below.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start_blocks() -> list[str]:
    section = README.read_text().split("## Library quick start", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def _run(block: str) -> tuple[int, dict[str, object]]:
    """Run a block and check each expression whose comment is a literal.
    Return how many it checked, and the value of each expression whose
    comment is in words, by its source text."""
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    described = {}
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                 namespace)
            continue
        source = ast.get_source_segment(block, stmt)
        value = eval(source, namespace)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        try:
            expected = ast.literal_eval(comment)
        except (SyntaxError, ValueError):
            described[source] = value
            continue
        assert value == expected, source
        checked += 1
    return checked, described


def test_the_quick_start_blocks_run_as_commented():
    blocks = _quick_start_blocks()
    assert len(blocks) == 2
    checked, described = _run(blocks[0])
    assert checked == 3
    # "the three leaf pairs" of the star K_{1,3}
    assert described.keys() == {"enumerate_minimal_positive_sets(g)"}
    assert sorted(map(sorted, described.popitem()[1])) == [
        [1, 2], [1, 3], [2, 3]]
    assert _run(blocks[1]) == (4, {})
