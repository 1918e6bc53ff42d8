"""What a fresh `import critindep.cli` and one command cost.

Every command runs in its own interpreter, so the import is paid once
per graph.  The records are NamedTuples and `Graph` a hand-written
class, so the import loads neither `dataclasses` nor the `inspect`
module it pulls in; `datetime` is imported only to stamp a report; and
a well-formed command line is read without argparse, so neither it nor
the `gettext` and `locale` modules its parser build loads are imported.
The first test imports the package and runs a `--no-timestamp` command
in a fresh interpreter and lists the modules it loaded; the second
checks that help still comes from argparse; the third parses the
package and fails on any `dataclasses` import.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import critindep

PACKAGE = Path(critindep.__file__).parent

# Modules start-up must not load.
HEAVY = ("dataclasses", "inspect", "datetime", "argparse", "gettext",
         "locale")

# Run with -S: a `.pth` hook of site-packages may import modules of its
# own, and this test asks only what the package loads.
_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import critindep.cli
loaded = {"import": [m for m in sys.argv[3:] if m in sys.modules]}
critindep.cli.main(["analyze", sys.argv[2], "--no-timestamp"])
loaded["no_timestamp"] = [m for m in sys.argv[3:] if m in sys.modules]
print(json.dumps(loaded))
"""


def test_start_up_loads_no_heavy_module(tmp_path):
    graph = tmp_path / "c5.txt"
    graph.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    out = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, str(PACKAGE.parent),
         str(graph), *HEAVY],
        capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert loaded == {"import": [], "no_timestamp": []}


def test_help_is_printed_by_argparse():
    code = ("import sys\nsys.path.insert(0, sys.argv[1])\n"
            "import critindep.cli\ncritindep.cli.main(['analyze', '--help'])")
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: critindep analyze [-h] ")


def _dataclass_imports(package: Path) -> list[str]:
    """file:line of every import of `dataclasses` in the package."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_imports_dataclasses():
    assert _dataclass_imports(PACKAGE) == []


def test_the_rule_sees_each_spelling(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os, dataclasses as dc\n\n"
        "def f():\n    from dataclasses import dataclass\n")
    (tmp_path / "b.py").write_text(
        "from . import dataclasses_free\nimport typing\n")
    assert _dataclass_imports(tmp_path) == ["a.py:1", "a.py:4"]
