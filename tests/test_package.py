"""The package holds only the product: the command line loads every
module under src/bictrace, and none of them imports the scripts or the
test helpers."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "bictrace"


def test_cli_loads_every_module_of_the_package():
    probe = (
        "import sys, bictrace.cli; "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'bictrace'))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=PACKAGE.parent,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    modules = sorted(f"bictrace.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert loaded == ["bictrace", *modules]


def test_no_module_imports_the_scripts_or_the_tests():
    outside = {p.stem for d in ("scripts", "tests") for p in (ROOT / d).glob("*.py")}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            assert not outside & {name.split(".")[0] for name in names}, (path.name, names)
