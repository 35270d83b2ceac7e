"""The package holds only the product: the command line loads every
module under src/bictrace, none of them imports the scripts or the test
helpers, and every public name in it is used by the package or the
scripts, not only by tests."""

from __future__ import annotations

import ast
import os
import re
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


# qualified names (``module.name`` or ``module.Class.member``) that may stay
# unreferenced in the package and the scripts, each with its reason
UNREFERENCED_BY_DESIGN: frozenset[str] = frozenset()


def _public_definitions():
    """(qualified name, file, definition node, pattern of a reference) for
    every public module-level function, class and constant (``NAME = ...``)
    of the package, and every public method and annotated field of its
    classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not name.startswith("_"):
                yield f"{path.stem}.{name}", path, node, rf"\b{name}\b"
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{name}", path, member, rf"\.{name}\b"


def test_every_public_name_is_used_by_the_product():
    sources = {
        path: path.read_text(encoding="utf-8").splitlines()
        for path in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]
    }
    unused = []
    for qualified, own, node, pattern in _public_definitions():
        elsewhere = "\n".join(
            "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno:]) if path == own
            else "\n".join(lines)
            for path, lines in sources.items()
        )
        if not re.search(pattern, elsewhere):
            unused.append(qualified)
    assert sorted(set(unused) - UNREFERENCED_BY_DESIGN) == []
