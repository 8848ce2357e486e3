import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sumdiff"


def unused_imports(path):
    """(line, name) of each name that ``path`` imports and never uses.

    ``__future__`` imports and lines marked ``noqa: F401`` are left out.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_unused_imports_flags_only_unused_names(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import sys  # noqa: F401\n"
        "from json import dumps as dump, loads\n"
        "from pathlib import Path\n"
        "def f() -> Path:\n"
        "    return os.path.join(dump(1))\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == [(2, "math"), (5, "loads")]


def test_package_has_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    found = [f"{p.name}:{line} {name}" for p in modules for line, name in unused_imports(p)]
    assert found == []
