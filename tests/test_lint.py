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


def unreferenced_private_names(paths):
    """(file, line, name) of each module-level private name (``_x``, not a
    dunder) that one of ``paths`` defines and none of them reads.

    A read is a loaded name or an attribute, so ``module._x`` counts.
    """
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [
                (path.name, node.lineno, name) for name in names
                if name.startswith("_") and not name.endswith("__") and name not in read
            ]
    return found


def test_unreferenced_private_names_flags_only_unread_names(tmp_path):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text(
        "__all__ = []\n"
        "_LIMIT = 3\n"
        "_unused: int = 4\n"
        "def _helper():\n"
        "    return _LIMIT\n"
        "class _Orphan:\n"
        "    _inner = 1\n"
        "def _by_attribute():\n"
        "    pass\n",
        encoding="utf-8",
    )
    second.write_text("import first\nfirst._helper()\nfirst._by_attribute()\n", encoding="utf-8")
    found = unreferenced_private_names([first, second])
    assert found == [("first.py", 3, "_unused"), ("first.py", 6, "_Orphan")]


def test_package_has_no_unreferenced_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = [f"{name}:{line} {private}" for name, line, private in unreferenced_private_names(modules)]
    assert found == []


def integer_type_checks(path):
    """Lines of ``path`` that call ``isinstance(x, int)`` or compare ``type(x)``
    with ``int`` (``is``, ``==``, ``in`` and their negations), with ``int``
    alone or in a tuple."""

    def names_int(kinds):
        kinds = kinds.elts if isinstance(kinds, (ast.Tuple, ast.List, ast.Set)) else [kinds]
        return any(isinstance(kind, ast.Name) and kind.id == "int" for kind in kinds)

    def calls(node, name):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name

    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if calls(node, "isinstance") and names_int(node.args[1]):
            found.append(node.lineno)
        elif isinstance(node, ast.Compare) and calls(node.left, "type") and any(map(names_int, node.comparators)):
            found.append(node.lineno)
    return found


def test_integer_type_checks_flags_int_alone_or_in_a_tuple(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def f(x, y):\n"
        "    a = isinstance(x, int)\n"
        "    b = isinstance(y, (float, int))\n"
        "    c = isinstance(x, float) or isinstance(y, (bool, str))\n"
        "    d = type(x) is int\n"
        "    e = type(y) in (float, int)\n"
        "    g = type(x) is not str or type(y) == dict or type(x) is kind\n"
        "    return a or isinstance(x, np.integer) or b or c or d or e or g\n",
        encoding="utf-8",
    )
    assert integer_type_checks(module) == [2, 3, 5, 6]


def test_package_checks_integers_only_in_sets():
    # every count an argument carries goes through sets._integer, so a
    # hand-written integer check elsewhere is a copy that can drift from it
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "sets.py")
    assert len(modules) >= 8
    found = [f"{p.name}:{line}" for p in modules for line in integer_type_checks(p)]
    assert found == []


def raising_range_checks(path):
    """(line, function) of each ``if`` in ``path`` whose test holds a chained
    comparison (``a < x < b``) and whose body raises.  Function is the
    outermost function that holds it, None outside any."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, function or child.name)
                continue
            if isinstance(child, ast.If):
                chained = any(isinstance(n, ast.Compare) and len(n.ops) > 1 for n in ast.walk(child.test))
                if chained and any(isinstance(n, ast.Raise) for s in child.body for n in ast.walk(s)):
                    found.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_raising_range_checks_flags_chained_comparisons_that_raise(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def f(x, lo, hi):\n"
        "    if not lo < x < hi:\n"
        "        raise ValueError(x)\n"
        "    if x < hi:\n"
        "        raise ValueError(x)\n"
        "    if x is None or not all(lo <= y <= hi for y in x):\n"
        "        if x:\n"
        "            raise ValueError(x)\n"
        "    if lo < x < hi:\n"
        "        return x\n"
        "def p_of(y):\n"
        "    def check():\n"
        "        if not 0 < y < 1:\n"
        "            raise ValueError(y)\n"
        "if not 0 < 1 < 2:\n"
        "    raise SystemExit\n",
        encoding="utf-8",
    )
    assert raising_range_checks(module) == [(2, "f"), (6, "f"), (13, "p_of"), (15, None)]


# The range checks that stay hand-written, by function: p_of checks the p it
# computes from N, not an argument, and its message names that N;
# asymptotic_bundle checks that a declared regime's prediction lies in
# [0, span], a contradiction between regime and N*p^2, not a bad argument.
_COMPUTED_RANGE_CHECKS = {"p_of", "asymptotic_bundle"}


def test_package_checks_argument_ranges_only_in_sets():
    # every argument's range is a bound of sets._integer or sets._real, so a
    # hand-written check elsewhere is a copy that can drift from them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "sets.py")
    assert len(modules) >= 8
    flagged = [(p.name, line, function) for p in modules for line, function in raising_range_checks(p)]
    assert [f"{name}:{line}" for name, line, function in flagged if function not in _COMPUTED_RANGE_CHECKS] == []
    assert {function for _, _, function in flagged} == _COMPUTED_RANGE_CHECKS


def attribute_uses(path, attr, owners):
    """Lines of ``path`` that read or set ``.attr`` outside the classes and
    functions named in ``owners`` (and anything nested in them)."""
    found = []

    def visit(node, owned):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owned or child.name in owners)
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr and not owned:
                found.append(child.lineno)
            visit(child, owned)

    visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return found


def test_attribute_uses_flags_uses_outside_the_owners(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "class _PairSums:\n"
        "    def size(self):\n"
        "        return self.offsets.size\n"
        "def _sorted_pair_sums(x):\n"
        "    return x.offsets\n"
        "def reader(sums):\n"
        "    return sums.offsets is None\n"
        "offsets = 3\n"
        "def other(sums, offsets):\n"
        "    sums.offsets = offsets\n"
        "    return [s.cells for s in sums]\n"
        "first = reader(None).offsets\n",
        encoding="utf-8",
    )
    assert attribute_uses(module, "offsets", {"_PairSums", "_sorted_pair_sums"}) == [7, 10, 12]
    assert attribute_uses(module, "offsets", {"_PairSums"}) == [5, 7, 10, 12]


def test_pair_sum_layout_is_read_only_by_its_class():
    # Whether a pair-sum result is dense or sorted is one decision: the
    # sorted branch builds the layout and only _PairSums reads it, so no
    # caller branches on it
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = [f"{p.name}:{line}" for p in modules for line in attribute_uses(p, "offsets", {"_PairSums"})]
    assert found == []
    assert attribute_uses(PACKAGE / "sets.py", "offsets", set())  # the class does read it
