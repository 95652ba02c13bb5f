"""Every name a gaborlab module imports is used in that module, and every
function, class, method and module-level constant it defines is used
somewhere in gaborlab.

Stand-ins for a linter's unused-import rule (F401) and a dead-code check,
written with the stdlib ast module. `from __future__` imports are skipped,
and so is any import whose line carries `# noqa: F401`.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gaborlab"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport sys\nprint(sys.argv)\n"
    assert unused_imports(source) == ["line 2: os"]
    assert unused_imports("import os  # noqa: F401\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def outside_module_aliases(tree: ast.AST, modules: set[str]) -> set[str]:
    """Names that plain `import` statements bind to modules outside the sources
    (`np`, `math`, `json`, ...)."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] not in modules
    }


def attribute_base(node: ast.Attribute):
    """The expression at the bottom of an attribute chain: `np` in np.linalg.norm."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def referenced_names(tree: ast.AST, outside: set[str] = frozenset()):
    """Every ast.Name id and ast.Attribute attr in the tree, except attributes
    looked up on a module alias in outside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            base = attribute_base(node)
            if not (isinstance(base, ast.Name) and base.id in outside):
                yield node.attr


def dead_symbols(sources: dict[str, str]) -> list[str]:
    """Top-level functions, classes and constants, and methods, that no
    ast.Name or ast.Attribute anywhere in the sources refers to outside the
    symbol's own definition (a constant's is its assignment). Dunder names
    are skipped. Matching is by bare name, but an attribute of an outside
    module (np.linalg.norm) refers to nothing in the sources."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    modules = {name.removesuffix(".py") for name in sources}
    outside = {name: outside_module_aliases(tree, modules) for name, tree in trees.items()}
    refs = Counter(
        ref for name, tree in trees.items() for ref in referenced_names(tree, outside[name])
    )
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((module, node.name, node))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.extend(
                    (module, t.id, node)
                    for t in targets
                    if isinstance(t, ast.Name) and not (t.id.startswith("__") and t.id.endswith("__"))
                )
            if isinstance(node, ast.ClassDef):
                defs.extend(
                    (module, f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
    dead = []
    for module, qualname, node in defs:
        name = qualname.rsplit(".", 1)[-1]
        own = Counter(referenced_names(node, outside[module]))[name]
        if refs[name] - own <= 0:
            dead.append(f"{module}: {qualname}")
    return sorted(dead)


def test_detects_a_dead_symbol():
    used = "def helper():\n    return 1\n\nprint(helper())\n"
    assert dead_symbols({"a": used}) == []
    recursive = "def loop(n):\n    return loop(n - 1)\n"
    assert dead_symbols({"a": recursive}) == ["a: loop"]
    methods = (
        "class Box:\n"
        "    def __init__(self):\n        self.size = 0\n"
        "    def grow(self):\n        self.size += 1\n"
        "    def shrink(self):\n        self.size -= 1\n"
        "Box().grow()\n"
    )
    assert dead_symbols({"a": methods}) == ["a: Box.shrink"]
    # a reference from another module counts, by attribute too
    assert dead_symbols({"a": "def f():\n    pass\n", "b": "import a\na.f()\n"}) == []
    # an outside module's attribute of the same name does not
    shadowed = (
        "import numpy as np\n"
        "class Vec:\n"
        "    def norm(self):\n        return 0.0\n"
        "print(Vec(), np.linalg.norm([3.0, 4.0]))\n"
    )
    assert dead_symbols({"a": shadowed}) == ["a: Vec.norm"]
    assert dead_symbols({"a": shadowed + "Vec().norm()\n"}) == []


def test_detects_a_dead_constant():
    source = "LIMIT = 3\n_UNUSED = 4\n__version__ = '1'\nprint(LIMIT)\n"
    assert dead_symbols({"a": source}) == ["a: _UNUSED"]
    # annotated, and read from another module by attribute
    assert dead_symbols({"a": "SIZE: int = 2\n", "b": "import a\nprint(a.SIZE)\n"}) == []
    assert dead_symbols({"a": "SIZE: int = 2\n"}) == ["a: SIZE"]
    # another constant's assignment reads it; an outside module's attribute does not
    assert dead_symbols({"a": "N = 2\nM = N + 1\nprint(M)\n"}) == []
    shadowed = "import numpy as np\npi = 3.0\nprint(np.pi)\n"
    assert dead_symbols({"a": shadowed}) == ["a: pi"]


def test_no_dead_symbols():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_symbols(sources) == []


def test_only_the_campaigns_and_the_cli_split_seeds():
    # the code that names an item splits the master seed for it; every other
    # module takes the generator or the stack its caller drew
    splitters = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        names = set(referenced_names(tree))
        names.update(
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        )
        if "campaign_rng" in names:
            splitters.add(path.name)
    assert splitters == {"campaigns.py", "cli.py"}


def test_every_process_cache_is_in_the_one_registry():
    # the test fixture and A9 empty the process caches from this one list
    from gaborlab.campaigns import _BUILDERS

    cached = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("gaborlab" if path.stem == "__init__" else f"gaborlab.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                    if name in ("lru_cache", "cache"):
                        cached.append(getattr(module, node.name))
    assert len(cached) == len(_BUILDERS) == 5
    assert {id(builder) for builder in cached} == {id(builder) for builder in _BUILDERS}
