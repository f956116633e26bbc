"""No module imports a name it never uses or another module's private name, no public
package name or field is test-only, no private package name is unread, and every
exported name is defined."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "monorhythm").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))

# Public names the package keeps although only tests and readers call them.
UNREAD_BY_DESIGN = {
    "farkas_apply": "the one-call form of the fixed-point operator; tests apply it to Picard's"
    " returned orbit to recompute its last recorded residual, and check fixed points with it",
    "render_config": "the README documents the echo round trip: render, then parse back",
}

# Dataclass fields the package keeps although no package code reads them by name.
_REPORTED = "report.json carries it: output._json_default writes the record with dataclasses.asdict"
FIELDS_UNREAD_BY_DESIGN = {
    "ConditionResult.margin": _REPORTED,
}


def _exported(tree: ast.Module) -> set[str]:
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(imported) - used - _exported(tree)
    return sorted(unused, key=imported.get)


def test_checker_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "print(os.sep, pi)\n"
    )
    assert unused_imports(source) == ["system"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _unread(sources: dict[str, str], defined) -> list[str]:
    """The names ``defined(tree)`` gives for each module that no module reads.

    ``sources`` maps module names to their text. A name defined in module M
    counts as read where M itself loads it, or where a module that imports
    it from M does; importing alone is not reading.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    loads = {
        name: {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for name, tree in trees.items()
    }
    read = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rsplit(".", 1)[-1]
                for alias in node.names:
                    if (alias.asname or alias.name) in loads[name]:
                        read.add((source, alias.name))
    return sorted(
        defined_name
        for name, tree in trees.items()
        for defined_name in defined(tree)
        if defined_name not in loads[name] and (name, defined_name) not in read
    )


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """Public top-level functions and classes that no module of ``sources`` reads."""
    return _unread(
        sources,
        lambda tree: [
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ],
    )


def test_unread_checker_follows_imports_between_modules():
    sources = {
        "a": "def used(): pass\ndef orphan(): pass\ndef _private(): pass\nclass Local: pass\n"
        "x = Local()\n",
        "b": "from .a import used, orphan\nfrom .c import lone\nused()\n",
        "c": "def lone(): pass\n",
    }
    assert unread_public_names(sources) == ["lone", "orphan"]


def test_every_public_package_name_is_read_by_package_code():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unread_public_names(sources) == sorted(UNREAD_BY_DESIGN)


def _private_definitions(tree: ast.Module) -> list[str]:
    """Underscore functions, classes and constants a module defines at top level; not dunders."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level functions, classes and constants that no module of ``sources``
    reads; a path deleted without its helpers leaves them here."""
    return _unread(sources, _private_definitions)


def test_private_checker_flags_only_unread_underscore_names():
    sources = {
        "a": "__all__ = []\n_LIMIT = 3\n_ORPHAN: int = 4\ndef _used(): return _LIMIT\n"
        "def _lone(): pass\nclass _Hidden: pass\ndef public(): return _used()\n",
        "b": "from .a import _Hidden\nfrom .c import _kept, _imported\nx = _Hidden(_kept)\n",
        "c": "_kept = _imported = 1\n_dropped, y = 2, 3\n",
    }
    assert unread_private_names(sources) == ["_ORPHAN", "_dropped", "_imported", "_lone"]


def test_every_private_package_name_is_read_by_package_code():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unread_private_names(sources) == []


def unread_dataclass_fields(sources: dict[str, str]) -> list[str]:
    """``Class.field`` for each dataclass field no module of ``sources`` reads.

    A field counts as read where any module loads an attribute of its name;
    the check goes by name, not by type, so it can only miss an unread field,
    never flag a read one.
    """
    trees = [ast.parse(text) for text in sources.values()]
    read = {
        n.attr
        for tree in trees
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unread = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and item.target.id not in read:
                    unread.append(f"{node.name}.{item.target.id}")
    return sorted(unread)


def test_field_checker_flags_only_unread_fields():
    sources = {
        "a": "@dataclass(frozen=True)\nclass P:\n    kept: float\n    orphan: float\n"
        "@dataclass\nclass Q:\n    lone: int\nclass Plain:\n    ignored: int\n",
        "b": "def f(p):\n    return p.kept\n",
    }
    assert unread_dataclass_fields(sources) == ["P.orphan", "Q.lone"]


def test_every_dataclass_field_is_read_by_package_code():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unread_dataclass_fields(sources) == sorted(FIELDS_UNREAD_BY_DESIGN)


def private_imports(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each underscore name a module imports from another package module.

    Package modules import each other relatively (``from .galerkin import ...``),
    so every relative import counts.
    """
    found = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{name}: {a.name}" for a in node.names if a.name.startswith("_")]
    return sorted(found)


def test_private_import_checker_flags_only_relative_underscore_names():
    sources = {
        "a": "from .b import public, _hidden\nfrom os import _exit\n",
        "b": "from . import _lone\nimport _thread\n",
    }
    assert private_imports(sources) == ["a: _hidden", "b: _lone"]


def test_no_package_module_imports_a_private_name():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert private_imports(sources) == []


def undefined_exports(source: str) -> list[str]:
    """Entries of a module's ``__all__`` that no module-level statement defines."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return sorted(_exported(tree) - defined)


def test_export_checker_flags_only_undefined_names():
    source = (
        "from .b import lone\n"
        "import os.path\n"
        "X: int = 1\n"
        "Y = 2\n"
        "def f(): pass\n"
        "class C: pass\n"
        "def g():\n    inner = 3\n"
        "__all__ = ['lone', 'os', 'X', 'Y', 'f', 'C', 'inner', 'gone']\n"
    )
    assert undefined_exports(source) == ["gone", "inner"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_export_names_a_module_level_definition(path):
    assert undefined_exports(path.read_text()) == []
