"""Every name a parsched module exports exists, once, and every public
name the package defines is used by the package itself."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import parsched

MODULES = ["parsched"] + [f"parsched.{info.name}" for info in pkgutil.iter_modules(parsched.__path__)]

# perfbench/run.py's engine report reads these two; they leave the package
# when the benchmark stops reading them.
UNUSED_ALLOWED = {"fullsim.kernel_available", "fullsim.active_backend"}


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), sorted(exported)
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == []
    exec(f"from {name} import *", {})


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read in a tree, as a Name or as an
    Attribute's attr.  An import or an ``__all__`` string is neither."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load))


def _public_definitions(module: str, tree: ast.Module):
    """(dotted name, node) of each public module-level function or class
    and of each public method or property of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def test_every_public_name_is_read_by_the_package():
    """A public function, class, method or property of ``src/parsched``
    that nothing in the package reads outside its own definition is code
    only the tests use, and belongs in ``tests/helpers.py``.  Names match
    by spelling, so a method counts as read wherever an attribute of that
    name is read."""
    src = Path(parsched.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    reads = sum(map(_reads, trees.values()), Counter())
    unused = {name for module, tree in trees.items()
              for name, node in _public_definitions(module, tree)
              if reads[node.name] == _reads(node)[node.name]}
    assert unused == UNUSED_ALLOWED
