"""Each name a `wtaut` module exports is used by `src/` itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wtaut"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _loaded() -> set[str]:
    """Every name loaded as a Name or an Attribute in src/, __init__.py aside."""
    names = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


LOADED = _loaded()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_is_loaded_in_src(path):
    """No name in a module's __all__ is there for tests alone: each one is
    loaded somewhere in src/ outside __init__.py, in its own module or
    another.  An import alone does not count.

    This checks direct use, not reachability.  A name whose only user is
    itself reached by tests alone still passes: when the index sequences
    were in `semigroups`, `is_realizable` was loaded only by
    `wcycles.intersection_nonempty`, which nothing in src/ called.
    """
    unused = [name for name in _exported(ast.parse(path.read_text())) if name not in LOADED]
    assert unused == []
