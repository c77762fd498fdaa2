"""Each name a `wtaut` module exports is used by `src/` itself, the
package re-exports nothing, and the modules import in layers."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wtaut"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# Each module may import only modules of a lower layer: the mathematics
# runs semigroups and partitions, Schur functions, classes in lambda and
# psi, then the tautological ring.
LAYERS = {
    "errors": 0,
    "exactalg": 0,
    "semigroups": 1,
    "schur": 2,
    "pullback": 3,
    "wcycles": 3,
    "tautring": 4,
    "cli": 5,
}


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


def _imported_modules(tree: ast.Module) -> set[str]:
    """The wtaut modules a module imports by `from .x import` or `from .
    import x`.  `from . import __version__` reads the package itself,
    which imports nothing, so it is allowed from every layer."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
            out.update(name for name in names if name in LAYERS)
    return out


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in MODULES) == sorted(LAYERS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_modules_import_only_lower_layers(path):
    imported = _imported_modules(ast.parse(path.read_text()))
    upward = sorted(m for m in imported if LAYERS[m] >= LAYERS[path.stem])
    assert upward == []


def test_the_package_holds_only_its_docstring_and_version():
    body = ast.parse((SRC / "__init__.py").read_text()).body
    assert [type(node) for node in body] == [ast.Expr, ast.Assign]
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)
    assert [t.id for t in body[1].targets] == ["__version__"]


def _wtaut_modules_loaded_by(statement: str) -> list[str]:
    script = f"import sys; before = set(sys.modules); {statement}; print(*sorted(set(sys.modules) - before))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    loaded = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    return [name for name in loaded if name.startswith("wtaut")]


def test_importing_the_package_loads_no_module():
    assert _wtaut_modules_loaded_by("import wtaut") == ["wtaut"]


def test_importing_semigroups_loads_only_errors_and_semigroups():
    loaded = _wtaut_modules_loaded_by("import wtaut.semigroups")
    assert loaded == ["wtaut", "wtaut.errors", "wtaut.semigroups"]
