"""Public names: every name a module exports resolves, and the package
re-exports only names its modules export, so a deleted function that is still
listed or still imported fails here by name."""

import ast
import importlib
from pathlib import Path

import pytest

import sourceseek

_INIT = Path(sourceseek.__file__)
_MODULES = sorted(p.stem for p in _INIT.parent.glob("*.py") if p.stem != "__init__")


def _package_imports() -> list[tuple[str, str]]:
    """``(module, name)`` for every name ``sourceseek/__init__`` imports from
    one of its own modules."""
    tree = ast.parse(_INIT.read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", _MODULES)
def test_every_listed_name_resolves(module):
    mod = importlib.import_module(f"sourceseek.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_imports_only_exported_names():
    imports = _package_imports()
    assert len(imports) > 50
    stale = [(module, name) for module, name in imports
             if not name.startswith("_")
             and name not in importlib.import_module(f"sourceseek.{module}").__all__]
    assert stale == []


def test_cli_imports_no_numerics():
    """The command-line front end parses, runs a study and writes its report:
    it imports neither numpy nor the engine, the certificate or an
    affine-system builder."""
    tree = ast.parse((_INIT.parent / "cli.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {part for alias in node.names for part in alias.name.split(".")}
        elif isinstance(node, ast.ImportFrom):
            imported |= set((node.module or "").split("."))
            imported |= {alias.name for alias in node.names}
    forbidden = {"numpy", "averaging", "stability", "gradient_affine_system",
                 "newton_affine_system"}
    assert imported & forbidden == set()
