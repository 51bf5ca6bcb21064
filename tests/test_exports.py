"""Public names: every name a module exports resolves, and the package
re-exports only names its modules export, so a deleted function that is still
listed or still imported fails here by name."""

import ast
import importlib
import re
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


def _class_bodies(module: str) -> dict[str, set[str]]:
    """Class name -> the names that its own body defines, for every class of
    ``sourceseek/<module>.py``."""
    tree = ast.parse((_INIT.parent / f"{module}.py").read_text())
    bodies = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names.add(item.target.id)
                elif isinstance(item, ast.Assign):
                    names |= {t.id for t in item.targets if isinstance(t, ast.Name)}
            bodies[node.name] = names
    return bodies


def test_one_study_verdict():
    """Every study result takes ``passed`` from the one base class, where it
    is the conjunction of ``checks``. The benchmark tracer patches ``report``
    in the class dicts of ``SimulateResult`` and ``HessianSweepReport``, so
    those two define it in their own bodies."""
    bodies = _class_bodies("experiments")
    assert [name for name, body in bodies.items() if "passed" in body] == ["StudyResult"]
    assert "report" in bodies["SimulateResult"]
    assert "report" in bodies["HessianSweepReport"]


#: the start every run and study shares, declared once, by ``_Start``
_START = {"field", "params", "x0", "nu0", "d0"}


def test_one_start_for_every_run_and_study():
    """No dataclass of ``experiments`` but ``_Start`` declares a setting of
    the shared start; the run and study configs inherit it."""
    tree = ast.parse((_INIT.parent / "experiments.py").read_text())
    declared = {}
    for node in tree.body:
        decorators = [d.func if isinstance(d, ast.Call) else d for d in
                      getattr(node, "decorator_list", ())]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            declared[node.name] = {item.target.id for item in node.body
                                   if isinstance(item, ast.AnnAssign)} & _START
    start = declared.pop("_Start", None)
    assert {name: names for name, names in declared.items() if names} == {}
    assert start == _START


def _unused_imports(module: str) -> list[str]:
    """The names ``sourceseek/<module>.py`` imports and never reads, outside
    lines marked ``# noqa``."""
    source = (_INIT.parent / f"{module}.py").read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__" and \
                "# noqa" not in lines[node.lineno - 1]:
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("module", _MODULES)
def test_no_module_imports_a_name_it_never_reads(module):
    """A stand-in for a linter's unused-import rule. ``__init__`` imports
    to re-export, which :func:`test_package_imports_only_exported_names`
    checks."""
    assert _unused_imports(module) == []


_ROOT = Path(__file__).resolve().parents[1]


def _readers() -> tuple[dict, str]:
    """The syntax tree of every module of the package, and the text of
    every script of ``bench/`` and ``demos/``."""
    trees = {module: ast.parse((_INIT.parent / f"{module}.py").read_text())
             for module in ["__init__", *_MODULES]}
    scripts = "\n".join(path.read_text() for folder in ("bench", "demos")
                        for path in sorted((_ROOT / folder).glob("*.py")))
    return trees, scripts


def _dead_exports() -> list[str]:
    """``module.name`` for every name of a module's ``__all__`` that no code
    in the package reads outside the name's own definition, and that no
    file of ``bench/`` or ``demos/`` names as a word (the benchmark's
    tracer names the functions it patches in strings)."""
    trees, scripts = _readers()

    def reads(module: str, name: str) -> bool:
        for other, tree in trees.items():
            own = [(node.lineno, node.end_lineno) for node in tree.body
                   if other == module and getattr(node, "name", None) == name]
            for node in ast.walk(tree):
                read = (isinstance(node, ast.Name) and node.id == name
                        and isinstance(node.ctx, ast.Load)
                        or isinstance(node, ast.Attribute) and node.attr == name)
                if read and not any(a <= node.lineno <= b for a, b in own):
                    return True
        return False

    return [f"{module}.{name}" for module in _MODULES
            for name in getattr(importlib.import_module(f"sourceseek.{module}"),
                                "__all__", ())
            if not reads(module, name)
            and not re.search(rf"\b{re.escape(name)}\b", scripts)]


def test_every_exported_name_has_a_reader():
    """A public name that only tests call is dead API: delete it, or give
    it a caller."""
    assert _dead_exports() == []


def _dead_methods() -> list[str]:
    """``module.Class.name`` for every public method or property that a
    class body of the package defines and that no code of the package reads
    as an attribute outside the definition, and that no file of ``bench/``
    or ``demos/`` names as a word."""
    trees, scripts = _readers()
    methods = [(module, cls.name, item) for module in _MODULES for cls in trees[module].body
               if isinstance(cls, ast.ClassDef) for item in cls.body
               if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]

    def reads(module: str, item) -> bool:
        own = range(item.lineno, item.end_lineno + 1)
        return any(isinstance(node, ast.Attribute) and node.attr == item.name
                   and not (other == module and node.lineno in own)
                   for other, tree in trees.items() for node in ast.walk(tree))

    return [f"{module}.{cls}.{item.name}" for module, cls, item in methods
            if not reads(module, item)
            and not re.search(rf"\b{re.escape(item.name)}\b", scripts)]


def test_every_public_method_has_a_reader():
    """A method or property that only tests call is dead API, as a public
    name is (:func:`test_every_exported_name_has_a_reader`)."""
    assert _dead_methods() == []


#: a line of report text that is a section header, ``[name]``: a name with
#: a letter of its own, which may hold f-string fields (``{}``) but no
#: punctuation, so that a bracketed value (``[{}]``), error text such as
#: ``[{}, {}]`` and templates such as ``[$constants]`` are not headers
_HEADER = re.compile(r"\[[\w{} .]*[A-Za-z][\w{} .]*\]")


def _docstrings(tree) -> set[int]:
    """``id`` of every docstring node of ``tree``."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def _hand_written_headers() -> list[str]:
    """``module:line: text`` for every string of the package, docstrings
    aside, with a line that is a ``[header]`` and that is not written
    inside ``model._section``."""
    found = []
    for module in _MODULES:
        tree = ast.parse((_INIT.parent / f"{module}.py").read_text())
        skip = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_section":
                skip |= {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.JoinedStr):
                text = "".join(part.value if isinstance(part, ast.Constant) else "{}"
                               for part in node.values)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value
            else:
                continue
            if any(_HEADER.fullmatch(line.strip()) for line in text.splitlines()):
                found.append(f"{module}:{node.lineno}: {text!r}")
    return found


def test_every_report_header_is_written_by_the_one_section_renderer():
    """Every report is made of ``model._section`` sections: the package
    defines that function once and writes no ``[header]`` text elsewhere."""
    owners = [module for module in _MODULES
              for node in ast.walk(ast.parse((_INIT.parent / f"{module}.py").read_text()))
              if isinstance(node, ast.FunctionDef) and node.name == "_section"]
    assert owners == ["model"]
    assert _hand_written_headers() == []
