"""Source checks on the package modules, using only the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "centroflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# where a definition counts as used: the package, its tests and the benchmark
CALLERS = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
                  *(ROOT / "bench").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


def test_detects_unused_import():
    source = "from x import a, b\nimport c.d\n__all__ = ['b']\n"
    assert unused_imports(source) == ["a (line 1)", "c (line 2)"]
    assert unused_imports(source + "a(c.d)\n") == []
    # a dataclass field of the same name is not a use
    assert unused_imports("from x import a\nclass C:\n    a: int\n") == ["a (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def public_definitions(source: str) -> list[tuple[str, str]]:
    """(qualified name, name) of the public top-level functions and classes
    and of the public methods of every top-level class."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{item.name}", item.name) for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def named(source: str) -> tuple[set[str], set[str]]:
    """Every name a source refers to as a Name, an Attribute or an import, and
    the names it refers to as an Attribute."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {part for alias in node.names for part in alias.name.split(".")}
    return names | attributes, attributes


def unnamed(source: str, names: set[str], attributes: set[str]) -> list[str]:
    """Public definitions of ``source`` that the callers never name: a
    top-level function or class by any reference, a method only through an
    attribute (a local variable of the same name is not a use)."""
    return [qual for qual, name in public_definitions(source)
            if name not in (attributes if "." in qual else names)]


@pytest.fixture(scope="module")
def callers_named() -> tuple[set[str], set[str]]:
    refs = [named(p.read_text(encoding="utf-8")) for p in CALLERS]
    return set().union(*(r[0] for r in refs)), set().union(*(r[1] for r in refs))


def test_detects_unnamed_definition():
    source = "def f(): pass\nclass C:\n    def m(self): pass\n    def _p(self): pass\n"
    assert public_definitions(source) == [("f", "f"), ("C", "C"), ("C.m", "m")]
    assert named("from x import f\nC().m\n") == ({"f", "C", "m"}, {"m"})
    assert unnamed(source, *named("from x import f\nC().m\n")) == []
    # a local variable that shares the method's name does not name the method
    caller = "from x import f, C\ndef g():\n    m = 1\n    return C(m)\n"
    assert unnamed(source, *named(caller)) == ["C.m"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_definition_is_named(path, callers_named):
    assert unnamed(path.read_text(encoding="utf-8"), *callers_named) == []


# the computational modules, which must not reach into file I/O or the CLI
CORE = ("spectral", "support", "ops", "normalize", "flow", "lab")


def package_imports(source: str) -> set[str]:
    """Modules of the package that ``source`` imports relatively."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            out |= {node.module} if node.module else {alias.name for alias in node.names}
    return out


def test_detects_package_imports():
    assert package_imports("from . import ops, bodyio\nfrom .cli import main\n"
                           "from numpy import pi\n") == {"ops", "bodyio", "cli"}


@pytest.mark.parametrize("name", CORE)
def test_core_modules_import_no_io_or_cli(name):
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    assert package_imports(source) & {"bodyio", "cli"} == set()


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the package and its CLI run on numpy
    probe = ("import sys, centroflow, centroflow.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
