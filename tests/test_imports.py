"""Module structure: the relative imports between the package's modules
form no cycle, each module uses every name it imports, no module calls
numpy's closeness tests, no __post_init__ calls math.isfinite, and
importing the CLI loads no thread pool.

An AST scan of the source files, since no linter is a test dependency.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qkdlimits"
# __init__ re-exports names it does not use itself; __main__ is the entry point.
MODULES = sorted(p for p in SRC.glob("*.py") if p.stem not in ("__init__", "__main__"))


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def relative_imports(tree: ast.Module) -> set[str]:
    """The sibling modules a module imports relatively, at any nesting level."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    # "from . import __version__" names the package, not a module.
    return out & {p.stem for p in MODULES}


def test_the_scan_sees_the_package():
    names = {p.stem for p in MODULES}
    assert {"cli", "distance", "links", "scenario"} <= names
    assert "links" in relative_imports(parse(SRC / "distance.py"))


def test_relative_imports_form_no_cycle():
    graph = {p.stem: relative_imports(parse(p)) for p in MODULES}
    done: set[str] = set()
    path: list[str] = []

    def visit(module: str):
        if module in path:
            cycle = path[path.index(module):] + [module]
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        path.append(module)
        for target in sorted(graph[module]):
            visit(target)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: imported and never used (name: line) {unused}"


def numpy_closeness_calls(tree: ast.AST) -> list[int]:
    """Lines that name np.allclose or np.isclose, or import them from numpy."""
    names = ("allclose", "isclose")
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "numpy"
            and any(alias.name in names for alias in node.names)
        ):
            lines.append(node.lineno)
    return lines


def test_the_closeness_scan_sees_a_call():
    assert numpy_closeness_calls(ast.parse("np.allclose(a, b)\nnp.isclose(a, b)")) == [1, 2]
    assert numpy_closeness_calls(ast.parse("from numpy import isclose")) == [1]
    assert numpy_closeness_calls(ast.parse("math.isclose(a, b)")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_closeness_test(path):
    # Both count inf as close to inf, so a check built on them lets
    # non-finite input through; compare elementwise instead.
    lines = numpy_closeness_calls(parse(path))
    assert not lines, f"{path.name}: np.allclose/np.isclose on lines {lines}"


def post_init_isfinite_calls(tree: ast.AST) -> list[int]:
    """Lines where a __post_init__ names math.isfinite, or calls an
    isfinite imported from math."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr == "isfinite"
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "math"
                ) or (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "isfinite"
                ):
                    lines.append(sub.lineno)
    return lines


def test_the_post_init_scan_sees_a_call():
    code = "class A:\n    def __post_init__(self):\n        math.isfinite(self.x)\n"
    assert post_init_isfinite_calls(ast.parse(code)) == [3]
    code = "class A:\n    def __post_init__(self):\n        ok = isfinite(self.x)\n"
    assert post_init_isfinite_calls(ast.parse(code)) == [3]
    assert post_init_isfinite_calls(ast.parse("def f(x):\n    return math.isfinite(x)")) == []
    assert post_init_isfinite_calls(ast.parse("np.isfinite(m).all()")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_post_init_checks_a_number_by_hand(path):
    # Model fields are read through errors.real and errors.integer, the
    # one rule for a number: a hand-written isfinite range test lets a
    # bool or a numeric str through, or fails on one with a TypeError.
    lines = post_init_isfinite_calls(parse(path))
    assert not lines, f"{path.name}: math.isfinite in __post_init__ on lines {lines}"


def test_importing_the_cli_loads_no_thread_pool():
    # The Monte Carlo estimators cut a block of more than one chunk into
    # trial ranges, one per usable CPU, and check that the ranges' draws
    # tile the block's stream. The ranges run on one thread pool per
    # process, imported and built by the first call that cuts a block, so
    # the CLI's start-up and memory do not pay for it.
    code = "import sys, qkdlimits.cli; print('concurrent.futures.thread' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "False"
