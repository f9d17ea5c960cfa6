"""The runtime depends on numpy and requests only, besides the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import demorank

ALLOWED = {"numpy", "requests", "demorank"}


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of every absolute import in a module, nested ones included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_imports_are_stdlib_numpy_or_requests():
    modules = sorted(Path(demorank.__file__).parent.glob("*.py"))
    assert modules
    undeclared = {
        f"{path.name}: {name}"
        for path in modules
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names and name not in ALLOWED
    }
    assert not undeclared, sorted(undeclared)


def unused_imports(path: Path) -> set[str]:
    """Names a module imports and never reads; lines marked `# noqa: F401`
    and `from __future__` imports are exempt."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        and "# noqa: F401" not in lines[node.lineno - 1]
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_import_in_src_is_used():
    modules = sorted(Path(demorank.__file__).parent.glob("*.py"))
    unused = {f"{path.name}: {name}" for path in modules for name in unused_imports(path)}
    assert not unused, sorted(unused)


def unused_parameters(path: Path) -> set[str]:
    """`function: parameter` for each parameter a function's body never reads.

    `self`, `cls` and names starting with `_` are exempt, as are functions
    whose body is only a docstring or `...` (protocol stubs) and lambdas,
    which share a caller's signature.
    """
    unused = set()
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if all(isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
               and (isinstance(stmt.value.value, str) or stmt.value.value is Ellipsis)
               for stmt in fn.body):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused.update(f"{fn.name}: {arg.arg}" for arg in params
                      if arg.arg not in ("self", "cls") and not arg.arg.startswith("_")
                      and arg.arg not in read)
    return unused


def test_every_parameter_in_src_is_read():
    modules = sorted(Path(demorank.__file__).parent.glob("*.py"))
    unused = {f"{path.stem}.{name}" for path in modules for name in unused_parameters(path)}
    assert not unused, sorted(unused)


def pair_renderings(path: Path) -> set[str]:
    """`module:line` of each f-string that formats both a `.query.text` and a
    `.passage.text`, outside `data.pair_text`, the one rendering of a pair."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and (path.stem, fn.name) == ("data", "pair_text")
              for node in ast.walk(fn)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr) and id(node) not in exempt:
            halves = {sub.value.attr for sub in ast.walk(node)
                      if isinstance(sub, ast.Attribute) and sub.attr == "text"
                      and isinstance(sub.value, ast.Attribute)}
            if {"query", "passage"} <= halves:
                found.add(f"{path.stem}:{node.lineno}")
    return found


def test_pair_text_is_the_one_rendering_of_a_pair():
    modules = sorted(Path(demorank.__file__).parent.glob("*.py"))
    found = set().union(*(pair_renderings(path) for path in modules))
    assert not found, sorted(found)


def test_package_import_loads_no_module():
    """Names are imported from their modules; `import demorank` alone loads
    no submodule and no numpy."""
    script = ("import sys, demorank; print(sorted(m for m in sys.modules "
              "if m.startswith('demorank.') or m.split('.')[0] == 'numpy'))")
    src = Path(demorank.__file__).resolve().parent.parent
    result = subprocess.run([sys.executable, "-c", script],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
