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


LINE_IO = {"loop": ("data", "read_records"), "write": ("data", "write_lines")}


def line_io(path: Path) -> set[str]:
    """`module.function: loop` for each function that iterates a handle from
    `with open(...)` (directly or as a call's argument, say `enumerate(fh)`),
    and `module.function: write` for each that calls `.write` on one, outside
    `data.read_records` and `data.write_lines`, the one line reader and writer.
    Reading chunks (`iter(lambda: fh.read(n), b"")`) and `json.dump`/`json.load`
    are not line loops."""
    found = set()
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(fn, ast.FunctionDef):
            continue
        handles = {item.optional_vars.id
                   for node in ast.walk(fn) if isinstance(node, ast.With)
                   for item in node.items
                   if isinstance(item.optional_vars, ast.Name)
                   and isinstance(item.context_expr, ast.Call)
                   and getattr(item.context_expr.func, "id",
                               getattr(item.context_expr.func, "attr", None)) == "open"}

        def is_handle(node) -> bool:
            return isinstance(node, ast.Name) and node.id in handles

        for node in ast.walk(fn):
            it = node.iter if isinstance(node, (ast.For, ast.comprehension)) else None
            if is_handle(it) or (isinstance(it, ast.Call) and (
                    any(is_handle(arg) for arg in it.args)
                    or isinstance(it.func, ast.Attribute) and is_handle(it.func.value))):
                found.add((fn.name, "loop"))
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("write", "writelines") and is_handle(node.func.value)):
                found.add((fn.name, "write"))
    return {f"{path.stem}.{name}: {kind}" for name, kind in found
            if LINE_IO[kind] != (path.stem, name)}


def test_read_records_and_write_lines_are_the_one_line_reader_and_writer():
    modules = sorted(Path(demorank.__file__).parent.glob("*.py"))
    found = set().union(*(line_io(path) for path in modules))
    assert not found, sorted(found)


def test_line_io_guard_catches_hand_rolled_loops(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def reads(p):\n"
        "    with open(p, 'rb') as fh:\n"
        "        return [line for lineno, line in enumerate(fh, 1)]\n"
        "def lines(p):\n"
        "    with p.open() as fh:\n"
        "        for line in fh.readlines():\n"
        "            pass\n"
        "def writes(p, rows):\n"
        "    with open(p, 'w') as out:\n"
        "        for row in rows:\n"
        "            out.write(row)\n"
        "def chunks(p):\n"
        "    with open(p, 'rb') as fh:\n"
        "        for chunk in iter(lambda: fh.read(1 << 20), b''):\n"
        "            pass\n"
        "def dumps(p, obj):\n"
        "    with open(p, 'w') as fh:\n"
        "        json.dump(obj, fh)\n")
    assert line_io(path) == {"mod.reads: loop", "mod.lines: loop", "mod.writes: write"}


def logaddexp_callers(path: Path) -> list[str]:
    """Names of the functions in a module that call `logaddexp` (as `np.logaddexp`
    or a bare name), each call counted in its innermost function."""
    callers = set()

    def visit(node, fn: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and getattr(
                    child.func, "attr", getattr(child.func, "id", None)) == "logaddexp":
                callers.add(fn)
            visit(child, fn)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "<module>")
    return sorted(callers)


def test_each_pair_loss_is_written_once():
    """At most one function per module calls `np.logaddexp`, so a loss-only
    entry point reads its training step instead of repeating the formula."""
    modules = sorted(Path(demorank.__file__).parent.glob("*.py"))
    repeated = {f"{path.name}: {', '.join(callers)}" for path in modules
                if len(callers := logaddexp_callers(path)) > 1}
    assert not repeated, sorted(repeated)


def test_logaddexp_guard_counts_the_innermost_function(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import numpy as np\n"
        "from numpy import logaddexp\n"
        "def step(s):\n"
        "    return float(np.logaddexp(0.0, s).sum())\n"
        "def loss(s):\n"
        "    def inner(t):\n"
        "        return logaddexp(0.0, t)\n"
        "    return inner(s)\n"
        "def reads(s):\n"
        "    return step(s)\n")
    assert logaddexp_callers(path) == ["inner", "step"]


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
