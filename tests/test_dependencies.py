"""The package imports nothing beyond the standard library and its declared
dependencies (numpy, as pyproject.toml lists), the CLI starts without the
verification lab, the solver loads without the radius tracker, no module
of the package or its tests imports a name it never reads, and every name
the package defines at module level is read somewhere."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gevreymhd"


def test_every_import_is_stdlib_numpy_or_the_package():
    allowed = set(sys.stdlib_module_names) | {"numpy", "gevreymhd"}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        # ast.walk also reaches imports inside function bodies.
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update((path.name, a.name.split(".")[0])
                             for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert ("cli.py", "argparse") in found
    assert ("spectral.py", "concurrent") in found  # a function-local import
    assert sorted((f, m) for f, m in found if m not in allowed) == []


def test_cli_start_up_loads_neither_the_lab_nor_the_triads():
    # Only `verify` needs them, so every other command starts without them.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    code = ("import sys, gevreymhd.cli; print(sorted(m for m in sys.modules "
            "if m in ('gevreymhd.lab', 'gevreymhd.triads')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_solver_loads_no_radius_module():
    # `run` only steps and samples, so the radius constants cannot reach
    # the physics path.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    code = ("import sys, gevreymhd.solver; "
            "print('gevreymhd.radius' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_no_unused_imports():
    # A name counts as read where it appears as a name, as the base of an
    # attribute, or as a parameter name, which is how pytest hands a test
    # its fixtures; the package's __init__.py re-exports what it imports.
    tests = Path(__file__).resolve().parent
    unused = []
    for path in sorted([*SRC.glob("*.py"), *tests.glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported, read = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.arg):
                read.add(node.arg)
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported.items() if name not in read]
    assert unused == []


def test_no_dead_private_names():
    # Every module-level private name of the package (a def, a class or an
    # assignment) is read somewhere in it: as a loaded name, as an
    # attribute or as an imported alias.
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(f"{path.name}:{node.lineno}: {name}", name)
                        for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert defined
    assert [where for where, name in defined if name not in read] == []


def test_no_dead_public_names():
    # Every module-level public name of the package (a def, a class or an
    # assignment) is read somewhere other than its definition, in the
    # package, its tests, its tools or the benchmark: as a loaded name, as
    # an attribute, as an imported alias or as a string constant, which is
    # how the benchmark's tracer names the functions it wraps.
    root = SRC.parents[1]
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(f"{path.name}:{node.lineno}: {name}", name)
                        for name in names if not name.startswith("_")]
    for folder in ("src/gevreymhd", "tests", "tools", "perfbench"):
        for path in sorted((root / folder).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.name)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    read.add(node.value)
    assert len(defined) > 50
    assert [where for where, name in defined if name not in read] == []
