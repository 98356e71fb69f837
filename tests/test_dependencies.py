"""The package imports nothing beyond the standard library and its declared
dependencies (numpy, as pyproject.toml lists), the CLI starts without the
verification lab, the solver loads without the radius tracker, and no module
of the package or its tests imports a name it never reads."""

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
