"""Module boundaries: no gma module imports another module's private names,
no gma module loads scipy or jsonschema, every public name is listed where it is defined,
every public name is run by gma or gated by the acceptance tests, and the
benchmark tracer still finds every entry point it wraps by name."""

from __future__ import annotations

import ast
import importlib
import inspect
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import gma
import gma.solver
from gma.kernel import CoefficientSet


def _private_cross_module_uses(source):
    """`from .x import _y`, `from gma.x import _y` and `x._y` for a gma module x."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "gma"):
            found += [
                f"{node.lineno}: import {a.name}" for a in node.names if a.name.startswith("_")
            ]
            if node.module is None or node.module == "gma":
                modules |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or "gma" for a in node.names if a.name.split(".")[0] == "gma"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.endswith("__")):
            owner = node.value
            while isinstance(owner, ast.Attribute):
                owner = owner.value
            if isinstance(owner, ast.Name) and owner.id in modules:
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_private_cross_module_imports():
    # the scan itself: private names are caught by either import form and
    # through a module attribute; dunders and public names are not
    probe = (
        "from . import kernel\nimport gma.solver as s\nfrom .psh import _torus_kernel\n"
        "kernel._as_profile\ns._eigvals\nkernel.__all__\nkernel.margin_field\n"
        "from gma.toric import _hull\n"
    )
    assert _private_cross_module_uses(probe) == [
        "3: import _torus_kernel", "8: import _hull", "4: kernel._as_profile", "5: s._eigvals"
    ]
    offenders = [
        f"{path.name}:{use}"
        for path in sorted(Path(gma.__file__).resolve().parent.glob("*.py"))
        for use in _private_cross_module_uses(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, "private names used across modules:\n" + "\n".join(offenders)


def test_lines_fit_in_100_characters():
    root = Path(__file__).resolve().parents[1]
    long_lines = [
        f"{path.relative_to(root)}:{number}: {len(line)}"
        for path in sorted([*(root / "src" / "gma").glob("*.py"), *(root / "tests").glob("*.py")])
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert not long_lines, "lines over 100 characters:\n" + "\n".join(long_lines)


def test_public_names_resolve():
    # the bench tracer getattr()s every __all__ entry, so a stale one breaks it
    for name in ("kernel", "solver", "psh", "toric"):
        module = importlib.import_module(f"gma.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
        defined = {
            n for n, obj in inspect.getmembers(module)
            if (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__ and not n.startswith("_")
        }
        assert sorted(defined - set(module.__all__)) == [], name


def _names_read(source):
    """Names a module's code reads, as a name or an attribute; a top-level
    definition's uses of its own name do not count."""
    found = set()
    for statement in ast.parse(source).body:
        own = getattr(statement, "name", None)
        for node in ast.walk(statement):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                found.add(name)
    return found


def test_every_public_name_is_run_or_gated():
    # a test-only routine belongs in a tests/*_oracle.py module, not in gma
    root = Path(__file__).resolve().parents[1]
    read = set().union(*(_names_read(path.read_text(encoding="utf-8"))
                         for path in (root / "src" / "gma").glob("*.py")))
    gate = ast.parse((root / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    modules = [f"gma.{name}" for name in ("kernel", "solver", "psh", "toric")]
    gated = {alias.name for node in ast.walk(gate)
             if isinstance(node, ast.ImportFrom) and node.module in modules
             for alias in node.names}
    assert _names_read("def f():\n    f()\n\ndef g():\n    h.f\n") == {"f", "h"}
    unused = [f"{module}.{name}" for module in modules
              for name in importlib.import_module(module).__all__
              if name not in read | gated]
    assert unused == []


def test_package_imports_without_scipy(child_env):
    code = (
        "import sys, gma.cli, gma.gridio, gma.kernel, gma.psh, gma.schemas, gma.solver, gma.toric; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]", done.stdout


def test_package_imports_without_jsonschema(child_env):
    # configs are validated in-repo; jsonschema is a test oracle only
    code = (
        "import sys, gma.cli, gma.kernel, gma.psh, gma.solver, gma.toric; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]", done.stdout


def test_bench_tracer_installs(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    solver = gma.solver
    geom = solver.TorusGeometry(2, (16, 16), np.eye(2), 1.2 * np.eye(2))
    coeffs = CoefficientSet(2, (0.5,))
    phi_star = solver.trig_polynomial(
        geom.grid_shape, 0.0, [{"amplitude": 0.3 / (4.0 * math.pi**2), "wave": (1, 0)}]
    )
    original = solver.continuity_solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        case = solver.manufacture(geom, coeffs, phi_star)
        solver.continuity_solve(geom, coeffs, case.f_grid)
    finally:
        tracer.uninstall()
    assert solver.continuity_solve is original
    names = {span.name for span in tracer.take()}
    assert {"solver.manufacture", "solver.continuity_solve", "solver.newton_solve"} <= names
