"""Module boundaries: no gma module imports another module's private names,
and the solver loads without scipy."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import gma


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(Path(gma.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}:{node.lineno} from {'.' * node.level}{node.module or ''} "
                    f"import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not offenders, "private names imported across modules:\n" + "\n".join(offenders)


def test_solver_imports_without_scipy_sparse(child_env):
    code = "import sys, gma.solver; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert "scipy.sparse" not in done.stdout, done.stdout
