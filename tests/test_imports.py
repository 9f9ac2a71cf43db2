"""Module boundaries: no gma module imports another module's private names,
and no gma module loads scipy."""

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


def test_package_imports_without_scipy(child_env):
    code = (
        "import sys, gma.cli, gma.gridio, gma.kernel, gma.psh, gma.schemas, gma.solver, gma.toric; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]", done.stdout
