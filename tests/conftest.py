"""Shared fixtures for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gma


def _child_env():
    """A copy of os.environ whose PYTHONPATH starts with the gma under test.

    The first entry is the directory that holds the imported ``gma``
    package, so a child interpreter runs the same code as this session
    whether it came from ``src/`` or from an install. Existing entries
    follow, made absolute, so a relative ``PYTHONPATH=src`` still means
    the same directory when the child starts in another one.
    """
    root = str(Path(gma.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    entries = [root]
    if inherited:
        entries += [os.path.abspath(entry) for entry in inherited.split(os.pathsep)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(entries)
    return env


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports the gma under test."""
    return _child_env()


@pytest.fixture
def run_gma_cli():
    """Run ``python -m gma.cli ARGV`` in a child interpreter.

    Returns a function ``run(argv, cwd=None)`` giving the finished
    ``subprocess.CompletedProcess`` with text stdout and stderr.
    """
    env = _child_env()

    def run(argv, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "gma.cli", *argv],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            check=False,
        )

    return run
