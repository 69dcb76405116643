"""Every demo script runs to completion against the canaudit these tests import:
the source tree, or the installed package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import canaudit

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _child_env() -> dict:
    # the directory that holds the imported package goes first on the child's path
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(canaudit.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    return env


def test_child_imports_the_same_canaudit():
    proc = subprocess.run(
        [sys.executable, "-c", "import canaudit; print(canaudit.__file__)"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(canaudit.__file__).resolve()


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=_child_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
