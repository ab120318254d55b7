"""The package and every demo run with networkx and numpy unavailable.

networkx and numpy are test dependencies only; each child process
blocks their import before anything else runs, so a runtime use of
either fails here.
"""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BLOCK = ('import sys; sys.modules["networkx"] = None; '
         'sys.modules["numpy"] = None; ')


def _run_blocked(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", BLOCK + code],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)


def test_import_without_networkx():
    result = _run_blocked("import closuretop")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.name)
def test_demo_runs_without_networkx(demo):
    result = _run_blocked(
        f"import runpy; runpy.run_path({str(demo)!r}, run_name='__main__')")
    assert result.returncode == 0, result.stderr
