"""The package and every demo run with networkx and numpy unavailable.

networkx and numpy are test dependencies only; each child process
blocks their import before anything else runs, so a runtime use of
either fails here.  Each demo prints the same under any string hashing.
"""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BLOCK = ('import sys; sys.modules["networkx"] = None; '
         'sys.modules["numpy"] = None; ')


DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_blocked(code, hash_seed=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run([sys.executable, "-c", BLOCK + code],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)


def test_import_without_networkx():
    result = _run_blocked("import closuretop")
    assert result.returncode == 0, result.stderr


def _run_demo(demo, hash_seed=None):
    return _run_blocked(
        f"import runpy; runpy.run_path({str(demo)!r}, run_name='__main__')",
        hash_seed)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_without_networkx(demo):
    result = _run_demo(demo)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_output_does_not_depend_on_string_hashing(demo):
    first, second = (_run_demo(demo, seed) for seed in ("1", "2"))
    assert first.returncode == second.returncode == 0, first.stderr
    assert first.stdout == second.stdout
