"""Smoke test: every narrative demo and the README's quick tour run to
completion against this checkout, with every Python warning turned into an
error; the package exports exactly the names it lists in ``__all__``."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gamedecomp

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demos_exist():
    assert DEMOS, "no demos found; the parametrized smoke test would run nothing"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    result = run_python(str(demo))
    assert result.returncode == 0, result.stderr


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    result = run_python("-c", block)
    assert result.returncode == 0, result.stderr


def test_package_binds_exactly_the_names_it_exports():
    public = {
        name for name, value in vars(gamedecomp).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(gamedecomp.__all__) == len(set(gamedecomp.__all__))
    assert set(gamedecomp.__all__) == public


def test_readme_lists_exactly_the_exported_names():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### What the package exports", 1)[1]
    listing = section.split("\n\n")[2]  # the bullet list after the one-line lead
    assert set(re.findall(r"`(\w+)`", listing)) == set(gamedecomp.__all__)
