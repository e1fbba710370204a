"""The public examples run: every script in demos/ and the README's library quick start."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # finds this checkout's src
    run = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
