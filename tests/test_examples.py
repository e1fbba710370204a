"""The public examples run with numpy unimportable: every script in demos/, which prints the
bytes of its tests/golden/demo-<stem>.golden, and the README's library quick start."""

import pathlib
import re
import subprocess
import sys

import pytest

from without_package import env_without

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"


def run_without_numpy(argv, tmp_path):
    """The stdout bytes of a Python run with argv, which must exit 0."""
    run = subprocess.run([sys.executable, *argv], env=env_without("numpy", tmp_path),
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:].decode(errors="replace")
    return run.stdout


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script, tmp_path):
    golden = GOLDEN / f"demo-{script.stem}.golden"
    assert run_without_numpy([str(script)], tmp_path) == golden.read_bytes()


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    run_without_numpy(["-c", block], tmp_path)
