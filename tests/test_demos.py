"""Every demo script and every `python` block of README.md runs to
completion against the installed package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aedetect

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.DOTALL | re.MULTILINE)


def run_python(args, cwd):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(aedetect.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_demos_are_found():
    assert DEMOS and README_BLOCKS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo, tmp_path):
    done = run_python([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("code", README_BLOCKS,
                         ids=[f"block{k}" for k in range(len(README_BLOCKS))])
def test_readme_python_block_exits_0(code, tmp_path):
    done = run_python(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
