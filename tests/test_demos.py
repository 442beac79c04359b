"""Every `python` block of README.md, the library walkthrough, runs to
completion against the installed package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aedetect

ROOT = Path(__file__).parents[1]
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.DOTALL | re.MULTILINE)


def run_python(args, cwd):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(aedetect.__file__).parents[1]))
    # a hung walkthrough fails instead of stalling the suite
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_demos_are_found():
    assert README_BLOCKS


@pytest.mark.parametrize("code", README_BLOCKS,
                         ids=[f"block{k}" for k in range(len(README_BLOCKS))])
def test_readme_python_block_exits_0(code, tmp_path):
    done = run_python(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
