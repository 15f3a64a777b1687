import os
import subprocess
import sys

import dyckperm

from .conftest import EXAMPLE14_TEXT

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_walk_example_default_path():
    src = os.path.dirname(os.path.dirname(dyckperm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "walk_example.py")],
                          capture_output=True, text=True, env=env, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "factor UUDUDUUUDDUDDD: slope halves ('L', 'L', 'R', 'R')" in lines
    assert lines[-1] == f"recovered path: {EXAMPLE14_TEXT}"
