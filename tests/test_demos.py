"""The quick demos run to completion as standalone scripts."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["single_ring_gallery.py",
                                    "trace_fluctuations.py"])
def test_demo_runs(script):
    # the demos call the public estimators and solvers, and no other test
    # runs them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
