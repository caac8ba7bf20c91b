"""Demos 01-03 run to completion against this tree's src/.

Each runs as its own process, as a reader would run it. Together they take
about 3 s on a 2-core machine. 04_robustness_and_steps.py is left out: it
trains for 11-19 s there.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", ["01_diffusion_basics.py", "02_synthetic_data.py",
                                  "03_train_and_evaluate.py"])
def test_demo_runs(name, tmp_path):
    path = [os.path.join(ROOT, "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
