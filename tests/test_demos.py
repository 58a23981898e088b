"""Every script under demos/ runs to completion against the package, with
numpy alone: scipy cannot be imported where they run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# run in a fresh interpreter in which scipy cannot be imported: the demo
# at argv[1], as `python demo.py` would
RUN_WITHOUT_SCIPY = """
import runpy, sys
sys.modules["scipy"] = None
runpy.run_path(sys.argv[1], run_name="__main__")
"""


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", RUN_WITHOUT_SCIPY, str(demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
