"""The experiment scripts in ``scripts/`` run end to end at tiny sizes, so an
API change that breaks them fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, extra",
    [("run_tradeoff.py", ["--kinds", "cb,pb"]), ("compare_losses.py", [])],
)
def test_script_exits_cleanly(script, extra, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         "--num-train", "60", "--num-test", "20", "--iterations", "20", *extra],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
