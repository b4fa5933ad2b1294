"""The survey scripts run end to end at small bounds."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_genus_survey_matches_the_prediction():
    out = _run_script("genus_survey.py", "--nmax", "30")
    assert "MISMATCH" not in out
    assert len(out.splitlines()) > 1


def test_identity_convergence_sweep():
    out = _run_script("identity_convergence.py", "--w", "30", "--cutoff", "100")
    assert "prime cutoff = 100" in out
    # at w = 30 the d = 3 terms dominate; the Euler factors must keep them
    assert float(out.splitlines()[-1].split()[-1]) < 1e-4
