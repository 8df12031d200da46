"""The package's public surface: every demo script runs to completion
against the source tree, and every exported name resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_all_exports_resolve():
    import mprobust

    missing = [name for name in mprobust.__all__ if not hasattr(mprobust, name)]
    assert missing == []
    assert len(set(mprobust.__all__)) == len(mprobust.__all__)
