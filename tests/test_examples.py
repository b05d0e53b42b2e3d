"""The shipped examples are the library's user entry points: each one runs
to completion in a fresh interpreter (``PYTHONPATH=src``, its own empty
compilation cache) and exits 0.  Their own asserts check the answers."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ["custom_format", "fem_cg", "pagerank", "quickstart",
            "triangular_solve_jad"]


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    script = ROOT / "examples" / f"{name}.py"
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
