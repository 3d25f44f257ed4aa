"""Import-time contracts: scipy loads only inside the functions that use it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_import_leaves_scipy_unloaded(module):
    # A fresh interpreter: this test process has long since imported scipy.
    code = f"import sys, {module}; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert proc.stdout.strip() == "False"
