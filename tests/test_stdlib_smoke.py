"""Run the stdlib-only smoke script as CI does, but without ``site``: numpy,
sympy and pytest cannot be imported there, so an import from outside the
standard library anywhere in the runtime fails this test.  As in CI, dev mode
is on and a warning is an error, in the script and in the CLI runs it starts."""

import os
import subprocess
import sys
from pathlib import Path

import hierwave

SRC = os.path.dirname(os.path.dirname(hierwave.__file__))
SCRIPT = Path(__file__).with_name("stdlib_smoke.py")


def test_stdlib_smoke_script_passes_without_site():
    proc = subprocess.run([sys.executable, "-S", str(SCRIPT)], capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": SRC, "PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error"})
    assert proc.returncode == 0, proc.stdout + proc.stderr
