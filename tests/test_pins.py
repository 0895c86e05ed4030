"""The pins of tools/pins.py, with numpy's AVX-512 dispatch on and off, each
in a fresh process as the numpy-only CI job runs them."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import meanlab

PINS = Path(__file__).resolve().parents[1] / "tools" / "pins.py"
# numpy 2.4's x86 dispatch targets above AVX2, as numpy._core._multiarray_umath
# lists them in __cpu_dispatch__; disabling only the AVX512F... feature names
# leaves X86_V4 on, and exp still differs from libm
AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.parametrize("features", ["", AVX512_OFF], ids=["dispatch-on", "avx512-off"])
def test_pins_hold(features):
    src = str(Path(meanlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": features, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, str(PINS)], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "pins: all hold\n"), proc.stderr
