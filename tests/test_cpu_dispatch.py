"""Verdicts that do not move with numpy's AVX-512 dispatch.

Under its AVX-512 dispatch targets numpy's exp, log, sinh and cosh return
other last bits than libm, so a host with AVX-512 and one without can print
different residuals. The eight checks of the benchmark's ``ladder`` workload
run here in-process and again in a subprocess with those targets disabled:
each row's ``holds`` and each report's ``failing`` list must agree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import meanlab
from meanlab import equality as eq
from meanlab import expr as ex
from meanlab.measures import preset_measure

# numpy 2.4's x86 dispatch targets above AVX2, as numpy._core._multiarray_umath
# lists them in __cpu_dispatch__; disabling only the AVX512F... feature names
# leaves X86_V4 on, and exp still differs from libm
AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"

INTERVAL = (-0.7, 0.7)


def ladder_verdicts() -> list:
    """For each ladder check, the (id, holds) of its rows and its failing list."""
    out = []
    linear = ex.validate_pair("x", "1", INTERVAL)
    for measure in ("ebm", "lebesgue"):
        for grid in (50, 100):
            for f, g in (("sin(x)", "cos(x)"), ("exp(x)", "1")):
                pair = ex.validate_pair(f, g, INTERVAL)
                rep = eq.check_equality(pair, linear, preset_measure(measure), grid)
                rows = [[a.assertion_id, a.holds] for a in rep.assertions]
                out.append({"rows": rows, "failing": list(rep.failing)})
    return out


def test_ladder_verdicts_do_not_depend_on_avx512_dispatch():
    src = Path(meanlab.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(src)!r}, {str(tests)!r}]\n"
        "from test_cpu_dispatch import ladder_verdicts\n"
        "print(json.dumps(ladder_verdicts()))\n"
    )
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": AVX512_OFF}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    off = json.loads(proc.stdout)
    on = ladder_verdicts()
    assert len(on) == 8
    assert off == on
