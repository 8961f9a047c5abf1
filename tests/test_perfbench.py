"""The benchmark's own self-tests, run as its README says.

`perfbench/selftest.py` checks the ensemble generator, the output validator
and the tracer, whose summary assumes `engine.integrate`'s public callees.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
