"""The benchmark harness's self-test, run against the library in this tree.

``perfbench`` traces library names (such as ``analytic.selection_coefficients``
and ``goodput.quad_checked``) by binding site, so a library refactor that
drops one breaks the benchmark; running its self-test here catches that.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "selftest ok" in proc.stdout
