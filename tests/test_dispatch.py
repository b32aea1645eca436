"""Output guard on numpy's baseline code paths: tests/test_golden.py run again
in a subprocess with every SIMD dispatch target this machine enables switched
off (NPY_DISABLE_CPU_FEATURES), so a result that depends on which vector
kernel numpy picks shows as a golden byte change."""

import os
import subprocess
import sys
from pathlib import Path

from numpy._core import _multiarray_umath as umath

HERE = Path(__file__).parent


def test_golden_outputs_hold_without_simd_dispatch(capsys):
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not targets:
        with capsys.disabled():
            print("\nno SIMD dispatch target is enabled on this machine, so the golden run compared nothing new")
        return
    script = (
        "import sys, pytest\n"
        "from numpy._core import _multiarray_umath as umath\n"
        f"assert not any(umath.__cpu_features__[t] for t in {targets!r}), 'dispatch targets still enabled'\n"
        f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', {str(HERE / 'test_golden.py')!r}]))\n"
    )
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=HERE.parent, env=env, capture_output=True, text=True, timeout=600
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert " passed" in run.stdout, run.stdout
