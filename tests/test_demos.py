"""The quick demos run to completion against the package's current API.

Each demo runs in its own interpreter, as a reader would run it, with every
warning an error, and must write nothing to stderr.  Demo 05
(desk training, about 20 s) is left out: acceptance criterion 8 runs the
same training.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-4]_*.py"))


def test_quick_demos_found():
    assert len(QUICK_DEMOS) == 4


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    run = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stderr == ""
