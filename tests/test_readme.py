"""The README's library quick start runs as written, in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import harmdist

ROOT = Path(__file__).resolve().parent.parent
# The same pattern picks the block out in CI's run without extras.
QUICK_START = re.compile(r"## Library quick start\n+```python\n(.*?)```", re.S)


def test_the_readme_quick_start_runs(tmp_path):
    block = QUICK_START.search((ROOT / "README.md").read_text()).group(1)
    env = dict(os.environ, PYTHONPATH=str(Path(harmdist.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-c", block], env=env, cwd=tmp_path,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.splitlines()) == 7  # one line per print
