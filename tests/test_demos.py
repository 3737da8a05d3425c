"""The demos and the README's library quick start run to completion against
the current API.  Demo 05, the drug-model pipeline, takes a few seconds."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py"))


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_quick_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo):
    proc = _run([str(ROOT / "demos" / demo)])
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    proc = _run(["-c", blocks[0]])
    assert proc.returncode == 0, proc.stderr[-2000:]
