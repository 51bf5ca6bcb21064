"""Smoke test: every demo, and the README's Quickstart, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _quickstart() -> str:
    """The ``python`` block of the README's Quickstart section."""
    section = (ROOT / "README.md").read_text().split("\n## Quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


@pytest.mark.parametrize("demo", [*sorted(p.name for p in (ROOT / "demos").glob("*.py")),
                                  "README.md"])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # the run demo writes its trajectory CSVs to the directory it is given
    argv = (["-c", _quickstart()] if demo == "README.md"
            else [str(ROOT / "demos" / demo), str(tmp_path)])
    done = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
