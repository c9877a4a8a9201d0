"""The README's code runs as it is printed there."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _code_block(heading):
    """The first ```python block under the `## heading` of README.md."""
    text = (ROOT / "README.md").read_text()
    section = text.split(f"## {heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_library_example_prints_what_its_comments_say():
    proc = subprocess.run(
        [sys.executable, "-c", _code_block("Library example")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[Fraction(1, 16)]", "0.1875"]
