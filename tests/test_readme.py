"""The README's code examples run as documented."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_readme_python_blocks_run():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for block in blocks:
        result = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, (block, result.stderr)
