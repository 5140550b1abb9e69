"""The README's Quick start, run as written.  It needs numpy alone, so it
also runs as a script: `python tests/test_readme.py`."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The fenced python block under `## Quick start`."""
    section = README.read_text().split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_quick_start_runs():
    exec(compile(quick_start(), f"{README.name}: Quick start", "exec"), {})


if __name__ == "__main__":
    test_quick_start_runs()
