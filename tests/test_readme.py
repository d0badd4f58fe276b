"""README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README}:quick-start", "exec"), {})
