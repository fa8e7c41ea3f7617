"""The README's library example runs against the current API."""

from __future__ import annotations

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_prints_its_comments():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue() == "-2\n-2\n"
