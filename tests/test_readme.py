"""The README's library quickstart runs and prints what its comment shows."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_prints_its_comment(capsys):
    section = README.read_text().split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    shown = re.search(r"print\(winner\.estimate\) +# (.+)", code).group(1)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.strip()
    # "..." in the comment stands for any run of characters
    assert re.fullmatch(".*".join(map(re.escape, shown.split("..."))), printed), (
        printed,
        shown,
    )
