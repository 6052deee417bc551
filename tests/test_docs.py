"""The README's code examples run as written."""

import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def _python_block(heading: str) -> str:
    section = README.read_text().split(f"## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    exec(compile(_python_block("Library use"), "README.md", "exec"), {})
    cycles = capsys.readouterr().out.strip()
    assert int(cycles) > 0
