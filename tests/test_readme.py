import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs(capsys):
    # The "Library use" section documents the library surface with one python
    # block; it must keep running as written.
    [snippet] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(snippet, str(README), "exec"), {"__name__": "readme"})
    assert "f1=" in capsys.readouterr().out
