import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import purgelab

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(purgelab.__file__).resolve().parents[1])
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(purgelab.__path__) if m.name != "__main__")


def test_readme_library_snippet_runs(capsys):
    # The "Library use" section documents the library surface with one python
    # block; it must keep running as written.
    [snippet] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(snippet, str(README), "exec"), {"__name__": "readme"})
    assert "f1=" in capsys.readouterr().out


def test_the_package_root_re_exports_nothing():
    # The submodules are the library surface: every name has one import path,
    # the module that defines it, so the root's only public attributes are
    # the submodules the import system binds on it.
    strays = [
        name for name, value in vars(purgelab).items()
        if not name.startswith("_") and not (isinstance(value, types.ModuleType) and value.__name__ == f"purgelab.{name}")
    ]
    assert strays == []


@pytest.mark.parametrize(
    "argv",
    [["-c", f"import purgelab.{m}"] for m in SUBMODULES] + [["-m", "purgelab", "--help"]],
    ids=[*SUBMODULES, "main-help"],
)
def test_each_submodule_imports_on_its_own(tmp_path, argv):
    # A fresh process per module, so no earlier import can hide a cycle or a
    # warning raised at import time.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
