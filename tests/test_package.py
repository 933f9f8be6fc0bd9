"""The package surface: an empty root, and the README's library example."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_root_loads_no_submodule_and_exports_no_name():
    # each name has one import path, its module's
    probe = "\n".join([
        "import sys, hyperquot",
        "print(sorted(m for m in sys.modules if m.startswith('hyperquot.')))",
        "print(sorted(n for n in vars(hyperquot) if not n.startswith('__')))",
    ])
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split("\n") == ["[]", "[]", ""]


def test_readme_library_example_runs():
    # the first python block under "## Library", so its import paths cannot drift
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines()[0] == "1 + L + L^2 + L^3"
