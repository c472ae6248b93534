"""The package, its tests, the benchmark and the scripts compile on the
oldest Python that ``pyproject.toml`` promises (``requires-python``).

Only that interpreter's own compiler holds the code to its grammar:
``ast.parse(..., feature_version=(3, 10))`` accepts ``x[*a]``, which
Python 3.10 rejects.  The interpreter is ``pythonX.Y`` on PATH, else one
installed beside this interpreter's installation (as pyenv lays versions
out); the test skips only when none runs.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(
    int(x)
    for x in re.search(
        r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()
    ).groups()
)

# prints each file named on the command line that does not compile
COMPILE = """
import sys
for path in sys.argv[1:]:
    try:
        compile(open(path, encoding="utf-8").read(), path, "exec")
    except SyntaxError as exc:
        print(f"{path}:{exc.lineno}: {exc.msg}")
"""


def floor_python():
    name = "python%d.%d" % FLOOR
    beside = sorted(Path(sys.base_prefix).parent.glob(f"*/bin/{name}"))
    for candidate in filter(None, [shutil.which(name), *beside]):
        check = [str(candidate), "-c", f"import sys; sys.exit(sys.version_info[:2] != {FLOOR})"]
        try:
            if subprocess.run(check, capture_output=True, timeout=60).returncode == 0:
                return str(candidate)
        except (OSError, subprocess.TimeoutExpired):
            continue
    pytest.skip(f"no working {name} found")


def compile_errors(python, paths):
    argv = [python, "-I", "-c", COMPILE, *map(str, paths)]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True).stdout


def test_sources_compile_on_oldest_supported_python(tmp_path):
    python = floor_python()
    planted = tmp_path / "planted.py"
    planted.write_text("x, a = {}, (1, 2)\ny = x[*a]\n")
    assert "planted.py:2:" in compile_errors(python, [planted])
    sources = sorted(p for d in ("src", "tests", "bench", "scripts") for p in (ROOT / d).rglob("*.py"))
    assert len(sources) > 20
    assert compile_errors(python, sources) == ""
