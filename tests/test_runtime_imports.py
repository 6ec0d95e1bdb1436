"""The runtime needs numpy only: sympy and scipy are oracles of the tests."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ORACLES = ("sympy", "scipy")
BLOCK = f"import sys\nfor name in {ORACLES!r}:\n    sys.modules[name] = None\n"
RUN_ALL = ("from pklab.cli import main_verify\n"
           "raise SystemExit(main_verify(['--suite', 'all', '--n', '2', '--samples', '4',"
           " '--seed', '7', '--out', {out!r}]))\n")


def _python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=600, env={**os.environ, "PYTHONPATH": path})


def test_cli_import_loads_neither_sympy_nor_scipy(tmp_path):
    proc = _python("import sys\nimport pklab.cli\n"
                   f"print(sorted(m for m in {ORACLES!r} if m in sys.modules))", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_all_runs_with_sympy_and_scipy_blocked(tmp_path):
    runs = {}
    for tag, prefix in (("blocked", BLOCK), ("plain", "")):
        out = tmp_path / f"{tag}.json"
        proc = _python(prefix + RUN_ALL.format(out=str(out)), tmp_path)
        assert proc.returncode in (0, 1), proc.stderr
        runs[tag] = (proc.returncode, out.read_bytes())
    assert runs["blocked"] == runs["plain"]
