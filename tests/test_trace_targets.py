"""The benchmark's per-layer tracer still finds every name it wraps.

``perfbench/spans.py`` replaces driftmap functions by timing wrappers at
the module attributes where their callers look them up. Renaming or
dropping one of those attributes breaks ``perfbench/run.py --trace 1``
but no other test, so this installs the tracer on the module namespace
``run.py`` builds. It runs in a bytecode-free subprocess, so that the
check leaves no files under ``perfbench/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import run
import spans
dm, _ = run.load_program()
spans.install(spans.Tracer(), dm)
"""


def test_tracer_installs_on_every_layer():
    code = INSTALL.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-B", "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
