"""The benchmark's per-layer tracer still finds every name it wraps, and
each shared mechanism is still used in one place only.

``perfbench/spans.py`` replaces driftmap functions by timing wrappers at
the module attributes where their callers look them up. Renaming or
dropping one of those attributes breaks ``perfbench/run.py --trace 1``
but no other test, so this installs the tracer on the module namespace
``run.py`` builds. It runs in a bytecode-free subprocess, so that the
check leaves no files under ``perfbench/``.
"""

import ast
import re
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


def test_every_unused_import_is_a_name_the_tracer_wraps():
    """An import kept only as a patch target (``noqa: F401``) must be one the
    tracer wraps; a shim kept for a test, or for nothing, fails here."""
    install = (ROOT / "perfbench" / "spans.py").read_text().split("\ndef install(", 1)[1]
    wrapped = set(re.findall(r"\w+", install))
    unwrapped = []
    for path in sorted((ROOT / "src" / "driftmap").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                names = (alias.asname or alias.name for alias in node.names)
                unwrapped += [f"{path.name}: {n}" for n in names if n not in wrapped]
    assert unwrapped == []


# mechanism -> (the module, and the top-level definition in it or None for any,
# that alone may use it): labels are factorized once, at ingest, and code rows
# are counted by one kernel
ONE_PATH = {"factorize": ("schema.py", None), "bincount": ("estimate.py", "window_counts")}


def test_labels_and_counts_each_have_one_path():
    strays = []
    for path in sorted((ROOT / "src" / "driftmap").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = getattr(top, "name", None)
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, ast.alias):
                    name = node.name
                home = ONE_PATH.get(name)
                if home and not (path.name == home[0] and home[1] in (None, where)):
                    strays.append(f"{path.name}:{node.lineno}: {name}")
    assert strays == []


def test_tables_have_one_writer():
    """Every table artifact is written by ``measures.table_csv`` or
    ``table_json``; a second row writer (``csv.DictWriter``, ``writerows``)
    fails here."""
    strays = []
    for path in sorted((ROOT / "src" / "driftmap").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.name if isinstance(node, ast.alias) else (
                getattr(node, "id", None) or getattr(node, "attr", None))
            if name in ("DictWriter", "writerows"):
                strays.append(f"{path.name}:{node.lineno}: {name}")
    assert strays == []


# numpy's matrix products hand a sum to the BLAS kernel, whose summation order
# depends on the CPU
MATRIX_PRODUCTS = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot"}


def test_measures_make_no_matrix_product():
    """Every float sum in ``measures.py`` runs strictly left to right, so
    recorded digests do not depend on the CPU; an ``@`` or a numpy matrix
    product there fails here."""
    path = ROOT / "src" / "driftmap" / "measures.py"
    strays = []
    for node in ast.walk(ast.parse(path.read_text())):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.alias):
            name = node.name
        if isinstance(getattr(node, "op", None), ast.MatMult) or name in MATRIX_PRODUCTS:
            strays.append(f"{path.name}:{node.lineno}: {name or '@'}")
    assert strays == []
