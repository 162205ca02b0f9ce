"""``import qmock`` loads the library layers and nothing else.

Every module that ``import qmock`` loads is compiled again by each
process that starts without a bytecode cache, so the CLI and the
verification battery stay out of the package root.  The same holds for
the standard library: neither ``import qmock`` nor ``import qmock.cli``
loads ``dataclasses`` or the source-reading modules it pulls in
(``inspect``, ``ast``, ``dis``, ``tokenize``); the records are
``namedtuple`` subclasses instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HEAVY_STDLIB = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def run_python(code):
    """stdout of ``code`` run in a fresh interpreter that finds this checkout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout


def test_import_qmock_loads_only_the_library_layers():
    code = "import sys, qmock; print(' '.join(sorted(m for m in sys.modules if m.startswith('qmock'))))"
    assert run_python(code).split() == [
        "qmock", "qmock.brackets", "qmock.forms", "qmock.mock",
        "qmock.moonshine", "qmock.qseries", "qmock.uplane",
    ]


@pytest.mark.parametrize("module", ["qmock", "qmock.cli"])
def test_import_adds_no_source_reading_stdlib_module(module):
    code = (
        "import sys; before = set(sys.modules); import " + module + "; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    added = set(run_python(code).split())
    assert module in added
    assert added.isdisjoint(HEAVY_STDLIB), sorted(added & set(HEAVY_STDLIB))

