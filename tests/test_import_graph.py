"""``import qmock`` loads the library layers and nothing else.

Every module that ``import qmock`` loads is compiled again by each
process that starts without a bytecode cache, so the CLI and the
verification battery stay out of the package root.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_qmock_loads_only_the_library_layers():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, qmock; print(' '.join(sorted(m for m in sys.modules if m.startswith('qmock'))))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.split() == [
        "qmock", "qmock.brackets", "qmock.forms", "qmock.mock",
        "qmock.moonshine", "qmock.qseries", "qmock.uplane",
    ]
