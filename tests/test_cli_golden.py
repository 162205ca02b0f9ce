"""A fixed in-process sweep of the CLI against recorded stdout digests.

The CLI's stdout is meant to stay byte-identical across refactors, so
each call's SHA-256 of stdout and its exit code are pinned in
``cli_golden.json``.  Re-record only for an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from qmock.cli import main
from qmock.forms import NAMED_FORMS
from qmock.mock import NAMED_MOCKS
from qmock.verify import SUITES

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("json", "csv", "plain")
PAIRS = ((0, 0), (1, 1), (2, 0), (0, 3), (3, 1), (2, 4))


def sweep_calls():
    """The argv lists of the sweep, in a fixed order."""
    calls = []
    for name in sorted({**NAMED_FORMS, **NAMED_MOCKS}):
        for order in (0, 1, 3, 16, 64):
            for fmt in FORMATS:
                calls.append(["coeffs", "--series", name, "--order", str(order),
                              "--format", fmt])
    for degree in (0, 4, 8, 12, 16):
        for fmt in FORMATS:
            calls.append(["table", "--max", str(degree), "--format", fmt])
    for suite in sorted(SUITES):
        calls.append(["verify", "--suite", suite])
    for m, n in PAIRS:
        calls.append(["invariant", "--m", str(m), "--n", str(n)])
        calls.append(["column", "--m", str(m), "--n", str(n)])
    for k in range(5):
        calls.append(["reduce-z0", "--k", str(k)])
    for n in range(1, 9):
        calls.append(["moonshine", "--n", str(n)])
    # every format of every command that has one
    for m, n in PAIRS:
        for via in ("qplus", "h", "both"):
            for fmt in FORMATS:
                calls.append(["invariant", "--m", str(m), "--n", str(n),
                              "--via", via, "--format", fmt])
        for k_max in ([], ["--k-max", "0"]):
            for fmt in FORMATS:
                calls.append(["column", "--m", str(m), "--n", str(n), *k_max,
                              "--format", fmt])
    for k in range(5):
        for fmt in FORMATS:
            calls.append(["reduce-z0", "--k", str(k), "--format", fmt])
    for n in (1, 3, 6):
        for flags in ([], ["--cap", "1"], ["--cap", "1", "--distinct", "--max-witnesses", "2"]):
            for fmt in ("json", "plain"):
                calls.append(["moonshine", "--n", str(n), *flags, "--format", fmt])
    # bounded counts past cap 1, and a target above cap * sum of the dimensions
    calls.append(["moonshine", "--n", "7", "--cap", "2", "--format", "json"])
    calls.append(["moonshine", "--n", "8", "--cap", "2", "--max-witnesses", "2", "--format", "plain"])
    calls.append(["moonshine", "--n", "40", "--cap", "3"])
    return calls


def run_call(argv):
    """[exit code, SHA-256 of stdout] of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def record():
    return {" ".join(argv): run_call(argv) for argv in sweep_calls()}


def test_cli_stdout_matches_golden_sweep():
    golden = json.loads(GOLDEN.read_text())
    got = record()
    assert list(got) == list(golden)
    changed = [call for call in golden if got[call] != golden[call]]
    assert not changed, f"{len(changed)} calls changed, first: {changed[:5]}"


if __name__ == "__main__":
    lines = [f"{json.dumps(call)}: {json.dumps(pin)}" for call, pin in record().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
