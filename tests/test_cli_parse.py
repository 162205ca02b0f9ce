"""The CLI's two argument readers, and the output that only argparse writes.

``cli.parse_plain`` reads a well-formed call straight from
``cli.COMMANDS``; every other call (help, usage errors, abbreviated and
``--flag=value`` forms) goes to the argparse tree that
``cli.build_parser`` builds from the same table.  These tests hold the
two readers equal and pin the help and usage output byte for byte.
Re-record the pins only for an intended output change:

    PYTHONPATH=src python tests/test_cli_parse.py
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmock import cli
from test_cli_golden import sweep_calls

COMMAND_NAMES = ("coeffs", "invariant", "table", "column", "verify", "moonshine",
                 "reduce-z0")
HELP_CALLS = [["--help"], *([name, "--help"] for name in COMMAND_NAMES)]
USAGE_CALLS = [
    ["coeffs", "--series", "H", "--order", "-5"],  # negative --order
    ["tab"],  # unknown command
    [],  # no command
    ["coeffs"],  # missing required flag
    ["table", "--ma", "3"],  # abbreviated flag: argparse accepts it
    ["table", "--max=3"],  # --flag=value: argparse accepts it
    ["table", "--max", "-1"],
    ["table", "--max", "3", "extra"],
    ["verify", "--suite", "nope"],
    ["moonshine", "--format", "csv"],
]

# [exit code, SHA-256 of stdout, SHA-256 of stderr] of each call, recorded
# with argparse's formatter on Python 3.11 at an 80-column width.
PINS = {
    '--help': [0, 'e53e4bbcd70ad33fb8485ddd1205a1a108c31d4a492f9ee1629d4b05f9aeaa25', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'coeffs --help': [0, '5fe312884b5bb5def01970260ebf18cebf088930b371b3fe3ee06a92100137ae', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'invariant --help': [0, 'b9e3dc351510165474f776853ab3aa347f8f973a6c94fe0f5436bc75f64d49e1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'table --help': [0, 'ad0031ed8c2636fa34f9bc39e0c605137d3fd460facc7c5ada1fe7ec92a2a096', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'column --help': [0, 'd843a911bb8d19f330d3994282f7f82ba4c33a27f66a4c896343569adc9c8fd6', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'verify --help': [0, 'db21b3beb86ce7265f97bb2ece7b34a05c9b1348edd7d0b32fe12134f93160d7', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'moonshine --help': [0, '2452c286eb60e84688f954d913b364c2ff125b254aa87b8a45cc7027e021c14b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'reduce-z0 --help': [0, '8db304e7965570fb586b1f7a7f53787ceb52c1a4279d58b58f83e5700631cff1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'coeffs --series H --order -5': [2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '7260f45f5e0a38108bf1f0a0cf2654f98d62110ffbc1e70d7b30ff264198a66a'],
    'tab': [2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'b0b6dd63fa6806ba19c9d511d65bf20074c2519e070b879a7cf32c5989d5f157'],
    '': [2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '3d1c2d752998e888e5ce57ad59999bf48f1eca7b752784e421396aefd8daee46'],
    'coeffs': [2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '206765cbf866aabce452a6794b0b4bc54e094bb6610e72eec194d134751949d5'],
    'table --ma 3': [0, 'ab0ac808d4d87e60164fda624de11245024c7fc873c832acf4d9d3cabb957b93', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'table --max=3': [0, 'ab0ac808d4d87e60164fda624de11245024c7fc873c832acf4d9d3cabb957b93', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'table --max -1': [2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '448f71bfd6c359a5ca98cdd90cc430064e0784cc88ddfe6f49731e412575eb27'],
    'table --max 3 extra': [2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4edce2008a3d1694e23030255f01bad1dc4d91120b5a0bc72ba400f698f5559d'],
    'verify --suite nope': [2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a693a99daf7c949073ffff68c76c6e9d16acf909351355777de47c4e0083042e'],
    'moonshine --format csv': [2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '88bd025ab59322e80c0da753cb23292cff339243ad1af258fb21f36897665848'],
}


def pin(argv):
    """[exit code, SHA-256 of stdout, SHA-256 of stderr] of one in-process
    CLI call; a SystemExit counts by its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, *(hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))]


def call_id(argv):
    return " ".join(argv) or "(none)"


def record():
    os.environ["COLUMNS"] = "80"
    return {" ".join(argv): pin(argv) for argv in HELP_CALLS + USAGE_CALLS}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's help and error wording differ between Python versions")
@pytest.mark.parametrize("argv", HELP_CALLS + USAGE_CALLS, ids=call_id)
def test_help_and_usage_output_is_pinned(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert pin(argv) == PINS[" ".join(argv)]


def test_the_table_declares_every_command():
    assert tuple(cli.COMMANDS) == COMMAND_NAMES


def argparse_namespace(argv):
    """vars() of argparse's reading of ``argv``, or None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def test_plain_reader_equals_argparse_on_the_golden_sweep():
    for argv in sweep_calls():
        args = cli.parse_plain(argv)
        assert args is not None, argv
        assert vars(args) == argparse_namespace(argv), argv


@pytest.mark.parametrize("argv", [
    ["--help"], ["table", "-h"], ["table", "--help"], ["table", "--max=3"],
    ["table", "--ma", "3"], ["table", "--", "--max", "3"], ["table", "--max", "3", "--"],
    ["coeffs", "--series", "H", "--order", "-5"], ["moonshine", "--n", "-1"],
    ["coeffs"], ["table", "--max"], ["table", "--nope", "3"], ["table", "--max", "abc"],
    ["verify", "--suite", "nope"], ["moonshine", "--n", "2", "--format", "csv"],
    ["tab"], [], ["table", "extra"], ["table", "--format", "csv", "--max", "3", "4"],
], ids=call_id)
def test_plain_reader_leaves_every_other_form_to_argparse(argv):
    assert cli.parse_plain(argv) is None


def test_plain_reader_keeps_the_last_of_repeated_flags():
    argv = ["table", "--max", "3", "--format", "json", "--max", "5"]
    assert vars(cli.parse_plain(argv)) == argparse_namespace(argv)
    assert cli.parse_plain(argv).max == 5


FLAGS = sorted({flag for _, _, options in cli.COMMANDS.values() for flag in options})
VALUES = ["0", "3", "8", "-1", "abc", "", "json", "csv", "plain", "h", "both", "kernel",
          "all", "H", "eta"]
FORMS = ["--max=3", "--ma", "-h", "--help", "--"]
VOCABULARY = COMMAND_NAMES + tuple(FLAGS + VALUES + FORMS)


@st.composite
def near_plain_calls(draw):
    """A command, its required flags and a few more in any order, each but
    a store_true flag followed by a drawn value (one the flag accepts, a
    vocabulary value, or a flag or form); then, sometimes, one token
    dropped or one drawn from the whole vocabulary put in."""
    command = draw(st.sampled_from([*COMMAND_NAMES, "tab", "-h"]))
    options = cli.COMMANDS.get(command, (None, None, {}))[2]
    required = [flag for flag, spec in options.items() if spec.get("required")]
    any_flag = st.sampled_from(FLAGS + FORMS)
    extra = draw(st.lists(st.sampled_from([*options]) | any_flag if options else any_flag,
                          max_size=3))
    argv = [command]
    for flag in draw(st.permutations(required + extra)):
        argv.append(flag)
        spec = options.get(flag, {})
        if spec.get("action") != "store_true":
            accepted = spec.get("choices", ["0", "3"] if "type" in spec else ["H"])
            argv.append(draw(st.sampled_from(accepted)
                             | st.sampled_from([*accepted, *VALUES, *FLAGS, *FORMS])))
    edit = draw(st.sampled_from(["none", "none", "drop", "insert"]))
    at = draw(st.integers(0, len(argv)))
    if edit == "drop" and at < len(argv):
        del argv[at]
    elif edit == "insert":
        argv.insert(at, draw(st.sampled_from(VOCABULARY)))
    return argv


@settings(max_examples=400, deadline=None)
@given(near_plain_calls())
def test_plain_reader_never_accepts_what_argparse_reads_otherwise(argv):
    args = cli.parse_plain(argv)
    if args is not None:
        assert vars(args) == argparse_namespace(argv)


@pytest.fixture
def parsers_built(monkeypatch):
    """A list that grows by one for each ArgumentParser constructed."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_a_well_formed_call_constructs_no_parser(parsers_built, monkeypatch):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["table", "--max", "8"]) == 0
    monkeypatch.setattr(sys, "argv", ["qmock", "table", "--max", "8"])
    with contextlib.redirect_stdout(io.StringIO()) as out_from_sys_argv:
        assert cli.main() == 0
    assert out_from_sys_argv.getvalue() == out.getvalue()
    assert parsers_built == []


def test_a_usage_error_goes_to_argparse(parsers_built):
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        cli.main(["table", "--max", "-1"])
    assert exc.value.code == 2
    assert parsers_built


if __name__ == "__main__":
    for call, got in record().items():
        print(f"    {call!r}: {got!r},")
