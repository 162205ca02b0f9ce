"""Deep-order expansions against recorded stdout digests.

``tests/cli_golden.json`` stops near order 64 (264 for the benchmark's
digests); these pins reach the deep quotients: H(tau) through mu / theta_1
at orders 1024 and 2048, and Z0hat, Theta3 (an eta quotient with
negative exponents) and mu(tau/2) at order 512.  Each digest is the
SHA-256 of the stdout of ``qmock coeffs --series NAME --order N
--format json``.

The golden sweep's tables stop at ``--max 16``; the deep table pins take
the Phi table to total degree 32 and 48, where every working order of
both routes is deepest.  Each is the SHA-256 of the stdout of
``qmock table --max D --format json``.
"""

import contextlib
import hashlib
import io

import pytest

from qmock.cli import main

DEEP_DIGESTS = {
    ("H", 1024): "8e6796f1766dda152e15aa3bd1707845c26b256076c75b762e830dea36dd282c",
    ("H", 2048): "1f8567e82bdb89255a9792355f8750de7e1ec5d75f4463cd4cc63295c1d1395a",
    ("Z0hat", 512): "7844f98a9a2b2da35b9db93a109dfa32a1454e06b947ca516de54d1e1b630d4b",
    ("Theta3", 512): "fdad118fa5e9d1f3720d6b096e6e3b842c14574378368ec56cdbfa25b0f17100",
    ("mu:tauhalf", 512): "0bdb54d14b62fb89b664534168c2216f037c1324d2e8ae195423bc661f86a670",
}

DEEP_TABLE_DIGESTS = {
    32: "bd716caa8623e76f456df723b5b986398bf8a8079c46c1e46da99be7347727d4",
    48: "7c297dd0395ff56e4f5ae8411793bcf9f50d3b75543f841744ff8b408cef7d9d",
}


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name, order", sorted(DEEP_DIGESTS))
def test_deep_expansion_matches_recorded_digest(name, order):
    argv = ["coeffs", "--series", name, "--order", str(order), "--format", "json"]
    assert run_cli(argv) == (0, DEEP_DIGESTS[name, order])


@pytest.mark.parametrize("degree", sorted(DEEP_TABLE_DIGESTS))
def test_deep_table_matches_recorded_digest(degree):
    argv = ["table", "--max", str(degree), "--format", "json"]
    assert run_cli(argv) == (0, DEEP_TABLE_DIGESTS[degree])
