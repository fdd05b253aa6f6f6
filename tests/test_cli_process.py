"""qs in one process: the parser is built once, on first use, and unchanged by
reuse; a closed stdout ends the call with exit code 141 and no message."""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import quiver_schubert
from quiver_schubert.cli import main

# SHA-256 of `qs --help` ("") and of `qs <cmd> --help` for all 13
# subcommands at COLUMNS=80, taken from the parser that was rebuilt on
# every call.
HELP_DIGESTS = {
    "": "d04bc3c9430d0830b0ccc921b6811378b42481b185028f67a6a9c05aa02a3966",
    "validate": "7d055bfc229dd4bc73e42ef5ff08b092debb00f16426f0854e421ad23b296ddc",
    "winding": "631a9d4679bd11ee1b03492fe234fe4abb85531321087c839cac170142903ce0",
    "tree-ext": "993a656f877cf16b5b4e1aa8e6c057b56fdec1bb19ecfd1e61b3cf1ed79a6c26",
    "pushforward": "d261a5a56895130dec2904ae1ad3eb53b922174339b1b5f2fb903653ebcd9947",
    "cells": "8f86b7d497d38fc4aa7cd0e7c3fd78916479038aed15d33501c59cb52f881cea",
    "equations": "57eb89973f45110079eddd6166721f0684d99eee565b70b3ae3aa997cfa3d8d4",
    "hypothesis-h": "1671ac28aa726490beed89161e9e4e28507497d15999b566daa7c6dd57e672f1",
    "count": "9b4f8935291dc4618457374c2123a105498d69e60e0db2f6673c4fd48cb017fa",
    "poly": "cfc9e83f53a3f13dc6383f021a3a663352c3f56f8eb353c1a165c7e440003654",
    "euler": "f011bc5670fc48881136fe5daec0bb214d413b01cf76dbe5eff5e6daf8910db7",
    "poincare": "33390f1ee2c098f4cecdeda603c70816848b6f9538d6537b2930615985fdf2e6",
    "verify-affine": "9232f42d962d14e5f4a58297e2222d5e3e33d4e75ef3947f997b16aca69e5a36",
    "catalog": "d2794f87056e00f48579f274a532fc21d6d36b990b0f85a819ee1ccd7538be18",
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _child_env() -> dict:
    src = str(Path(quiver_schubert.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse lays out help differently from 3.13 on")
@pytest.mark.parametrize("cmd", sorted(HELP_DIGESTS))
def test_help_text_is_pinned(cmd, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run([cmd, "--help"] if cmd else ["--help"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[cmd]


def test_a_json_call_leaves_the_next_call_in_text():
    code, out, _ = run(["count", "--catalog", "two_lines", "--json", "--primes", "2"])
    assert code == 0 and json.loads(out)[0]["total"] == 5
    code, out, _ = run(["count", "--catalog", "two_lines"])
    assert code == 0
    assert [line for line in out.splitlines() if not line.startswith(" ")] == [
        "q=2: total 5", "q=3: total 7", "q=5: total 11",
    ]


def test_importing_the_cli_builds_no_parser():
    probe = "import quiver_schubert.cli as cli; print(cli._build_parser.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "0"


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: every write fails as a closed pipe does."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_141_without_a_message(monkeypatch):
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    with redirect_stderr(err):
        code = main(["equations", "--catalog", "ex_4_5_1"])
    assert (code, err.getvalue()) == (141, "")


def test_closed_stdout_pipe_exits_141_without_a_message():
    # The child waits on stdin until the read end of its stdout pipe is closed.
    script = (
        "import sys; sys.stdin.read(); from quiver_schubert.cli import main; "
        "sys.exit(main(['equations', '--catalog', 'ex_4_5_1']))"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script], env=_child_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    proc.stdin.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")
