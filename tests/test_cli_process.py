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
# subcommands at COLUMNS=80.  The top-level digest was taken from the
# parser that was rebuilt on every call; the subcommand digests from a
# parser built fresh in a new process, after each subcommand was given
# only the flags it reads.
HELP_DIGESTS = {
    "": "d04bc3c9430d0830b0ccc921b6811378b42481b185028f67a6a9c05aa02a3966",
    "validate": "0b4e1cb6b687d62506a1e057c3369b3d79dc5b0e23cd1d69f31a3fa747835355",
    "winding": "d2ea98a29f8c976789c426e3763603218051ad8779b3cf2127aa4232d029eae6",
    "tree-ext": "cfbc993e2701b9ee8572bcfe6741353ab7c0199a530dcf6dc7e124b8e64bd82e",
    "pushforward": "436e7def7d8e9009161f6e6049498d196f91ac049b87abc918849f4407c80b0e",
    "cells": "3c306dcb89c514470ca9bda58caaed9018b37ff286173747a4934cc38b0bb3cf",
    "equations": "ad39d7f1fba2e4a534ed4afcf703f222caa4069192fe283dda662b42be3dbd92",
    "hypothesis-h": "03c4f9d78f4f897f9f2c4f9c8dc355f708fd863ba451fc60c0c397f0ba97bb9f",
    "count": "1aff51091df1673fe8c500033b096a412a4106db6d4bfd5e67031e2ac871af11",
    "poly": "27da35bc325bb327ca2ceec36b000549fc7eb5d2acc609c6f13e006e8b30cf02",
    "euler": "61a39386a899518eab1b1f564efba585d07cd0334fc70506580a1c470b67f169",
    "poincare": "911db26ce150fc9940f83462d08def828504e43e050843f038e1206b5ff2b83a",
    "verify-affine": "09baf63794d14e3aff554f13bcd90187307e97cdfe6121aa78404d4b90eccd9d",
    "catalog": "8e4bf48e9228931c3104751f418f99fad82a37bea48d8569a7ef7bd086c17702",
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
