"""Property: no argv drawn from the qs grammar ends in a traceback.

Argv is a subcommand, an optional catalog spec with parameters up to 3
(junk included), and optional --primes, --beta and --dim-vector lists
of junk tokens.  Every run must end with exit code 0, 1, 2 or 3; argparse
usage errors exit 2 through SystemExit.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from quiver_schubert.cli import main

SUBCOMMANDS = [
    "validate", "winding", "tree-ext", "pushforward", "cells", "equations", "hypothesis-h",
    "count", "poly", "euler", "poincare", "verify-affine", "catalog",
]
_n = st.integers(-1, 3).map(str)
SPECS = st.one_of(
    st.sampled_from(["two_lines", "ex_4_5_1", "ex_4_5_2", "ex_4_5_5", "nope", "flag(2;)", "one_loop(2)", ""]),
    st.builds("one_vertex({})".format, _n),
    st.builds("flag({};{})".format, _n, _n),
    st.builds("one_loop({},{})".format, _n, _n),
    st.builds("kronecker_regular({},{})".format, _n, _n),
    st.builds("kronecker_preprojective({})".format, _n),
    st.builds("kronecker_preinjective({})".format, _n),
    st.builds("degenerate_flag({})".format, _n),
    st.builds("degenerate_flag_pi({})".format, _n),
    st.builds("forest_block({},{})".format, _n, _n),
)


def _token_list(tokens):
    return st.lists(st.sampled_from(tokens), min_size=1, max_size=4).map(",".join)


PRIMES = _token_list(["0", "1", "4", "-3", "2", "2", "3", "5", "x", ""])
JUNK = _token_list(["0", "1", "2", "3", "-1", "4", "b1", "b2", "b3", "zz", ""])


@st.composite
def argvs(draw):
    argv = [draw(st.sampled_from(SUBCOMMANDS))]
    for flag, values in (("--catalog", SPECS), ("--primes", PRIMES), ("--beta", JUNK), ("--dim-vector", JUNK)):
        value = draw(st.none() | values)
        if value is not None:
            argv += [flag, value]
    if draw(st.booleans()):
        argv.append("--json")
    return argv + ["--budget", "200"]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(argvs())
def _exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()


def test_cli_exits_cleanly_on_grammar_inputs(tmp_path):
    # Hypothesis caches source constants under its home directory; keep it out of the tree.
    set_hypothesis_home_dir(tmp_path)
    try:
        _exits_cleanly()
    finally:
        set_hypothesis_home_dir(None)
