"""Property: no argv drawn from the qs grammar ends in a traceback.

Argv is a subcommand, an optional catalog spec with parameters up to 3
(junk included), and optional --primes, --beta and --dim-vector lists
of junk tokens; only the flags that the drawn subcommand takes are drawn,
so the draws reach its handler.  Every run must return exit code 0, 1, 2
or 3, usage errors included.  A second property adds --order, --subquiver
and the JSON file inputs, and checks after every example that a fixed
argv still prints what it printed first: the parser is shared by every
call in a process, so no call may leave state behind for the next.
"""

import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from quiver_schubert.catalog import catalog
from quiver_schubert.cli import _build_parser, main
from quiver_schubert.quiver import quiver_to_json
from quiver_schubert.representation import representation_to_json

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


def _flags_of(command) -> set:
    """The option strings that the parser of `qs command` takes."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for action in sub.choices[command]._actions for flag in action.option_strings}


@st.composite
def argvs(draw, extra=()):
    """A subcommand and some of the flags it takes; --budget 200 wherever it is taken."""
    command = draw(st.sampled_from(SUBCOMMANDS))
    takes = _flags_of(command)
    argv = [command]
    grammar = (("--catalog", SPECS), ("--primes", PRIMES), ("--beta", JUNK), ("--dim-vector", JUNK)) + extra
    for flag, values in grammar:
        value = draw(st.none() | values) if flag in takes else None
        if value is not None:
            argv += [flag, value]
    if draw(st.booleans()):
        argv.append("--json")
    return argv + (["--budget", "200"] if "--budget" in takes else [])


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(argvs())
def _exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()


def test_cli_exits_cleanly_on_grammar_inputs(tmp_path):
    # Hypothesis caches source constants under its home directory; keep it out of the tree.
    set_hypothesis_home_dir(tmp_path)
    try:
        _exits_cleanly()
    finally:
        set_hypothesis_home_dir(None)


# The same grammar plus --order, --subquiver and the four file inputs.  Each
# file flag points at a missing, a malformed or a valid JSON file; the valid
# ones describe the winding of ex_4_5_1 (upstairs module, its quiver, the
# winding and the quiver downstairs).
ORDERS = st.one_of(
    st.permutations(["1", "2", "3", "4"]).map(",".join),
    st.permutations(["b1", "b2", "b3", "b4"]).map(",".join),
    _token_list(["1", "2", "2", "b1", "zz", "", " "]),
)
SUBQUIVERS = st.one_of(
    st.sampled_from(["1", "1;", "1,2;a1", "2,3;g", "A;", "1;zz", ";", "", ";;", "1,1;a1,a1"]),
    st.builds("{};{}".format, _token_list(["1", "2", "3", "A", "x", ""]), _token_list(["a1", "g", "at", ""])),
)
FILE_FLAGS = ("--rep", "--quiver", "--morphism", "--target-quiver")
# A fixed argv run after every example: text output, so a --json, --order or
# --primes left behind by an earlier call would change what it prints.
CANARY = ["count", "--catalog", "two_lines"]


def _input_files(root) -> dict:
    """flag -> {"missing" | "malformed" | "valid": path} under root."""
    entry = catalog("ex_4_5_1")
    f = entry.morphism
    valid = {
        "--rep": representation_to_json(entry.upstairs),
        "--quiver": quiver_to_json(entry.upstairs.quiver),
        "--morphism": json.dumps({"vertex_map": dict(f.vertex_map), "arrow_map": dict(f.arrow_map)}),
        "--target-quiver": quiver_to_json(f.codomain),
    }
    malformed = {"--rep": '{"basis": [', "--quiver": '{"vertices": 3}', "--morphism": "[]", "--target-quiver": "nul"}
    files = {}
    for flag in FILE_FLAGS:
        stem = flag.strip("-")
        files[flag] = {"missing": str(root / f"{stem}.missing.json")}
        for kind, text in (("malformed", malformed[flag]), ("valid", valid[flag])):
            path = root / f"{stem}.{kind}.json"
            path.write_text(text)
            files[flag][kind] = str(path)
    return files


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_exits_cleanly_on_order_subquiver_and_file_inputs(tmp_path):
    files = _input_files(tmp_path)
    canary_code, canary_out, _ = _call(CANARY)
    assert canary_code == 0 and canary_out.startswith("q=2: total 5")

    # each file flag points at its missing, malformed or valid file
    file_inputs = tuple((flag, st.sampled_from(sorted(files[flag].values()))) for flag in FILE_FLAGS)

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(argvs((("--order", ORDERS), ("--subquiver", SUBQUIVERS)) + file_inputs))
    def exits_cleanly(argv):
        code, _, err = _call(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err
        assert _call(CANARY)[:2] == (canary_code, canary_out), argv

    set_hypothesis_home_dir(tmp_path / "hypothesis")
    try:
        exits_cleanly()
    finally:
        set_hypothesis_home_dir(None)
