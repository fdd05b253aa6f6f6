"""CLI behaviour: outputs, exit codes, determinism."""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest

from quiver_schubert import cli, oracle
from quiver_schubert.catalog import catalog
from quiver_schubert.cli import main
from quiver_schubert.hypothesis_h import HypothesisResult
from quiver_schubert.quiver import quiver, quiver_to_json
from quiver_schubert.representation import representation_to_json
from quiver_schubert.schubert import cell_index, enumerate_cells, generate_equations


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_hypothesis_h_exit_codes():
    code, out, _ = run(["hypothesis-h", "--catalog", "ex_4_5_1"])
    assert code == 1
    assert "T5" in out and "gt,1,4" in out
    code, out, _ = run(["hypothesis-h", "--catalog", "kronecker_preprojective(2)"])
    assert code == 0


def test_poly_two_lines():
    code, out, _ = run(["poly", "--catalog", "two_lines", "--dim-vector", "1,1"])
    assert code == 0
    assert out.strip() == "2*x + 1"


def test_cells_two_lines():
    code, out, _ = run(["cells", "--catalog", "two_lines", "--dim-vector", "1,1"])
    assert code == 0
    assert out.splitlines() == ["{b1,b3}", "{b1,b4}", "{b2,b3}", "{b2,b4}"]


def test_equations_ex451():
    code, out, _ = run(["equations", "--catalog", "ex_4_5_1", "--beta", "3,4"])
    assert code == 0
    assert "w_{1,3}*w_{2,4} = 0" in out


def test_count_json_deterministic():
    argv = ["count", "--catalog", "two_lines", "--dim-vector", "1,1", "--primes", "2,3", "--json"]
    code1, out1, _ = run(argv)
    code2, out2, _ = run(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data[0]["total"] == 5


def test_euler_refusal_exit_code():
    code, _, err = run(["euler", "--catalog", "ex_4_5_2"])
    assert code == 1
    assert "no affine certificate" in err


def test_budget_exit_code():
    code, _, err = run(["count", "--catalog", "one_vertex(5)", "--dim-vector", "2", "--budget", "3"])
    assert code == 3
    assert "budget exceeded" in err


def test_input_error_exit_code():
    code, _, err = run(["count", "--catalog", "no_such_entry", "--dim-vector", "1"])
    assert code == 2
    code, _, err = run(["count", "--catalog", "two_lines", "--dim-vector", "1"])
    assert code == 2  # wrong arity


def test_validate_file_input(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(quiver_to_json(quiver(["1"], [("a", "1", "1")])))
    code, out, _ = run(["validate", "--quiver", str(good)])
    assert code == 0 and out.strip() == "ok"
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["1"], "arrows": [{"id": "a", "src": "1", "tgt": "2"}]}')
    code, out, _ = run(["validate", "--quiver", str(bad)])
    assert code == 1 and "dangling endpoint" in out
    code, _, err = run(["validate", "--quiver", str(tmp_path / "missing.json")])
    assert code == 2


def _two_lines_with(tmp_path, a):
    """A two_lines module file whose arrow has the matrix a."""
    data = json.loads(representation_to_json(catalog("two_lines").representation))
    data["matrices"]["a"] = a
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("command", ["validate", "count", "equations"])
def test_ragged_matrix_rows_are_an_input_error(tmp_path, command):
    path = _two_lines_with(tmp_path, [[1, 0], [1]])
    argv = [command, "--rep", path] + (["--dim-vector", "1,1"] if command != "validate" else [])
    assert run(argv) == (2, "", "input error: arrow 'a': row 2 has 1 entries, expected 2\n")


@pytest.mark.parametrize(
    "a, shown",
    [
        ([[1.7, 0], [0, 0.2]], "entry (1, 1) is 1.7, not an integer; arrow 'a': entry (2, 2) is 0.2"),
        ([["1", 0], [0, 0]], "entry (1, 1) is '1'"),
        ([[1, 0], [0, True]], "entry (2, 2) is True"),
    ],
)
def test_matrix_entries_that_are_not_integers_are_an_input_error(tmp_path, a, shown):
    path = _two_lines_with(tmp_path, a)
    code, out, err = run(["count", "--rep", path, "--dim-vector", "1,1", "--primes", "2"])
    assert (code, out, err) == (2, "", f"input error: arrow 'a': {shown}, not an integer\n")


@pytest.mark.parametrize("command", ["validate", "count"])
def test_matrix_on_an_arrow_with_an_empty_side_is_validated(tmp_path, command):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({
        "quiver": json.loads(quiver_to_json(quiver(["1", "2"], [("a", "1", "2")]))),
        "basis": {"order": ["x"], "vertex_of": {"x": "2"}},
        "matrices": {"a": [[1.7], [5, 6, 7]]},
    }))
    argv = [command, "--rep", str(path)] + (["--dim-vector", "0,1", "--primes", "2"] if command == "count" else [])
    code, out, err = run(argv)
    assert (code, out, len(err.splitlines())) == (2, "", 1)
    assert err.startswith("input error: arrow 'a': matrix has 2 rows, expected 1; ")


def test_module_whose_quiver_lists_a_vertex_twice_is_an_input_error(tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({
        "quiver": {"vertices": ["1", "1"], "arrows": []},
        "basis": {"order": ["b1"], "vertex_of": {"b1": "1"}},
        "matrices": {},
    }))
    for argv in (["count", "--rep", str(path), "--dim-vector", "1,0"], ["validate", "--rep", str(path)]):
        code, out, err = run(argv)
        assert (code, out, err) == (2, "", "input error: duplicate vertex id '1'\n"), argv


def test_tree_ext_and_winding():
    code, out, _ = run(["tree-ext", "--catalog", "ex_4_5_1", "--subquiver", "1"])
    assert code == 0 and "tree extension" in out
    code, out, _ = run(["winding", "--catalog", "ex_4_5_1"])
    assert code == 0
    data = json.loads(out)
    assert data == {"strictly_ordered": True, "winding": True}


def test_pushforward_matches_catalog():
    code, out, _ = run(["pushforward", "--catalog", "ex_4_5_1", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["matrices"]["at"] == [[1, 0], [0, 1]]


def test_verify_affine_text():
    code, out, _ = run(["verify-affine", "--catalog", "two_lines", "--dim-vector", "1,1"])
    assert code == 0
    lines = out.splitlines()
    assert "{b1,b4}: empty" in lines
    assert "{b2,b4}: affine dim 1" in lines


def test_poincare_flag():
    code, out, _ = run(["poincare", "--catalog", "flag(3;1,2)", "--assert-smooth"])
    assert code == 0
    assert out.strip() == "1 + 2*t^2 + 2*t^4 + t^6"


def test_catalog_listing():
    code, out, _ = run(["catalog"])
    assert code == 0
    assert "ex_4_5_5" in out.splitlines()


def test_qs_budget_env(monkeypatch):
    monkeypatch.setenv("QS_BUDGET", "3")
    code, _, err = run(["count", "--catalog", "one_vertex(5)", "--dim-vector", "2"])
    assert code == 3
    monkeypatch.setenv("QS_BUDGET", "1000000")
    code, _, _ = run(["count", "--catalog", "one_vertex(5)", "--dim-vector", "2"])
    assert code == 0


def test_order_flag_changes_cells():
    # reversing the one_loop basis moves the unique point to the other cell
    code, out, _ = run(
        ["count", "--catalog", "one_loop(2,0)", "--dim-vector", "1", "--primes", "2", "--json"]
    )
    assert json.loads(out)[0]["cells"] == {"b1": 1, "b2": 0}
    code, out, _ = run(
        [
            "count",
            "--catalog",
            "one_loop(2,0)",
            "--dim-vector",
            "1",
            "--primes",
            "2",
            "--order",
            "b2,b1",
            "--json",
        ]
    )
    assert json.loads(out)[0]["cells"] == {"b1": 1, "b2": 0} or json.loads(out)[0][
        "cells"
    ] == {"b2": 1, "b1": 0}
    assert json.loads(out)[0]["total"] == 1


def test_golden_json_schemas():
    # pinned shapes for the stable JSON surfaces
    code, out, _ = run(
        ["count", "--catalog", "two_lines", "--dim-vector", "1,1", "--primes", "2", "--json"]
    )
    assert out.strip() == (
        '[{"cells": {"b1,b3": 1, "b1,b4": 0, "b2,b3": 2, "b2,b4": 2}, '
        '"prime": 2, "total": 5}]'
    )
    code, out, _ = run(["equations", "--catalog", "ex_4_5_1", "--beta", "3,4", "--json"])
    data = json.loads(out)
    assert data[0]["beta"] == ["3", "4"]
    assert data[0]["vars"] == [["1", "3"], ["2", "4"]]
    rows = {(tuple(e["triple"]), e["row"]) for e in data[0]["eqs"]}
    assert rows == {(("at", "1", "4"), "1"), (("gt", "1", "4"), "1")}
    for eq in data[0]["eqs"]:
        for coeff, monomial in eq["poly"]:
            assert isinstance(coeff, int)
            for var, exp in monomial:
                assert 0 <= var < 2 and exp >= 1
    code, out, _ = run(["hypothesis-h", "--catalog", "ex_4_5_1", "--json"])
    data = json.loads(out)
    assert set(data) == {"pair", "passed", "reason", "triples"}



@pytest.mark.parametrize("spec, systems", [("ex_4_5_5", 112), ("kronecker_preprojective(5)", 75)])
def test_equations_json_joins_the_systems_as_one_sorted_dump(spec, systems):
    """The joined to_json() lines are the bytes of dumping the parsed systems with sorted keys."""
    entry = catalog(spec)
    rep, source = entry.representation, entry.upstairs
    out = [
        generate_equations(source, cell_index(source.basis, c.elements), fibred_via=entry.morphism)
        for c in enumerate_cells(rep.basis, dict(entry.dim_vector), rep.quiver.vertices)
    ]
    code, printed, _ = run(["equations", "--catalog", spec, "--json"])
    assert code == 0 and len(out) == systems
    assert printed == json.dumps([json.loads(s.to_json()) for s in out], sort_keys=True) + "\n"

@pytest.mark.parametrize("primes", ["4", "9", "-3", "0", "1"])
def test_non_prime_modulus_is_an_input_error(primes):
    for cmd in ("count", "verify-affine"):
        code, out, err = run([cmd, "--catalog", "two_lines", "--primes", "2," + primes])
        assert code == 2 and out == ""
        assert err.startswith("input error:") and "not a prime" in err
        assert len(err.strip().splitlines()) == 1
    code, out, err = run(["count", "--catalog", "two_lines", "--primes", primes])
    assert code == 2 and out == "" and "not a prime" in err


@pytest.mark.parametrize(
    "cmd, primes",
    [("count", "2,2"), ("poly", "2,2,3"), ("verify-affine", "3,3"), ("euler", "2,2"), ("poincare", "2,2")],
)
def test_repeated_prime_is_an_input_error(cmd, primes):
    code, out, err = run([cmd, "--catalog", "two_lines", "--primes", primes])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "is repeated" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["equations", "--catalog", "ex_4_5_1", "--beta", "3"], "type (0,1)"),
        (["equations", "--catalog", "ex_4_5_1", "--beta", "2,4"], "type (2,0)"),
        (["equations", "--catalog", "two_lines", "--beta", "b1,b3", "--dim-vector", "2,0"], "type (1,1)"),
    ],
)
def test_equations_beta_of_the_wrong_type_is_an_input_error(argv, shown):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and shown in err
    assert len(err.strip().splitlines()) == 1


def test_equations_beta_type_is_checked_only_against_a_known_dim_vector(tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(representation_to_json(catalog("two_lines").representation))
    code, out, _ = run(["equations", "--rep", str(path), "--beta", "b1"])
    assert code == 0 and out.startswith("cell beta = {b1}")
    code, _, err = run(["equations", "--rep", str(path), "--beta", "b1", "--dim-vector", "1,1"])
    assert code == 2 and "type (1,0)" in err


def test_hypothesis_h_json_carries_exceptions_and_notes():
    code, out, _ = run(["hypothesis-h", "--catalog", "ex_4_5_5", "--json"])
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"pair", "passed", "reason", "triples", "exceptions", "notes"}
    assert len(data["exceptions"]) == 37
    assert data["exceptions"][0] == {"pair": ["1", "3"], "triple": ["gt", "1", "0"], "type": "T3a"}
    assert data["notes"] == [
        "identity requirement for exception via 'a1' is vacuous (arrow not in S)",
        "identity requirement for exception via 'a2' is vacuous (arrow not in S)",
    ]


def test_order_reorders_the_upstairs_basis_of_equations():
    code, out, _ = run(["equations", "--catalog", "ex_4_5_1", "--order", "2,1,3,4"])
    assert code == 0
    assert out.splitlines()[0] == "cell beta = {2, 1}"
    _, plain, _ = run(["equations", "--catalog", "ex_4_5_1"])
    assert plain.splitlines()[0] == "cell beta = {1, 2}"


def test_order_reaches_the_hypothesis_h_check():
    code, _, err = run(["hypothesis-h", "--catalog", "ex_4_5_1", "--order", "2,1,3,4"])
    assert code == 2
    assert "basis is not ordered above S" in err
    assert len(err.splitlines()) == 1


def test_pushforward_follows_the_reordered_upstairs_basis():
    code, out, _ = run(["pushforward", "--catalog", "ex_4_5_1", "--order", "2,1,3,4", "--json"])
    assert code == 0
    assert json.loads(out)["basis"]["order"] == ["2", "1", "3", "4"]


@pytest.mark.parametrize("flag, text", [
    ("--rep", '{"basis": []}'),
    ("--quiver", '{"vertices": 3}'),
    ("--quiver", "[]"),
])
def test_json_file_of_the_wrong_layout_is_an_input_error(tmp_path, flag, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, _, err = run(["validate", flag, str(path)])
    assert code == 2
    assert err.startswith("input error: ") and "unexpected JSON layout" in err


def test_morphism_file_of_the_wrong_layout_is_an_input_error(tmp_path):
    entry = catalog("ex_4_5_1")
    rep, target, morphism = tmp_path / "rep.json", tmp_path / "target.json", tmp_path / "f.json"
    rep.write_text(representation_to_json(entry.upstairs))
    target.write_text(quiver_to_json(entry.morphism.codomain))
    morphism.write_text("[]")
    argv = ["winding", "--rep", str(rep), "--target-quiver", str(target), "--morphism", str(morphism)]
    code, _, err = run(argv)
    assert code == 2 and "unexpected JSON layout" in err


COMMANDS = [
    "validate", "winding", "tree-ext", "pushforward", "cells", "equations", "hypothesis-h",
    "count", "poly", "euler", "poincare", "verify-affine", "catalog",
]


def assert_refused(argv, *named):
    """argv exits 2 with one stderr line, naming each of named, and prints nothing."""
    code, out, err = run(argv)
    assert (code, out, len(err.splitlines())) == (2, "", 1), (argv, err)
    assert err.startswith("input error: ") and all(flag in err for flag in named), (argv, err)


@pytest.mark.parametrize("command", COMMANDS)
def test_only_winding_and_pushforward_read_morphism_files(tmp_path, command):
    entry = catalog("ex_4_5_1")
    f = entry.morphism
    rep, target, morphism = tmp_path / "rep.json", tmp_path / "target.json", tmp_path / "f.json"
    rep.write_text(representation_to_json(entry.upstairs))
    target.write_text(quiver_to_json(f.codomain))
    morphism.write_text(json.dumps({"vertex_map": dict(f.vertex_map), "arrow_map": dict(f.arrow_map)}))
    both = ["--morphism", str(morphism), "--target-quiver", str(target)]
    if command in ("winding", "pushforward"):
        assert run([command, "--rep", str(rep)] + both)[0] == 0
        return
    for flags in (both, both[:2], both[2:]):
        assert_refused([command] + flags, *flags[::2])


# the pairs of --catalog and a file input that the command takes, and so refuses in _run
CATALOG_CONFLICTS = {
    ("validate", "--quiver"), ("validate", "--rep"), ("cells", "--rep"), ("count", "--rep"),
    ("winding", "--rep"), ("winding", "--morphism"), ("winding", "--target-quiver"),
}


@pytest.mark.parametrize("command", ["validate", "cells", "winding", "count"])
@pytest.mark.parametrize("flag", ["--quiver", "--rep", "--morphism", "--target-quiver"])
def test_catalog_with_a_file_input_is_an_input_error(tmp_path, command, flag):
    argv = [command, "--catalog", "two_lines", flag, str(tmp_path / "missing.json")]
    if (command, flag) not in CATALOG_CONFLICTS:
        assert_refused(argv, flag)
        return
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err == f"input error: --catalog cannot be combined with {flag}\n"


# for each subcommand, a flag that its branch of the front end does not read
UNREAD_FLAGS = {
    "validate": ["--primes", "4"],
    "winding": ["--subquiver", "1"],
    "tree-ext": ["--order", "1,2,3,4"],
    "pushforward": ["--dim-vector", "1,1"],
    "cells": ["--primes", "2"],
    "equations": ["--budget", "100"],
    "hypothesis-h": ["--dim-vector", "1,1"],
    "count": ["--beta", "b1,b3"],
    "poly": ["--assert-smooth"],
    "euler": ["--subquiver", "1"],
    "poincare": ["--quiver", "q.json"],
    "verify-affine": ["--morphism", "f.json"],
    "catalog": ["--order", "b2,b1"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_flag_the_command_does_not_read_is_refused(command):
    flags = UNREAD_FLAGS[command]
    assert_refused([command, "--catalog", "ex_4_5_1"] + flags, flags[0])


@pytest.mark.parametrize(
    "argv, named",
    [
        (["validate", "--catalog", "two_lines", "--primes", "4", "--beta", "zz", "--dim-vector", "9"], "--primes"),
        (["catalog", "--rep", "/nonexistent.json"], "--rep"),
        (["cells", "--catalog", "two_lines", "--dim-vector", "1,1", "--budget", "-3"], "--budget"),
        (["count", "--catalog", "two_lines", "--budget", "x"], "--budget"),
        (["count", "--catalog", "two_lines", "--no-such-flag"], "--no-such-flag"),
        (["count", "--catalog"], "--catalog"),
        ([], "command"),
    ],
)
def test_parser_errors_are_one_line(argv, named):
    assert_refused(argv, named)


def test_catalog_keeps_order_subquiver_and_dim_vector():
    argv = ["count", "--catalog", "two_lines", "--dim-vector", "1,1", "--order", "b2,b1,b3,b4", "--primes", "2"]
    code, out, _ = run(argv)
    assert code == 0 and out.startswith("q=2: total 5")
    code, out, _ = run(["tree-ext", "--catalog", "ex_4_5_1", "--subquiver", "1"])
    assert code == 0 and out.strip() == "tree extension"


def test_negative_budget_is_an_input_error(monkeypatch):
    code, out, err = run(["count", "--catalog", "two_lines", "--budget", "-5"])
    assert (code, out, err) == (2, "", "input error: --budget must be nonnegative, got -5\n")
    monkeypatch.setenv("QS_BUDGET", "-5")
    code, out, err = run(["count", "--catalog", "two_lines"])
    assert (code, out, err) == (2, "", "input error: QS_BUDGET must be nonnegative, got -5\n")
    monkeypatch.setenv("QS_BUDGET", "abc")
    code, out, err = run(["count", "--catalog", "two_lines"])
    assert (code, out, err) == (2, "", "input error: QS_BUDGET must be an integer, got 'abc'\n")
    code, _, err = run(["count", "--catalog", "two_lines", "--budget", "0"])
    assert code == 3 and err.startswith("budget exceeded")


def test_empty_catalog_name_leaves_file_inputs_in_use(tmp_path):
    code, out, err = run(["validate", "--catalog", "", "--quiver", str(tmp_path / "missing.json")])
    assert code == 2 and out == ""
    assert "cannot be combined" not in err and "No such file" in err


def test_euler_refusal_is_one_line_and_fits_the_budget_of_its_primes():
    # the refusal counts at 2 and 3 only (estimates 49 and 169 points) and
    # interpolates nothing, so it needs no budget for 5 or 7 (961, 3249)
    code, out, err = run(["euler", "--catalog", "ex_4_5_2", "--budget", "1000"])
    assert (code, out) == (1, "")
    assert err == "check failed: no affine certificate for cells: {2,3,7}\n"


def test_equations_beta_with_a_repeated_id_is_an_input_error():
    code, out, err = run(["equations", "--catalog", "two_lines", "--beta", "b1,b1,b3"])
    assert (code, out) == (2, "")
    assert err == "input error: repeated basis ids: ['b1']\n"


def test_hypothesis_h_takes_s_from_subquiver():
    code, out, err = run(["hypothesis-h", "--catalog", "ex_4_5_1", "--subquiver", "1,3"])
    assert (code, out, err) == (2, "", "input error: T is not a tree extension of S\n")
    default = run(["hypothesis-h", "--catalog", "ex_4_5_1"])
    assert run(["hypothesis-h", "--catalog", "ex_4_5_1", "--subquiver", "1"]) == default


@pytest.mark.parametrize(
    "cmd, flag, value, shown",
    [
        ("count", "--primes", "2,,3", "''"),
        ("poly", "--primes", "2,three", "'three'"),
        ("euler", "--primes", "2.5", "'2.5'"),
        ("count", "--dim-vector", "1,x", "'x'"),
        ("cells", "--dim-vector", "1,", "''"),
    ],
)
def test_a_list_entry_that_is_not_an_integer_names_its_flag(cmd, flag, value, shown):
    code, out, err = run([cmd, "--catalog", "two_lines", flag, value])
    assert (code, out, err) == (2, "", f"input error: {flag} entries must be integers, got {shown}\n")


def test_negative_dim_vector_entry_is_an_input_error():
    code, out, err = run(["count", "--catalog", "two_lines", "--dim-vector=-1,1"])
    assert (code, out, err) == (2, "", "input error: dimension -1 is negative at vertex '1'\n")


@pytest.mark.parametrize(
    "spec", ["two_lines(5)", "one_vertex(3,99)", "flag(3;1,2;7)", "ex_4_5_1(1)", "kronecker_preprojective(2,9)"]
)
def test_a_catalog_spec_with_an_extra_parameter_is_an_input_error(spec):
    assert_refused(["catalog", "--catalog", spec], "invalid parameters")


@pytest.mark.parametrize(
    "spec, parameter",
    [
        ("one_vertex(-1)", "m must"),
        ("one_loop(-1,0)", "m must"),
        ("flag(2;3,1)", "dims must"),
        ("flag(3;)", "dims must"),
        ("kronecker_preprojective(-2)", "n must"),
    ],
)
def test_a_catalog_spec_whose_sizes_make_no_module_is_an_input_error(spec, parameter):
    for command in ("catalog", "count"):
        assert_refused([command, "--catalog", spec], "invalid parameters", parameter)


@pytest.mark.parametrize("command", ["pushforward", "winding"])
def test_a_target_quiver_with_repeated_ids_is_an_input_error(tmp_path, command):
    entry = catalog("kronecker_preprojective(2)")
    f = entry.morphism
    rep, target, morphism = tmp_path / "up.json", tmp_path / "bad.json", tmp_path / "mor.json"
    rep.write_text(representation_to_json(entry.upstairs))
    doubled = quiver(["1", "2", "2"], [("at", "1", "2"), ("gt", "1", "2"), ("gt", "1", "2")])
    target.write_text(quiver_to_json(doubled))
    morphism.write_text(json.dumps({"vertex_map": dict(f.vertex_map), "arrow_map": dict(f.arrow_map)}))
    argv = [command, "--rep", str(rep), "--morphism", str(morphism), "--target-quiver", str(target)]
    assert_refused(argv, "duplicate vertex id '2'", "duplicate arrow id 'gt'")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["count", "--primes", ""], "--primes entries must be integers, got ''"),
        (["poly", "--primes", ""], "--primes entries must be integers, got ''"),
        (["cells", "--dim-vector", ""], "--dim-vector entries must be integers, got ''"),
        (["equations", "--beta", "b1,b3", "--dim-vector", ""], "--dim-vector entries must be integers, got ''"),
        (["equations", "--beta", ""], "not basis elements: ['']"),
        (["cells", "--order", ""], "new order must be a permutation of the basis"),
    ],
)
def test_an_empty_flag_value_is_read_not_taken_for_an_absent_flag(argv, message):
    code, out, err = run([argv[0], "--catalog", "two_lines", *argv[1:]])
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_an_empty_subquiver_is_the_empty_subquiver():
    for spec in ("two_lines", "kronecker_regular(1,0)", "ex_4_5_1"):
        assert run(["tree-ext", "--catalog", spec, "--subquiver", ""]) == run(
            ["tree-ext", "--catalog", spec, "--subquiver", ";"]
        )
    # not the entry's S = {1}: (H) needs a nonempty S
    code, out, err = run(["hypothesis-h", "--catalog", "ex_4_5_1", "--subquiver", ""])
    assert (code, out, err) == (2, "", "input error: S must be nonempty\n")


def test_reports_without_primes_sample_the_library_defaults():
    common = ["--catalog", "two_lines", "--dim-vector", "1,1", "--json"]
    code, out, _ = run(["count", *common])
    assert code == 0 and [r["prime"] for r in json.loads(out)] == [2, 3, 5]
    code, out, _ = run(["euler", *common])
    assert code == 0 and json.loads(out)["primes"] == [2, 3]
    code, out, _ = run(["verify-affine", *common])
    assert code == 0 and [sorted(v["counts"]) for v in json.loads(out)] == [["2", "3"]] * 4
    # poly samples at the first bound + 1 primes
    code, out, _ = run(["poly", *common])
    poly = json.loads(out)
    assert code == 0 and poly["degree_bound"] == 2
    assert [q for q, _ in poly["samples"]] == [2, 3, 5]


@pytest.mark.parametrize("command", ["tree-ext", "hypothesis-h"])
def test_a_subquiver_with_more_than_two_groups_is_an_input_error(command):
    code, out, err = run([command, "--catalog", "ex_4_5_1", "--subquiver", "1;;junk"])
    assert (code, out) == (2, "")
    assert err == "input error: --subquiver takes at most two ';' groups (vertices;arrows), got '1;;junk'\n"


# (argv, exit code, SHA-256 of stdout) of count, poly and hypothesis-h in both
# modes, taken when --json printed each result parsed and dumped again.
PINNED_REPORT_OUTPUTS = [
    (["count", "two_lines", "--dim-vector", "1,1", "--primes", "2,3"], 0,
     "5e0731999884cdb6fb4979baccd8a577ece85591676e5390b19770bf92bf372f"),
    (["count", "two_lines", "--dim-vector", "1,1", "--primes", "2,3", "--json"], 0,
     "346aae2e2f1cb4cfc959456d67044d7b2f09e7159e9188dbe83efdc6b3f2f996"),
    (["count", "degenerate_flag(3)", "--primes", "2,3"], 0,
     "bbc54aecfd7b24f03a1dc6240a35c92d2f44a6802da47764e10c7c87264e33f1"),
    (["count", "degenerate_flag(3)", "--primes", "2,3", "--json"], 0,
     "e8add9dc615d939dc1ec5d6c1e2c8e5f2766bf30cacbe9a031ea63b5e96e3a19"),
    (["count", "ex_4_5_5", "--primes", "2"], 0,
     "e68a21df0b931d8196f44c24efe8f2fe01190811d210a39df9a2101ded8774f6"),
    (["count", "ex_4_5_5", "--primes", "2", "--json"], 0,
     "45be340ba1f4abdd300d596d49dce9e82e2161e4fbfbced53cc17bc94ce0c815"),
    (["count", "one_vertex(0)", "--primes", "2"], 0,
     "38f55fd6f292d6c5850056418b15f6be2118b29365ed1ae2ab8431f18a308309"),
    (["count", "one_vertex(0)", "--primes", "2", "--json"], 0,
     "c373535b4d2e601d64ef6c21950cd6dfc6b53f13d092b3e28aef502ae9ba6f83"),
    (["poly", "two_lines", "--dim-vector", "1,1"], 0,
     "88dc646f8db743dcd1fb643080554058d11ac4201964a3cdfd0bb7d74d263c40"),
    (["poly", "two_lines", "--dim-vector", "1,1", "--json"], 0,
     "022b699a9c8dec8821ea8ccdfe8db5ace568cb8b5dc464bb5b614f9f7f0f365e"),
    (["poly", "kronecker_preprojective(3)"], 0,
     "455f875a8b00108f053c7c2c858fce8951488414d03108bf36a82f6b8ef8c86f"),
    (["poly", "kronecker_preprojective(3)", "--json"], 0,
     "b50de7f52cde607b801beb2534b4e9b2f5f385e8f45a463d933c0a33d0790473"),
    (["hypothesis-h", "ex_4_5_1"], 1,
     "970fd836a890adec3a130360f53ffa12f1a824f0ac86c462a18187d1552310d8"),
    (["hypothesis-h", "ex_4_5_1", "--json"], 1,
     "130d196f921977adf524c490fdd346cb514b2a9eda5a7c0f8e5bbfd90b9fc4e8"),
    (["hypothesis-h", "ex_4_5_5"], 0,
     "c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431"),
    (["hypothesis-h", "ex_4_5_5", "--json"], 0,
     "9264e08cd61e11f0cbf212a0bac13f93631f97c671a55641168df65cab5e8d2c"),
    (["hypothesis-h", "kronecker_preprojective(12)"], 0,
     "c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431"),
    (["hypothesis-h", "kronecker_preprojective(12)", "--json"], 0,
     "20ccc1a4bdbbccab457ff5d574d154fa6755679cdff8d8d6222106f4702f8b4d"),
    (["hypothesis-h", "kronecker_preinjective(12)"], 1,
     "20c66efd6580732189fdf58f807b8166b8904b51da9f56a48389a4224dd9edbb"),
    (["hypothesis-h", "kronecker_preinjective(12)", "--json"], 1,
     "85973433710d2bd4c0bf7f383be04f574c9dd69a326ace29ab72f25cae68d9b2"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED_REPORT_OUTPUTS)
def test_report_outputs_are_the_bytes_of_the_round_trip(monkeypatch, argv, code, digest):
    """count, poly and hypothesis-h print the same bytes in both modes, building JSON only under --json.

    Under --json the sorted-key dumps are printed as they are, never parsed
    back; in text mode no dump is built at all.
    """
    cmd, spec, *rest = argv
    dumps = {"count": (oracle.CountReport, "to_json"), "poly": (oracle.CountingPolynomial, "to_json"),
             "hypothesis-h": (HypothesisResult, "witness_json")}
    owner, name = dumps[cmd]
    built = []
    inner = getattr(owner, name)

    def recorded(self):
        built.append(inner(self))
        return built[-1]

    monkeypatch.setattr(owner, name, recorded)
    monkeypatch.setattr(cli, "json", SimpleNamespace(dumps=json.dumps))  # no parse on these paths
    got, out, _ = run([cmd, "--catalog", spec, *rest])
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
    assert bool(built) == ("--json" in rest)


@pytest.mark.parametrize("spec, digest", [
    ("ex_4_5_1", "34f09a4115302100e62cdc2db50ba702793e14aa8e64730879be1a97ba8a273b"),
    ("kronecker_preprojective(10)", "8bac736eb55334590beaa24ea3edc5a32b73ed81b1a9eebce8f5f89602ea2a2c"),
])
def test_pushforward_prints_its_sorted_dump_as_it_is_in_both_modes(monkeypatch, spec, digest):
    """The SHA-256 of stdout, taken when pushforward parsed its dump and, under --json, dumped it again."""
    monkeypatch.setattr(cli, "json", SimpleNamespace(dumps=json.dumps))  # no parse on this path
    for mode in ([], ["--json"]):
        code, out, _ = run(["pushforward", "--catalog", spec, *mode])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), mode


@pytest.mark.parametrize("spec, digest", [
    ("ex_4_5_5", "23aa88e7353e4a454da1f08f03bbb3ca504576e62229371986f4084ebc89735d"),
    ("kronecker_preprojective(5)", "d0ca669133b3cf75a63f4497679765b0c1c4b1400a2444b8e1fd6ff4791a8f1b"),
    ("degenerate_flag(3)", "bb768b670351e822182b2d3ef9179a183cafe45c06178c0665ce2c1845394914"),
])
def test_equations_text_is_pinned(spec, digest):
    """The SHA-256 of the text that `equations` prints for every cell: each polynomial as `Poly.render` writes it."""
    code, out, _ = run(["equations", "--catalog", spec])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)
