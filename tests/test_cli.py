"""CLI behaviour: outputs, exit codes, determinism."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from quiver_schubert.catalog import catalog
from quiver_schubert.cli import main
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
