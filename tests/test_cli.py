"""CLI behaviour: outputs, exit codes, determinism."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from quiver_schubert.cli import main
from quiver_schubert.quiver import quiver, quiver_to_json


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
    [("poly", "2,2,3"), ("verify-affine", "3,3"), ("euler", "2,2"), ("poincare", "2,2")],
)
def test_repeated_prime_is_an_input_error(cmd, primes):
    code, out, err = run([cmd, "--catalog", "two_lines", "--primes", primes])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "is repeated" in err
    assert len(err.strip().splitlines()) == 1
