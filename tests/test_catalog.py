"""Catalog fixtures: construction, validation, determinism."""

import re

import pytest

from quiver_schubert.catalog import catalog, catalog_names
from quiver_schubert.linalg import identity_matrix
from quiver_schubert.oracle import count
from quiver_schubert.quiver import is_strictly_ordered, is_tree_extension, is_winding, validate
from quiver_schubert.representation import is_ordered_above, representation_to_json


ALL_SPECS = [
    "one_vertex(3)",
    "flag(3;1,2)",
    "one_loop(2,0)",
    "two_lines",
    "kronecker_regular(2,1)",
    "kronecker_preprojective(2)",
    "kronecker_preinjective(2)",
    "ex_4_5_1",
    "ex_4_5_2",
    "ex_4_5_5",
    "degenerate_flag(2)",
    "degenerate_flag_pi(2)",
    "forest_block(3,10)",
]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_entries_validate(spec):
    entry = catalog(spec)
    assert validate(entry.representation.quiver) == []
    assert entry.representation.validate() == []
    if entry.morphism is not None:
        assert entry.morphism.validate() == []
        assert is_winding(entry.morphism)
        m = entry.upstairs
        assert is_tree_extension(m.quiver, entry.subquiver)
        ok, diag = is_ordered_above(m, entry.subquiver)
        assert ok, diag
        key = m.basis.vertex_key(m.quiver.vertices)
        assert is_strictly_ordered(entry.morphism, key)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_entries_round_trip(spec):
    entry = catalog(spec)
    text = representation_to_json(entry.representation)
    from quiver_schubert.representation import representation_from_json

    assert representation_to_json(representation_from_json(text)) == text


def test_catalog_listing_and_errors():
    names = catalog_names()
    assert "ex_4_5_1" in names and "degenerate_flag" in names
    with pytest.raises(ValueError):
        catalog("nonexistent_entry")
    with pytest.raises(ValueError):
        catalog("flag(3)")  # missing dimension group


def test_degenerate_flag_matrices():
    entry = catalog("degenerate_flag(2)")
    j0 = ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    assert entry.representation.matrices["a1"] == j0
    assert entry.dim_vector == {"1": 1, "2": 2}


def test_one_loop_jordan():
    entry = catalog("one_loop(2,0)")
    assert entry.representation.matrices["a"] == ((0, 1), (0, 0))
    entry = catalog("one_loop(3,2)")
    assert entry.representation.matrices["a"] == ((2, 1, 0), (0, 2, 1), (0, 0, 2))


def test_kronecker_preprojective_dimension_vectors():
    for n in (1, 2, 3):
        entry = catalog(f"kronecker_preprojective({n})")
        assert entry.representation.dim_vector() == {"1": n, "2": n + 1}
        entry = catalog(f"kronecker_preinjective({n})")
        assert entry.representation.dim_vector() == {"1": n + 1, "2": n}


def test_flag_identity_matrices():
    entry = catalog("flag(3;1,2)")
    assert entry.representation.matrices["a1"] == identity_matrix(3)


def test_forest_block_deterministic():
    a = catalog("forest_block(7,10)")
    b = catalog("forest_block(7,10)")
    assert representation_to_json(a.representation) == representation_to_json(b.representation)
    assert a.dim_vector == b.dim_vector
    c = catalog("forest_block(8,10)")
    assert representation_to_json(c.representation) != representation_to_json(a.representation)


def test_forest_block_matrix_shape():
    entry = catalog("forest_block(0,10)")
    rep = entry.representation
    for a in rep.quiver.arrows:
        mat = rep.matrices[a.name]
        mp, mq = rep.rank(a.src), rep.rank(a.tgt)
        ones = [(i, j) for i in range(mq) for j in range(mp) if mat[i][j]]
        r = len(ones)
        # upper-right identity block: row i pairs with column m_p - r + i
        assert ones == [(i, mp - r + i) for i in range(r)]


@pytest.mark.parametrize(
    "spec, form",
    [
        ("two_lines(5)", "it takes none"),
        ("one_vertex(3,99)", "one_vertex(m)"),
        ("flag(3;1,2;7)", "flag(m;dims)"),
        ("flag(3,1,2)", "flag(m;dims)"),
        ("ex_4_5_1(1)", "it takes none"),
        ("kronecker_preprojective(2,9)", "kronecker_preprojective(n)"),
        ("one_loop(2;0)", "one_loop(m,lam)"),
        ("forest_block(3)", "forest_block(seed,size)"),
    ],
)
def test_a_spec_needs_the_exact_parameters_of_its_builder(spec, form):
    name = spec.split("(")[0]
    with pytest.raises(ValueError, match=rf"invalid parameters for '{name}': .*{re.escape(form)}"):
        catalog(spec)
    assert catalog("two_lines()").params == catalog("two_lines").params == ()


@pytest.mark.parametrize(
    "spec, message",
    [
        ("one_vertex(-1)", "m must be at least 0, got -1"),
        ("one_loop(-1,0)", "m must be at least 0, got -1"),
        ("flag(2;3,1)", "dims must lie in 0..2, got 3"),
        ("flag(3;)", "dims must list at least one dimension"),
        ("kronecker_preprojective(-2)", "n must be at least 0, got -2"),
    ],
)
def test_a_spec_whose_sizes_make_no_module_is_refused_by_parameter(spec, message):
    """A negative size, an empty flag list or a flag dimension outside 0..m is refused, naming the parameter."""
    name = spec.split("(")[0]
    with pytest.raises(ValueError, match=rf"^invalid parameters for '{name}': {re.escape(message)}$"):
        catalog(spec)


@pytest.mark.parametrize("spec, e", [
    ("one_vertex(0)", {"1": 0}),
    ("one_loop(0,0)", {"1": 0}),
    ("kronecker_regular(0,1)", {"1": 0, "2": 0}),
    ("kronecker_preprojective(0)", {"1": 0, "2": 1}),
    ("kronecker_preinjective(0)", {"1": 1, "2": 0}),
])
def test_an_entry_of_size_0_asks_for_no_more_than_its_ranks(spec, e):
    entry = catalog(spec)
    assert dict(entry.dim_vector) == e
    # e is 0 or the full rank at each vertex, so the Grassmannian is one point
    assert [r.total for r in count(entry.representation, e, primes=(2, 3))] == [1, 1]
