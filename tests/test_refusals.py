"""Refusals: each bad input raises its own exception type with its own message.

Each test goes through the public call that refuses and checks both.
"""

from itertools import permutations

import pytest

from quiver_schubert.catalog import catalog
from quiver_schubert.cli import main
from quiver_schubert.hypothesis_h import WindingContext
from quiver_schubert.linalg import int_det
from quiver_schubert.oracle import assign_cell, enumerate_subreps
from quiver_schubert.quiver import (
    Subquiver,
    compose,
    identity_morphism,
    is_tree_extension,
    morphism,
    quiver,
    subquiver,
)
from quiver_schubert.representation import (
    OrderedBasis,
    direct_sum,
    order_above_extension,
    push_forward,
    reorder_basis,
    representation,
    representation_to_json,
    restrict,
    thin_representation,
)
from quiver_schubert.schubert import (
    CellIndex,
    PreconditionError,
    cell_index,
    cell_partial_orders,
    generate_equations,
    grassmannian_fibration,
    iota,
    pi,
    preceq,
    tree_setup,
)


def _path():
    return quiver(["1", "2"], [("a", "1", "2")])


def test_a_catalog_spec_that_does_not_parse():
    with pytest.raises(ValueError, match=r"^cannot parse catalog spec 'flag\(3'$"):
        catalog("flag(3")


@pytest.mark.parametrize(
    "vertices, arrows, message",
    [
        (["1", "x"], [], "subquiver vertex 'x' not in parent"),
        (["1", "2"], ["z"], "subquiver arrow 'z' not in parent"),
        (["1"], ["a"], "arrow 'a' has an endpoint outside the subquiver"),
    ],
)
def test_a_subquiver_outside_its_parent(vertices, arrows, message):
    with pytest.raises(ValueError) as info:
        subquiver(_path(), vertices, arrows)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "vertex_map, arrow_map, message",
    [
        ({"1": "x"}, {"a": "c"}, "vertex '2' has no image; arrow 'a': target not preserved"),
        ({"1": "x", "2": "y"}, {}, "arrow 'a' has no image"),
        ({"1": "x", "2": "z"}, {"a": "c"}, "image of vertex '2' not in codomain; arrow 'a': target not preserved"),
        ({"1": "x", "2": "y"}, {"a": "d"}, "image of arrow 'a' not in codomain"),
    ],
)
def test_a_morphism_with_a_missing_or_foreign_image(vertex_map, arrow_map, message):
    codomain = quiver(["x", "y"], [("c", "x", "y")])
    with pytest.raises(ValueError) as info:
        morphism(_path(), codomain, vertex_map, arrow_map)
    assert str(info.value) == message


def test_morphisms_that_do_not_compose():
    kronecker = quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    with pytest.raises(ValueError, match="^morphisms not composable$"):
        compose(identity_morphism(kronecker), identity_morphism(_path()))


def test_an_ordered_basis_with_a_repeated_or_unplaced_id():
    with pytest.raises(ValueError, match="^duplicate basis ids$"):
        OrderedBasis(("b1", "b1"), {"b1": "1"})
    with pytest.raises(ValueError, match="^basis id 'b2' has no vertex$"):
        OrderedBasis(("b1", "b2"), {"b1": "1"})


def test_a_representation_with_a_missing_matrix_or_an_undeclared_vertex():
    basis = OrderedBasis(("b1", "b2"), {"b1": "1", "b2": "2"})
    with pytest.raises(ValueError, match="^arrow 'a' has no matrix$"):
        representation(_path(), basis, {})
    stray = OrderedBasis(("b1", "b2", "b3"), {"b1": "1", "b2": "2", "b3": "9"})
    with pytest.raises(ValueError, match="^basis id 'b3' sits at an undeclared vertex$"):
        representation(_path(), stray, {"a": [[1]]})


def test_restrict_push_forward_and_direct_sum_refuse_what_does_not_fit():
    m = thin_representation(_path())
    with pytest.raises(ValueError, match="^subquiver vertex 'x' not in parent$"):
        restrict(m, Subquiver(m.quiver, frozenset({"x"}), frozenset()))
    kronecker = quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    with pytest.raises(ValueError, match="^morphism domain does not match the representation's quiver$"):
        push_forward(identity_morphism(kronecker), m)
    with pytest.raises(ValueError, match="^direct_sum requires the same quiver$"):
        direct_sum(m, thin_representation(kronecker))
    with pytest.raises(ValueError, match="^basis ids of the summands overlap; rename first$"):
        direct_sum(m, m)
    other = representation(_path(), OrderedBasis(("c1", "c2"), {"c1": "1", "c2": "2"}), {"a": [[1]]})
    with pytest.raises(ValueError, match="^merged order must be a permutation of both bases$"):
        direct_sum(m, other, order=["1", "2", "c1"])


def test_order_above_extension_refuses_a_vertex_that_s_does_not_reach():
    m = thin_representation(quiver(["1", "2", "3"], [("a", "1", "2")]))
    with pytest.raises(ValueError, match=r"^vertices \['3'\] are not connected to S through T-S$"):
        order_above_extension(m, subquiver(m.quiver, ["1"]))


def test_cell_orders_refuse_cells_of_different_types():
    basis = catalog("two_lines").representation.basis
    one, two = cell_index(basis, ["b1"]), cell_index(basis, ["b3"])
    with pytest.raises(ValueError, match="^cells of different type are not comparable$"):
        preceq(basis, one, two)
    with pytest.raises(ValueError, match="^mixed cell types$"):
        cell_partial_orders(basis, [one, two])


def test_grassmannian_fibration_refuses_a_non_tree_and_a_non_invertible_arrow():
    rep = catalog("kronecker_regular(2,0)").representation
    with pytest.raises(PreconditionError, match="^T is not a tree extension of S$"):
        grassmannian_fibration(rep, subquiver(rep.quiver, ["1"]), {"1": 1, "2": 1})
    rep = catalog("two_lines").representation
    with pytest.raises(PreconditionError, match="^arrow 'a' in T-S is not invertible over every field$"):
        grassmannian_fibration(rep, subquiver(rep.quiver, ["1"]), {"1": 1, "2": 1})


def test_grassmannian_fibration_refuses_a_dimension_outside_the_ranks():
    entry = catalog("flag(3;1,2)")
    rep, s = entry.representation, entry.subquiver
    with pytest.raises(ValueError, match="^dimension -1 is negative at vertex '1'$"):
        grassmannian_fibration(rep, s, {"1": -1, "2": 2})
    with pytest.raises(ValueError, match="^dimension 7 exceeds rank 3 at vertex '2'$"):
        grassmannian_fibration(rep, s, {"1": 1, "2": 7})


def test_pi_refuses_a_winding_that_is_not_strictly_ordered():
    entry = catalog("ex_4_5_1")
    up = reorder_basis(entry.upstairs, ["1", "4", "3", "2"])
    beta = cell_index(up.basis, ["3", "4"])
    with pytest.raises(PreconditionError, match="^pi needs a strictly ordered winding$"):
        pi(entry.morphism, up, beta, {})


def test_a_winding_context_refuses_a_foreign_domain_and_an_empty_s():
    entry = catalog("ex_4_5_1")
    up, f = entry.upstairs, entry.morphism
    other = catalog("ex_4_5_2").upstairs
    with pytest.raises(PreconditionError, match="^morphism domain does not match the representation$"):
        WindingContext(other, entry.subquiver, f)
    with pytest.raises(PreconditionError, match="^S must be nonempty$"):
        WindingContext(up, subquiver(up.quiver, []), f)
    # T/S has a double edge, so the deltas would come from a cyclic quotient
    with pytest.raises(PreconditionError, match="^T is not a tree extension of S$"):
        WindingContext(up, subquiver(up.quiver, ["1", "3"]), f)


def test_an_s_on_another_quiver_is_refused_and_not_kept():
    entry = catalog("ex_4_5_1")
    up, f = entry.upstairs, entry.morphism
    # a vertex T lacks, and a quiver with T's vertex names but none of its arrows
    twin = quiver(up.quiver.vertices, [])
    for s in (subquiver(quiver(["9"], []), ["9"]), subquiver(twin, ["1"])):
        for call in (
            lambda: is_tree_extension(up.quiver, s),
            lambda: tree_setup(up, s),
            lambda: WindingContext(up, s, f),
        ):
            with pytest.raises(ValueError, match="^S is a subquiver of another quiver$"):
                call()
        assert not hasattr(s, "_tree_distances")
    assert not hasattr(up, "_tree_setup")


def test_iota_and_pi_refuse_a_morphism_of_another_quiver():
    m = catalog("kronecker_preprojective(2)").upstairs
    f = catalog("kronecker_preinjective(2)").morphism
    beta = cell_index(m.basis, ["2", "3"])
    message = "^morphism domain does not match the representation$"
    with pytest.raises(PreconditionError, match=message):
        iota(f, m, beta, {})
    for _ in range(2):  # a refused check is not kept
        with pytest.raises(PreconditionError, match=message):
            pi(f, m, beta, {("1", "3"): 1})
    assert not hasattr(m, "_strict_winding_setup")


def test_iota_refuses_a_cell_outside_the_basis_as_generate_equations_does():
    entry = catalog("kronecker_preprojective(3)")
    up, f = entry.upstairs, entry.morphism
    stranger = CellIndex(("zz",))
    for call in (lambda: iota(f, up, stranger, {}), lambda: generate_equations(up, stranger, fibred_via=f)):
        with pytest.raises(ValueError, match="^beta is not a subset of the basis$"):
            call()


def test_iota_refuses_a_morphism_that_is_not_a_winding():
    """The two-arrow fold of kronecker_regular(2,0) sends both arrows to one, so it is not a winding."""
    m = catalog("kronecker_regular(2,0)").representation
    codomain = quiver(["x", "y"], [("c", "x", "y")])
    fold = morphism(m.quiver, codomain, {"1": "x", "2": "y"}, {"a": "c", "b": "c"})
    beta = cell_index(m.basis, ["b1"])
    for _ in range(2):  # a refused check is not kept
        with pytest.raises(PreconditionError, match="^iota needs a winding$"):
            iota(fold, m, beta, {})
    assert not hasattr(m, "_winding_setup")


def test_assign_cell_reads_a_subrep_point_and_needs_a_prime_for_raw_matrices():
    entry = catalog("two_lines")
    rep, e = entry.representation, dict(entry.dim_vector)
    points = list(enumerate_subreps(rep, e, 3))
    assert points and all(assign_cell(p, rep) == p.cell for p in points)
    with pytest.raises(ValueError, match="^a prime is required when passing raw matrices$"):
        assign_cell(points[0].subspaces, rep)


def _leibniz(m):
    """The determinant as a signed sum over permutations, with no elimination."""
    total = 0
    for perm in permutations(range(len(m))):
        sign = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@pytest.mark.parametrize(
    "m",
    [
        ((0, 1), (1, 0)),  # a zero pivot, swapped for the row below: -1
        ((0, 2, 1), (0, 3, 4), (5, 6, 7)),  # the swap skips a zero to reach row 3
        ((0, 0), (0, 1)),  # no row below has a nonzero pivot: 0
        ((1, 2, 3), (2, 4, 6), (0, 0, 5)),  # a zero pivot appears after elimination: 0
    ],
)
def test_int_det_swaps_rows_and_stops_at_a_zero_column(m):
    assert int_det(m) == _leibniz(m)


def test_the_cli_needs_a_dim_vector_for_a_file_and_a_winding_for_hypothesis_h(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(representation_to_json(catalog("two_lines").representation))
    for argv, message in (
        (["cells", "--rep", str(path)], "input error: need --dim-vector"),
        (["hypothesis-h", "--catalog", "two_lines"], "input error: hypothesis-h needs a catalog winding"),
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", message + "\n")
