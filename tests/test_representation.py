"""Representations: restriction, push-forward, direct sums, basis orders."""

import random
import re

import pytest

from conftest import random_tree_extension

from quiver_schubert.catalog import catalog
from quiver_schubert.linalg import identity_matrix
from quiver_schubert.quiver import (
    QuiverMorphism,
    compose,
    full_subquiver,
    identity_morphism,
    is_tree,
    is_tree_extension,
    quiver,
    subquiver,
)
from quiver_schubert.representation import (
    OrderedBasis,
    Representation,
    direct_sum,
    is_ordered_above,
    order_above_extension,
    push_forward,
    reorder_basis,
    representation,
    representation_from_json,
    representation_to_json,
    restrict,
    thin_representation,
)


def test_restrict_ex451_to_s():
    e = catalog("ex_4_5_1")
    ms = restrict(e.upstairs, e.subquiver)
    assert ms.quiver.vertices == ("1",)
    assert ms.rank("1") == 1
    assert ms.quiver.arrows == ()


def test_restrict_full_is_identity():
    e = catalog("two_lines")
    rep = e.representation
    full = full_subquiver(rep.quiver, rep.quiver.vertices)
    again = restrict(rep, full)
    assert again.quiver == rep.quiver
    assert again.basis.order == rep.basis.order
    assert again.matrices == dict(rep.matrices)


def test_restrict_flag_drops_arrow():
    e = catalog("flag(2;1,1)")
    s = subquiver(e.representation.quiver, ["1"])
    ms = restrict(e.representation, s)
    assert ms.rank("1") == 2 and ms.quiver.arrows == ()


def test_push_forward_ex451_matrices():
    e = catalog("ex_4_5_1")
    n = e.representation
    # blocks: A = (2, 4), B = (1, 3), rows/cols in increasing basis order
    assert n.basis.block("A") == ("2", "4")
    assert n.basis.block("B") == ("1", "3")
    assert n.matrices["at"] == ((1, 0), (0, 1))
    # gt sends basis 2 -> 3 and 4 -> 0: nilpotent of rank one
    assert n.matrices["gt"] == ((0, 0), (1, 0))


def test_push_forward_identity_morphism():
    e = catalog("two_lines")
    rep = e.representation
    pushed = push_forward(identity_morphism(rep.quiver), rep)
    assert pushed.matrices == dict(rep.matrices)
    assert pushed.basis.order == rep.basis.order


def test_push_forward_preprojective_dimensions():
    e = catalog("kronecker_preprojective(2)")
    assert e.representation.dim_vector() == {"1": 2, "2": 3}
    e1 = catalog("kronecker_preprojective(1)")
    assert e1.representation.dim_vector() == {"1": 1, "2": 2}


def test_push_forward_preserves_cardinality_and_monomial_blocks():
    for spec in ["ex_4_5_1", "ex_4_5_2", "ex_4_5_5", "kronecker_preprojective(2)"]:
        e = catalog(spec)
        m, f, n = e.upstairs, e.morphism, e.representation
        assert len(n.basis.order) == len(m.basis.order)
        # winding: each column of a pushed matrix touches at most one source block
        for at in f.codomain.arrows:
            mat = n.matrices[at.name]
            rows = n.basis.block(at.tgt)
            cols = n.basis.block(at.src)
            for j, bc in enumerate(cols):
                touched = {
                    m.basis.vertex_of[rows[i]] for i in range(len(rows)) if mat[i][j]
                }
                assert len(touched) <= 1


def test_push_forward_functorial():
    e = catalog("kronecker_preprojective(2)")
    m, f = e.upstairs, e.morphism
    loops = quiver(["w"], [("l1", "w", "w"), ("l2", "w", "w")])
    g = QuiverMorphism(
        f.codomain, loops, {"1": "w", "2": "w"}, {"at": "l1", "gt": "l2"}
    )
    left = push_forward(compose(g, f), m)
    right = push_forward(g, push_forward(f, m))
    assert left.basis.order == right.basis.order
    assert left.basis.vertex_of == right.basis.vertex_of
    assert left.matrices == right.matrices


def test_direct_sum_zero_summand():
    e = catalog("one_vertex(2)")
    rep = e.representation
    zero = representation(
        rep.quiver, OrderedBasis((), {}), {}
    )
    total = direct_sum(rep, zero)
    assert total.basis.order == rep.basis.order
    assert total.dim_vector() == rep.dim_vector()


def test_direct_sum_two_lines_reconstructs_disconnected():
    # restriction to components of a disconnected quiver, then direct sum
    q = quiver(["1", "2"], [])
    b = OrderedBasis(("x1", "x2", "y1"), {"x1": "1", "x2": "1", "y1": "2"})
    rep = representation(q, b, {})
    left = restrict(rep, subquiver(q, ["1"]))
    right = restrict(rep, subquiver(q, ["2"]))
    rebuilt = direct_sum(
        _on_quiver(left, q), _on_quiver(right, q), order=rep.basis.order
    )
    assert rebuilt.basis.order == rep.basis.order
    assert rebuilt.dim_vector() == rep.dim_vector()


def _on_quiver(rep, q):
    return representation(q, rep.basis, rep.matrices)


def test_direct_sum_rank_one_modules():
    q = quiver(["1"], [])
    m1 = representation(q, OrderedBasis(("a",), {"a": "1"}), {})
    m2 = representation(q, OrderedBasis(("b",), {"b": "1"}), {})
    assert direct_sum(m1, m2).rank("1") == 2


def test_pi_model_matches_jordan_chain():
    # P + I over equioriented A_2 equals the J(0) chain model for n = 2
    chain = catalog("degenerate_flag(2)").representation
    pi_model = catalog("degenerate_flag_pi(2)").representation
    assert chain.dim_vector() == {"1": 3, "2": 3}
    assert pi_model.dim_vector() == chain.dim_vector()
    assert pi_model.matrices["a1"] == chain.matrices["a1"]


def test_is_ordered_above_examples():
    e = catalog("ex_4_5_1")
    ok, diag = is_ordered_above(e.upstairs, e.subquiver)
    assert ok, diag

    f = catalog("flag(3;1,2)")
    ok, diag = is_ordered_above(f.representation, f.subquiver)
    assert ok, diag

    reversed_rep = reorder_basis(
        f.representation, tuple(reversed(f.representation.basis.order))
    )
    ok, diag = is_ordered_above(reversed_rep, f.subquiver)
    assert not ok
    assert any("B_S <= B" in d for d in diag)


def _ordered_by_every_path(m, s) -> bool:
    """The order-above-S condition, with its path clause checked on every simple path.

    Every undirected path that starts in S and then stays outside S must
    strictly increase in the vertex order of the basis blocks.
    """
    pos = m.basis.positions()
    in_s = [pos[b] for b in m.basis.order if m.basis.vertex_of[b] in s.vertices]
    rest = [pos[b] for b in m.basis.order if m.basis.vertex_of[b] not in s.vertices]
    if in_s and rest and max(in_s) > min(rest):
        return False
    try:
        key = m.basis.vertex_key(m.quiver.vertices)
    except ValueError:
        return False
    steps = {v: [] for v in m.quiver.vertices}
    for a in m.quiver.arrows:
        if a.name not in s.arrows:
            if m.matrices[a.name] != identity_matrix(m.rank(a.src)):
                return False
            steps[a.src].append(a.tgt)
            steps[a.tgt].append(a.src)

    def increasing(path) -> bool:
        here = path[-1]
        return all(
            key.get(nxt, -1) > key.get(here, -1) and increasing(path + [nxt])
            for nxt in steps[here]
            if nxt not in s.vertices and nxt not in path
        )

    return all(increasing([v]) for v in s.vertices)


def _tree_extensions_for_order_checks():
    """Catalog and seeded tree extensions, over their own S and over each single vertex of a tree."""
    specs = ["flag(3;1,2)", "flag(4;1,2,3)", "flag(5;1,2,3,4)", "ex_4_5_1", "ex_4_5_2", "ex_4_5_5"]
    specs += [f"kronecker_{kind}({n})" for kind in ("preprojective", "preinjective") for n in (1, 2, 3)]
    modules = []
    for spec in specs:
        entry = catalog(spec)
        modules.append((entry.upstairs or entry.representation, entry.subquiver))
    modules += [random_tree_extension(seed)[:2] for seed in range(40)]
    for m, s in modules:
        yield m, s
        if is_tree(m.quiver):
            for v in m.quiver.vertices:
                yield m, subquiver(m.quiver, [v])


def test_is_ordered_above_matches_every_path():
    rng = random.Random(14)
    verdicts = []
    for m, s in _tree_extensions_for_order_checks():
        assert is_tree_extension(m.quiver, s)
        vertices = list(m.quiver.vertices)
        orders = []
        for _ in range(3):
            rng.shuffle(vertices)
            orders.append([b for v in vertices for b in m.basis.block(v)])
            orders.append(rng.sample(m.basis.order, len(m.basis.order)))
        for order in [m.basis.order] + orders:
            rep = reorder_basis(m, order)
            ok, diag = is_ordered_above(rep, s)
            assert ok == (not diag) == _ordered_by_every_path(rep, s), (order, diag)
            verdicts.append(ok)
    # both verdicts are compared many times
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 500


def test_order_checks_name_a_non_identity_arrow_alike():
    # 1 -a-> 2 -b-> 3 with S = {1}: a and b lie in T-S, and only b is not the identity
    q = quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    basis = OrderedBasis(("x", "y", "z"), {"x": "1", "y": "2", "z": "3"})
    rep = representation(q, basis, {"a": [[1]], "b": [[2]]})
    s = subquiver(q, ["1"])
    ok, diag = is_ordered_above(rep, s)
    assert not ok and diag == ["arrow 'b' in T-S is not the identity matrix"]
    with pytest.raises(ValueError) as raised:
        order_above_extension(rep, s)
    assert str(raised.value) == diag[0]


def test_is_ordered_above_refuses_what_is_not_a_tree_extension():
    basis = OrderedBasis(("x", "y", "z"), {"x": "1", "y": "2", "z": "3"})
    # S plus an isolated vertex, and a triangle whose arrow 1 -> 3 closes a cycle through S
    isolated = representation(quiver(["1", "2", "3"], [("a", "1", "2")]), basis, {"a": [[1]]})
    triangle = quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])
    triangle = representation(triangle, basis, {"a": [[1]], "b": [[1]], "c": [[1]]})
    for rep in (isolated, triangle):
        assert is_ordered_above(rep, subquiver(rep.quiver, ["1"])) == (False, ["T is not a tree extension of S"])
    # over the empty S the path clause is vacuous
    line = quiver(["1", "2"], [("a", "1", "2")])
    line = representation(line, OrderedBasis(("y", "x"), {"x": "1", "y": "2"}), {"a": [[1]]})
    assert is_ordered_above(line, subquiver(line.quiver, [])) == (True, [])


def test_a_matrix_on_an_arrow_with_an_empty_side_is_validated():
    q = quiver(["1", "2"], [("a", "1", "2")])
    into = OrderedBasis(("x",), {"x": "2"})  # the source block of a is empty
    for given in ([], [[]]):
        assert representation(q, into, {"a": given}).matrices["a"] == ((),)
    with pytest.raises(ValueError, match=r"^arrow 'a': matrix has 2 rows, expected 1; arrow 'a': row 1 has 1 entries"):
        representation(q, into, {"a": [[1.7], [5, 6, 7]]})
    out_of = OrderedBasis(("x",), {"x": "1"})  # the target block of a is empty
    assert representation(q, out_of, {"a": []}).matrices["a"] == ()
    with pytest.raises(ValueError, match=r"^arrow 'a': matrix has 1 rows, expected 0; arrow 'a': row 1 has 0 entries"):
        representation(q, out_of, {"a": [[]]})


def test_reorder_basis_keeps_module():
    e = catalog("two_lines")
    rep = e.representation
    flipped = reorder_basis(rep, ("b2", "b1", "b3", "b4"))
    # rows of the matrix follow the block order, so entries permute
    assert flipped.matrices["a"] == ((0, 1), (0, 0))
    assert reorder_basis(flipped, rep.basis.order).matrices == dict(rep.matrices)


def test_thin_representation_identity_matrices():
    t = catalog("ex_4_5_1").upstairs
    for a in t.quiver.arrows:
        assert t.matrices[a.name] == identity_matrix(1)


def test_representation_json_round_trip():
    for spec in ["two_lines", "kronecker_regular(2,1)", "degenerate_flag(2)"]:
        rep = catalog(spec).representation
        text = representation_to_json(rep)
        again = representation_to_json(representation_from_json(text))
        assert text == again


def test_zero_rank_vertices_allowed():
    q = quiver(["1", "2"], [("a", "1", "2")])
    b = OrderedBasis(("x",), {"x": "2"})
    rep = representation(q, b, {"a": []})
    assert rep.rank("1") == 0 and rep.rank("2") == 1


def test_validate_reports_the_problems_of_the_quiver():
    q = quiver(["1", "1", "2"], [("a", "1", "3")])
    basis = OrderedBasis(("b1",), {"b1": "1"})
    problems = Representation(q, basis, {"a": ()}).validate()
    assert problems[:2] == ["duplicate vertex id '1'", "dangling endpoint: arrow 'a' target '3'"]
    with pytest.raises(ValueError, match="^duplicate vertex id '1'$"):
        representation(quiver(["1", "1"], []), basis, {})


def test_validate_refuses_ragged_rows_and_entries_that_are_not_integers():
    q = quiver(["1", "2"], [("a", "1", "2")])
    basis = OrderedBasis(("b1", "b2", "b3"), {"b1": "1", "b2": "1", "b3": "2"})
    with pytest.raises(ValueError, match=r"^arrow 'a': row 1 has 1 entries, expected 2$"):
        representation(q, basis, {"a": [[1]]})
    with pytest.raises(ValueError, match=r"^arrow 'a': matrix has 2 rows, expected 1$"):
        representation(q, basis, {"a": [[1, 0], [0, 1]]})
    for bad in (1.0, "1", True, None):
        with pytest.raises(ValueError, match=rf"^arrow 'a': entry \(1, 2\) is {re.escape(repr(bad))}, not an integer$"):
            representation(q, basis, {"a": [[1, bad]]})
    assert representation(q, basis, {"a": [[1, -1]]}).matrices["a"] == ((1, -1),)
