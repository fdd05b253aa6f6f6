"""Schubert cells: enumeration, equations, tree theorems, comparison maps."""

import random
from itertools import combinations

import pytest

from conftest import chart_coordinates, fold_winding
from quiver_schubert.catalog import catalog
from quiver_schubert.linalg import column_echelon_max_pivot
from quiver_schubert.oracle import _cell_points, assign_cell, cell_count
from quiver_schubert.quiver import full_subquiver, subquiver
from quiver_schubert.representation import restrict
from quiver_schubert.schubert import (
    PreconditionError,
    block_leq,
    cell_index,
    cell_partial_orders,
    cell_type,
    enumerate_cells,
    generate_equations,
    grassmannian_fibration,
    iota,
    pi,
    preceq,
    tree_cell_dimension,
    tree_cell_emptiness,
)


def test_enumerate_cells_two_lines():
    rep = catalog("two_lines").representation
    cells = enumerate_cells(rep.basis, {"1": 1, "2": 1}, rep.quiver.vertices)
    assert [c.key() for c in cells] == ["b1,b3", "b1,b4", "b2,b3", "b2,b4"]


def test_enumerate_cells_trivial_and_binomial():
    rep = catalog("two_lines").representation
    assert len(enumerate_cells(rep.basis, {}, rep.quiver.vertices)) == 1
    one = catalog("one_vertex(4)").representation
    assert len(enumerate_cells(one.basis, {"1": 2}, one.quiver.vertices)) == 6


def test_enumerate_cells_rank_guard():
    rep = catalog("one_vertex(2)").representation
    with pytest.raises(ValueError):
        enumerate_cells(rep.basis, {"1": 3}, rep.quiver.vertices)


def test_equations_ex451():
    e = catalog("ex_4_5_1")
    system = generate_equations(e.upstairs, cell_index(e.upstairs.basis, ["3", "4"]), fibred_via=e.morphism)
    assert system.variables == (("1", "3"), ("2", "4"))
    rendered = {eq.poly.render(system.var_names()) for eq in system.equations}
    assert rendered == {"w_{1,3} - w_{2,4}", "w_{1,3}*w_{2,4}"}
    triples = {eq.triple for eq in system.equations}
    assert triples == {("at", "1", "4"), ("gt", "1", "4")}


def test_equations_ex452():
    e = catalog("ex_4_5_2")
    system = generate_equations(
        e.upstairs, cell_index(e.upstairs.basis, ["2", "3", "7"]), fibred_via=e.morphism
    )
    assert len(system.equations) == 1
    eq = system.equations[0]
    assert eq.triple == ("at", "1", "7")
    assert eq.poly.render(system.var_names()) == "w_{1,2}*w_{4,7} + w_{1,3}*w_{5,7}"


def test_equations_full_beta_empty_system():
    e = catalog("ex_4_5_1")
    beta = cell_index(e.upstairs.basis, list(e.upstairs.basis.order))
    system = generate_equations(e.upstairs, beta, fibred_via=e.morphism)
    assert system.equations == ()


def test_equations_identity_winding_two_lines():
    rep = catalog("two_lines").representation
    sys_24 = generate_equations(rep, cell_index(rep.basis, ["b2", "b4"]))
    renders = {eq.poly.render(sys_24.var_names()) for eq in sys_24.equations}
    assert renders in ({"w_{b1,b2}"}, {"-w_{b1,b2}"})  # cell is the line v = 0
    sys_14 = generate_equations(rep, cell_index(rep.basis, ["b1", "b4"]))
    renders = {eq.poly.render(sys_14.var_names()) for eq in sys_14.equations}
    assert renders in ({"1"}, {"-1"})  # inconsistent: the cell is empty


def test_equation_solutions_match_cell_points():
    """Dual route on every small catalog example: generated-system solutions
    must equal the oracle's chart enumeration, cell by cell."""
    specs = [
        "one_vertex(3)",
        "two_lines",
        "one_loop(3,0)",
        "one_loop(2,1)",
        "kronecker_regular(2,0)",
        "kronecker_regular(2,1)",
        "flag(2;1,1)",
        "flag(3;1,2)",
        "degenerate_flag(2)",
        "degenerate_flag_pi(2)",
        "kronecker_preprojective(1)",
        "kronecker_preprojective(2)",
        "kronecker_preinjective(2)",
        "ex_4_5_1",
        "ex_4_5_2",
        "forest_block(2,8)",
    ]
    for spec in specs:
        entry = catalog(spec)
        rep = entry.representation
        if sum(rep.dim_vector().values()) > 12:
            continue
        e = dict(entry.dim_vector)
        for beta in enumerate_cells(rep.basis, e, rep.quiver.vertices):
            system = generate_equations(rep, beta)
            for q in (2, 3):
                direct = cell_count(rep, beta, q)
                via_equations = sum(1 for _ in system.solutions(q))
                assert direct == via_equations, (spec, beta.key(), q)


def test_winding_equation_solutions_match_pushed_cells():
    """Dual route for push-forward systems: solution counts of the generated
    equations equal the oracle's counts on the pushed module, cell by cell."""
    from quiver_schubert.representation import push_forward

    setups = []
    for spec in ["ex_4_5_1", "ex_4_5_2", "kronecker_preprojective(1)",
                 "kronecker_preprojective(2)", "kronecker_preinjective(2)"]:
        entry = catalog(spec)
        setups.append((spec, entry.upstairs, entry.morphism, entry.representation))
    base = catalog("flag(2;1,1)").representation
    upstairs, _, fold = fold_winding(base, ["1"])
    setups.append(("fold", upstairs, fold, push_forward(fold, upstairs)))

    for name, m, f, pushed in setups:
        for r in range(len(m.basis.order) + 1):
            for elems in combinations(m.basis.order, r):
                types = {}
                for b in elems:
                    v = pushed.basis.vertex_of[b]
                    types[v] = types.get(v, 0) + 1
                if name == "fold" and any(t != 1 for t in types.values()):
                    continue
                system = generate_equations(m, cell_index(m.basis, elems), fibred_via=f)
                if len(system.variables) > 8:
                    continue
                beta_n = cell_index(pushed.basis, elems)
                for q in (2, 3):
                    direct = cell_count(pushed, beta_n, q)
                    via_equations = sum(1 for _ in system.solutions(q))
                    assert direct == via_equations, (name, elems, q)


def test_cell_points_round_trip_assign_cell():
    for spec, e in [
        ("two_lines", {"1": 1, "2": 1}),
        ("ex_4_5_1", {"A": 1, "B": 1}),
        ("degenerate_flag(2)", {"1": 1, "2": 2}),
    ]:
        rep = catalog(spec).representation
        for beta in enumerate_cells(rep.basis, e, rep.quiver.vertices):
            for q in (2, 3):
                for point in _cell_points(rep, beta, q):
                    assert assign_cell(point, rep.basis, q).key() == beta.key()


def test_tree_cell_emptiness_flag():
    entry = catalog("flag(2;1,1)")
    rep, s = entry.representation, entry.subquiver
    assert tree_cell_emptiness(rep, s, cell_index(rep.basis, ["b1", "b4"]))
    assert not tree_cell_emptiness(rep, s, cell_index(rep.basis, ["b2", "b4"]))
    # oracle agreement, including the Case I formula example at e = (0, 1)
    for q in (2, 3):
        assert cell_count(rep, cell_index(rep.basis, ["b1", "b4"]), q) == 0
        assert cell_count(rep, cell_index(rep.basis, ["b2", "b4"]), q) == q
        assert cell_count(rep, cell_index(rep.basis, ["b4"]), q) == q


def test_tree_cell_emptiness_one_vertex_base():
    entry = catalog("flag(3;1,2)")
    rep, s = entry.representation, entry.subquiver
    for beta in enumerate_cells(rep.basis, {"1": 1, "2": 1}, rep.quiver.vertices):
        empty = tree_cell_emptiness(rep, s, beta)
        beta_s = [b for b in beta.elements if rep.basis.vertex_of[b] == "1"]
        # over a one-vertex S the base cell is always nonempty
        if not empty:
            assert cell_count(rep, beta, 2) > 0


def test_tree_cell_dimension_examples():
    entry = catalog("flag(2;1,1)")
    rep, s = entry.representation, entry.subquiver
    assert tree_cell_dimension(rep, s, cell_index(rep.basis, ["b2", "b4"])) == 0
    assert tree_cell_dimension(rep, s, cell_index(rep.basis, ["b4"])) == 1
    assert tree_cell_dimension(rep, s, cell_index(rep.basis, ["b1", "b3"])) == 0
    with pytest.raises(ValueError):
        tree_cell_dimension(rep, s, cell_index(rep.basis, ["b1", "b4"]))


def test_tree_cell_dimension_matches_oracle_and_peel_order():
    for spec, dims in [("flag(3;1,2)", {"1": 1, "2": 2}), ("flag(4;1,2,3)", {"1": 1, "2": 2, "3": 3})]:
        entry = catalog(spec)
        rep, s = entry.representation, entry.subquiver
        ms = restrict(rep, s)
        for beta in enumerate_cells(rep.basis, dims, rep.quiver.vertices):
            empty = tree_cell_emptiness(rep, s, beta)
            if empty:
                for q in (2, 3):
                    assert cell_count(rep, beta, q) == 0
                continue
            n = tree_cell_dimension(rep, s, beta)
            assert n == tree_cell_dimension(rep, s, beta, peel="smallest")
            beta_s = cell_index(ms.basis, [b for b in beta.elements if b in set(ms.basis.order)])
            for q in (2, 3, 5):
                assert cell_count(rep, beta, q) == cell_count(ms, beta_s, q) * q**n


def test_tree_cell_dimension_precondition():
    entry = catalog("kronecker_regular(2,0)")
    rep = entry.representation
    s = subquiver(rep.quiver, ["1"])
    with pytest.raises(PreconditionError):
        tree_cell_dimension(rep, s, cell_index(rep.basis, ["b1", "b3"]))


def test_grassmannian_fibration_counts():
    entry = catalog("flag(3;1,2)")
    rep, s = entry.representation, entry.subquiver
    from quiver_schubert.linalg import gaussian_binomial
    from quiver_schubert.oracle import count

    e = {"1": 1, "2": 2}
    fibres = grassmannian_fibration(rep, s, e)
    assert fibres == [(1, 2)]
    ms = restrict(rep, s)
    for q in (2, 3):
        total = count(rep, e, primes=[q])[0].total
        base = count(ms, {"1": 1}, primes=[q])[0].total
        expected = base
        for ee, mm in fibres:
            expected *= gaussian_binomial(mm, ee, q)
        assert total == expected


def test_iota_pi_retraction_and_equations():
    entry = catalog("kronecker_preprojective(2)")
    m, f = entry.upstairs, entry.morphism
    q = 5
    seen = 0
    for r in range(len(m.basis.order) + 1):
        for elems in combinations(m.basis.order, r):
            beta = cell_index(m.basis, elems)
            sys_m = generate_equations(m, beta)
            sys_n = generate_equations(m, beta, fibred_via=f)
            for matrices in _cell_points(m, beta, q):
                coords = chart_coordinates(m, beta, matrices)
                up = iota(f, m, beta, coords)
                vals = [up.get(v, 0) for v in sys_n.variables]
                assert sys_n.is_satisfied(vals, q)
                down = pi(f, m, beta, up)
                assert {k: v for k, v in down.items() if v} == {
                    k: v for k, v in coords.items() if v
                }
                seen += 1
    assert seen >= 10


def test_iota_unique_point_ex451():
    e = catalog("ex_4_5_1")
    m, f = e.upstairs, e.morphism
    beta = cell_index(m.basis, ["3", "4"])
    # the pushed cell has the single F_q point w13 = w24 = 0; pi lands on the
    # diagonal point of the T-module cell and satisfies its equations
    system_n = generate_equations(m, beta, fibred_via=f)
    point = {pair: 0 for pair in system_n.variables}
    assert system_n.is_satisfied([0] * len(system_n.variables), 5)
    down = pi(f, m, beta, point)
    system_m = generate_equations(m, beta)
    vals = [down.get(v, 0) for v in system_m.variables]
    assert system_m.is_satisfied(vals, 5)


def test_pi_strips_cross_block_for_fold():
    base = catalog("flag(2;1,1)").representation
    upstairs, s, fold = fold_winding(base, ["1"])
    q = 5
    beta = None
    cells = enumerate_cells(
        upstairs.basis, {"1": 1, "1'": 1, "2": 1, "2'": 1}, upstairs.quiver.vertices
    )
    checked = 0
    for beta in cells:
        sys_n = generate_equations(upstairs, beta, fibred_via=fold)
        for values in sys_n.solutions(q):
            point = dict(zip(sys_n.variables, values))
            if not any(
                v and upstairs.basis.vertex_of[bp] != upstairs.basis.vertex_of[b]
                for (bp, b), v in point.items()
            ):
                continue
            down = pi(fold, upstairs, beta, point)
            # diagonal part still satisfies the system
            vals = [down.get(v, 0) for v in sys_n.variables]
            assert sys_n.is_satisfied(vals, q)
            checked += 1
            if checked >= 5:
                return
    assert checked, "no cross-block point found to exercise pi"


def test_cell_partial_orders_examples():
    rep = catalog("two_lines").representation
    cells = enumerate_cells(rep.basis, {"1": 1, "2": 1}, rep.quiver.vertices)
    pre, blk = cell_partial_orders(rep.basis, cells)
    assert pre[("b1,b3", "b2,b4")] is True
    for c in cells:
        assert pre[(c.key(), c.key())] is True  # reflexive
    assert pre[("b2,b3", "b1,b4")] is False and pre[("b1,b4", "b2,b3")] is False


def test_preceq_is_partial_order():
    rep = catalog("one_vertex(4)").representation
    cells = enumerate_cells(rep.basis, {"1": 2}, rep.quiver.vertices)
    for a in cells:
        for b in cells:
            if preceq(rep.basis, a, b) and preceq(rep.basis, b, a):
                assert a.key() == b.key()
            for c in cells:
                if preceq(rep.basis, a, b) and preceq(rep.basis, b, c):
                    assert preceq(rep.basis, a, c)


def test_block_leq_examples():
    rep = catalog("flag(2;1,1)").representation
    b = rep.basis
    assert block_leq(b, cell_index(b, ["b1"]), cell_index(b, ["b2"]))
    assert not block_leq(b, cell_index(b, ["b2"]), cell_index(b, ["b1"]))
    assert block_leq(b, cell_index(b, []), cell_index(b, ["b1"]))


def test_closure_specialisation_respects_preceq():
    """Staircase degenerations of a cell land only in preceq-smaller cells."""
    rng = random.Random(11)
    for spec, e in [("two_lines", {"1": 1, "2": 1}), ("degenerate_flag(2)", {"1": 1, "2": 1})]:
        rep = catalog(spec).representation
        pos = {b: i for i, b in enumerate(rep.basis.order)}
        for gamma in enumerate_cells(rep.basis, e, rep.quiver.vertices):
            for q in (2, 3):
                for _ in range(25):
                    subspaces = {}
                    ok = True
                    for v in rep.quiver.vertices:
                        block = rep.basis.block(v)
                        pivots = [b for b in gamma.elements if rep.basis.vertex_of[b] == v]
                        cols = []
                        for c in pivots:
                            col = [
                                rng.randrange(q) if pos[b] <= pos[c] else 0 for b in block
                            ]
                            cols.append(col)
                        canon, piv = column_echelon_max_pivot(cols, q)
                        if len(piv) != len(pivots):
                            ok = False
                            break
                        mat = tuple(
                            tuple(canon[j][r] for j in range(len(canon)))
                            for r in range(len(block))
                        )
                        subspaces[v] = mat
                    if not ok:
                        continue
                    beta = assign_cell(subspaces, rep.basis, q)
                    assert preceq(rep.basis, beta, gamma), (spec, beta.key(), gamma.key())


def test_cell_type():
    rep = catalog("two_lines").representation
    beta = cell_index(rep.basis, ["b2", "b4"])
    assert cell_type(rep.basis, beta) == {"1": 1, "2": 1}


def _flag_over_two_vertices():
    entry = catalog("flag(4;1,2,3)")
    rep = entry.representation
    s = full_subquiver(rep.quiver, ["1", "2"])
    cells = enumerate_cells(rep.basis, entry.dim_vector, rep.quiver.vertices)
    return rep, s, cells


def test_tree_cell_emptiness_needs_base_decision_when_s_has_arrows():
    rep, s, cells = _flag_over_two_vertices()
    assert s.arrows == {"a1"}
    for beta in (cells[0], cells[-1]):
        with pytest.raises(PreconditionError):
            tree_cell_emptiness(rep, s, beta)


def test_tree_cell_emptiness_with_oracle_base_decision():
    rep, s, cells = _flag_over_two_vertices()
    ms = restrict(rep, s)
    s_ids = set(ms.basis.order)
    empty = 0
    for beta in cells:
        beta_s = cell_index(ms.basis, [b for b in beta.elements if b in s_ids])
        base_is_empty = all(cell_count(ms, beta_s, q) == 0 for q in (2, 3))
        decided = tree_cell_emptiness(rep, s, beta, base_is_empty=base_is_empty)
        assert decided == (cell_count(rep, beta, 2) == 0), beta.key()
        empty += decided
    assert (len(cells), empty) == (96, 72)
