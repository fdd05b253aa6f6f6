"""Relevant pairs, triple types, and the Hypothesis (H) decision procedure."""

import json

import pytest

from conftest import fold_winding
from quiver_schubert.catalog import catalog
from quiver_schubert.hypothesis_h import (
    TripleType,
    WindingContext,
    check_hypothesis_h,
    classify_triple,
    relevant_pairs,
)
from quiver_schubert.quiver import Quiver, full_subquiver
from quiver_schubert.schubert import PreconditionError


def ctx_451():
    e = catalog("ex_4_5_1")
    return WindingContext(e.upstairs, e.subquiver, e.morphism)


def test_relevant_pairs_ex451():
    pairs = {(p.p, p.p_prime) for p in relevant_pairs(ctx_451())}
    assert pairs == {("2", "2"), ("4", "4"), ("3", "3"), ("2", "4"), ("1", "3")}


def test_relevant_pairs_empty_when_s_is_everything():
    e = catalog("ex_4_5_1")
    s = full_subquiver(e.upstairs.quiver, e.upstairs.quiver.vertices)
    ctx = WindingContext(e.upstairs, s, e.morphism)
    assert relevant_pairs(ctx) == []


def test_epsilon_delta_values():
    ctx = ctx_451()
    assert ctx.epsilon("2", "4") == 1
    assert ctx.epsilon("2", "2") == 0
    assert ctx.delta("2", "4") == 3  # d(2)=1, d(4)=3
    assert ctx.delta("1", "3") == 2


def test_psi_injective_on_relevant_pairs():
    for spec in ["ex_4_5_1", "ex_4_5_2", "kronecker_preprojective(3)", "ex_4_5_5"]:
        e = catalog(spec)
        ctx = WindingContext(e.upstairs, e.subquiver, e.morphism)
        keys = [ctx.psi_key(p.p, p.p_prime) for p in relevant_pairs(ctx)]
        assert len(set(keys)) == len(keys)


def test_classify_triples_ex451():
    ctx = ctx_451()
    assert classify_triple(ctx, "gt", "1", "4") is TripleType.T5
    assert classify_triple(ctx, "at", "1", "2") is TripleType.T1
    assert classify_triple(ctx, "at", "3", "2") is TripleType.T0
    assert classify_triple(ctx, "at", "1", "4") is TripleType.T2A
    assert classify_triple(ctx, "gt", "1", "2") is TripleType.T3A


def test_classification_total_and_order_independent():
    for spec in ["ex_4_5_1", "ex_4_5_2", "kronecker_preprojective(2)", "ex_4_5_5"]:
        e = catalog(spec)
        ctx = WindingContext(e.upstairs, e.subquiver, e.morphism)
        types = {}
        for at in e.morphism.codomain.arrows:
            for t in ctx.fibre(at.tgt):
                for s in ctx.fibre(at.src):
                    types[(at.name, t, s)] = classify_triple(ctx, at.name, t, s)
        # same quiver with the arrow tuple reversed must classify identically
        t_quiver = e.upstairs.quiver
        reversed_quiver = Quiver(t_quiver.vertices, tuple(reversed(t_quiver.arrows)))
        rep2 = type(e.upstairs)(reversed_quiver, e.upstairs.basis, e.upstairs.matrices)
        sub2 = type(e.subquiver)(reversed_quiver, e.subquiver.vertices, e.subquiver.arrows)
        mor2 = type(e.morphism)(
            reversed_quiver, e.morphism.codomain, e.morphism.vertex_map, e.morphism.arrow_map
        )
        ctx2 = WindingContext(rep2, sub2, mor2)
        for key, value in types.items():
            assert classify_triple(ctx2, *key) is value


def test_check_h_ex451_fails_with_t5_witness():
    e = catalog("ex_4_5_1")
    result = check_hypothesis_h(e.upstairs, e.subquiver, e.morphism)
    assert not result.passed
    assert result.pair == ("2", "4")
    reported = {(tr.triple, tr.type) for tr in result.triples}
    assert (("gt", "1", "4"), TripleType.T5) in reported
    data = json.loads(result.witness_json())
    assert data["pair"] == ["2", "4"]
    assert {"triple": ["gt", "1", "4"], "type": "T5"} in data["triples"]


def test_check_h_ex452_fails():
    e = catalog("ex_4_5_2")
    result = check_hypothesis_h(e.upstairs, e.subquiver, e.morphism)
    assert not result.passed


def test_check_h_preprojective_passes():
    for n in (1, 2, 3):
        e = catalog(f"kronecker_preprojective({n})")
        result = check_hypothesis_h(e.upstairs, e.subquiver, e.morphism)
        assert result.passed, (n, result.reason)


def test_check_h_ex455_passes():
    e = catalog("ex_4_5_5")
    result = check_hypothesis_h(e.upstairs, e.subquiver, e.morphism)
    assert result.passed, result.reason


def test_check_h_fold_passes():
    base = catalog("flag(2;1,1)").representation
    upstairs, s, fold = fold_winding(base, ["1"])
    result = check_hypothesis_h(upstairs, s, fold)
    assert result.passed, result.reason


def test_check_h_preinjective_boundary():
    # n = 1 satisfies (H); for n >= 2 the pair (3,5) carries two dominant
    # equations (one over each Kronecker arrow), so the check must fail.
    assert check_hypothesis_h(
        *_unpack(catalog("kronecker_preinjective(1)"))
    ).passed
    result = check_hypothesis_h(*_unpack(catalog("kronecker_preinjective(2)")))
    assert not result.passed
    assert result.pair == ("3", "5")


def _unpack(entry):
    return entry.upstairs, entry.subquiver, entry.morphism


def test_check_h_precondition_errors_are_distinct():
    e = catalog("ex_4_5_1")
    # contracting {1,3} leaves parallel edges from vertex 2: not a tree extension
    bad_s = full_subquiver(e.upstairs.quiver, ["1", "3"])
    with pytest.raises(PreconditionError):
        check_hypothesis_h(e.upstairs, bad_s, e.morphism)
    # S = {2} breaks the order-above condition (its block is not at the bottom)
    bad_order = full_subquiver(e.upstairs.quiver, ["2"])
    with pytest.raises(PreconditionError):
        check_hypothesis_h(e.upstairs, bad_order, e.morphism)


def test_pass_implies_empty_iff_empty():
    from quiver_schubert.oracle import cell_count
    from quiver_schubert.schubert import cell_index, tree_cell_emptiness

    for spec in ["kronecker_preprojective(2)", "kronecker_preprojective(3)"]:
        e = catalog(spec)
        m = e.upstairs
        from itertools import combinations

        for r in range(len(m.basis.order) + 1):
            for elems in combinations(m.basis.order, r):
                beta = cell_index(m.basis, elems)
                empty = tree_cell_emptiness(m, e.subquiver, beta, base_is_empty=False)
                pushed_count = cell_count(e.representation, cell_index(e.representation.basis, elems), 2)
                assert (pushed_count == 0) == empty, (spec, elems)


def test_notes_are_distinct_for_every_catalog_winding():
    specs = [f"kronecker_{kind}({n})" for kind in ("preprojective", "preinjective") for n in (1, 2, 3)]
    for spec in specs + ["ex_4_5_1", "ex_4_5_2", "ex_4_5_5"]:
        e = catalog(spec)
        notes = check_hypothesis_h(e.upstairs, e.subquiver, e.morphism).notes
        assert len(notes) == len(set(notes)), spec
    e = catalog("ex_4_5_5")
    assert len(check_hypothesis_h(e.upstairs, e.subquiver, e.morphism).notes) == 2
