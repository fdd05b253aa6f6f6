"""Relevant pairs, triple types, and the Hypothesis (H) decision procedure."""

import json
from functools import lru_cache

import pytest

from conftest import (
    fold_winding,
    random_tree_extension,
    random_winding,
    reference_check_hypothesis_h,
    reference_triple,
)
from quiver_schubert import hypothesis_h
from quiver_schubert.catalog import catalog
from quiver_schubert.hypothesis_h import (
    TripleType,
    WindingContext,
    check_hypothesis_h,
    classify_triple,
    relevant_pairs,
)
from quiver_schubert.quiver import Quiver, full_subquiver, is_strictly_ordered
from quiver_schubert.schubert import PreconditionError, tree_setup
from test_structural_pins import _record


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


@lru_cache(maxsize=1)
def _h_inputs():
    """(name, M, S, F) for the checks against the reference: small catalog
    windings, and seeded tree extensions under a random winding and folded."""
    inputs = []
    for kind in ("preprojective", "preinjective"):
        for n in range(1, 13):
            e = catalog(f"kronecker_{kind}({n})")
            inputs.append((f"kronecker_{kind}({n})", e.upstairs, e.subquiver, e.morphism))
    for spec in ("ex_4_5_1", "ex_4_5_2", "ex_4_5_5"):
        e = catalog(spec)
        inputs.append((spec, e.upstairs, e.subquiver, e.morphism))
    for seed in range(400):
        rep, s, _e = random_tree_extension(seed, 14)
        inputs.append((f"seed {seed}", rep, s, random_winding(seed, domain=rep.quiver)))
        inputs.append((f"seed {seed} folded", *fold_winding(rep, s.vertices, s.arrows)))
    return inputs


def _outcome(check, rep, s, f) -> str:
    try:
        return _record(check(rep, s, f))
    except PreconditionError as exc:
        return f"PreconditionError: {exc}"


def test_check_h_matches_the_reference_on_every_input():
    looped = 0
    for name, rep, s, f in _h_inputs():
        expected = _outcome(reference_check_hypothesis_h, rep, s, f)
        assert _outcome(check_hypothesis_h, rep, s, f) == expected, name
        looped += not expected.startswith(("PreconditionError", '[false, "morphism is not'))
    assert looped > 400  # most inputs reach the triple loop


def _looped_contexts():
    """(name, context, F) for each input of `_h_inputs` that reaches the triple loop."""
    for name, rep, sub, f in _h_inputs():
        try:
            tree_setup(rep, sub)
            ctx = WindingContext(rep, sub, f)
        except PreconditionError:
            continue
        if is_strictly_ordered(f, ctx.vertex_key):
            yield name, ctx, f


def test_equation_triples_form_a_suffix_of_each_source_fibre():
    """Fix (atilde, t): the s whose equation has a block pair are a suffix of
    the fibre over atilde's source, and every s before it is of type 0 or 1."""
    suffixes = 0
    for name, ctx, f in _looped_contexts():
        for at in f.codomain.arrows:
            for t in ctx.fibre(at.tgt):
                sources = ctx.fibre(at.src)
                carries = [bool(reference_triple(ctx, at.name, t, s)[1]) for s in sources]
                start = carries.index(True) if True in carries else len(carries)
                assert all(carries[start:]), (name, at.name, t)
                for s in sources[:start]:
                    typ = classify_triple(ctx, at.name, t, s)
                    assert typ in (TripleType.T0, TripleType.T1), (name, at.name, t, s)
                suffixes += 0 < start < len(carries)
    assert suffixes > 100  # the suffix is often proper


def test_the_walks_candidates_hold_each_equations_largest_block_pair():
    """The slice ends stand for the whole slice: the largest of the walk's
    candidates, by Psi key, is the largest block pair of the equation."""
    at_an_end = 0
    for name, ctx, f in _looped_contexts():
        key = lambda pr: ctx.psi_key(*pr)  # noqa: E731
        for at in f.codomain.arrows:
            for t in ctx.fibre(at.tgt):
                for s in ctx.fibre(at.src):
                    typ, pairs = reference_triple(ctx, at.name, t, s)
                    walked_typ, candidates = hypothesis_h._walk_triple(ctx, at.name, t, s)
                    assert walked_typ is typ and bool(candidates) == bool(pairs), (name, at.name, t, s)
                    if pairs:
                        largest = max(pairs, key=key)
                        assert max(candidates, key=key) == largest, (name, at.name, t, s)
                        # a slice of two or more arrows whose end pair is the largest
                        at_an_end += len(pairs) > len(candidates) and largest in candidates[-2:]
    assert at_an_end > 10


def test_each_slice_end_pair_tops_its_family_by_psi_key():
    """The T3 and T4 subtypes compare with one end pair of the slice: along it
    epsilon(a.src, s) falls and epsilon(t, a.tgt) rises, so the first arrow's
    (a.src, s) and the last arrow's (t, a.tgt) have the largest Psi keys."""
    longer = 0
    for name, ctx, f in _looped_contexts():
        key, pos = (lambda pr: ctx.psi_key(*pr)), ctx.pos  # noqa: E731
        for at in f.codomain.arrows:
            arrows = ctx.fibre_arrows(at.name)
            for t in ctx.fibre(at.tgt):
                for s in ctx.fibre(at.src):
                    between = [a for a in arrows if pos(t) < pos(a.tgt) and pos(a.src) < pos(s)]
                    if not between:
                        continue
                    for family, end in (
                        ([(a.src, s) for a in between], (between[0].src, s)),
                        ([(t, a.tgt) for a in between], (t, between[-1].tgt)),
                    ):
                        top = max(map(key, family))
                        assert [pr for pr in family if key(pr) == top] == [end], (name, at.name, t, s)
                    longer += len(between) > 1
    assert longer > 100


def test_check_h_walks_only_the_triples_that_carry_an_equation(monkeypatch):
    walked = []
    walk = hypothesis_h._walk_triple

    def counting_walk(ctx, atilde, t, s):
        walked.append((atilde, t, s))
        return walk(ctx, atilde, t, s)

    monkeypatch.setattr(hypothesis_h, "_walk_triple", counting_walk)
    e = catalog("kronecker_preprojective(40)")
    check_hypothesis_h(e.upstairs, e.subquiver, e.morphism)
    ctx = WindingContext(e.upstairs, e.subquiver, e.morphism)
    triples = sum(len(ctx.fibre(a.tgt)) * len(ctx.fibre(a.src)) for a in e.morphism.codomain.arrows)
    assert (len(walked), triples) == (1600, 3280)


@pytest.mark.parametrize(
    "spec", ["kronecker_preprojective(40)", "kronecker_preinjective(40)", "ex_4_5_5"]
)
def test_check_h_computes_each_psi_key_once(monkeypatch, spec):
    calls = []
    psi_key = WindingContext.psi_key

    def counting_psi_key(ctx, p, p_prime):
        calls.append((p, p_prime))
        return psi_key(ctx, p, p_prime)

    monkeypatch.setattr(WindingContext, "psi_key", counting_psi_key)
    e = catalog(spec)
    check_hypothesis_h(e.upstairs, e.subquiver, e.morphism)
    assert len(calls) == len(set(calls)) > 0, spec
