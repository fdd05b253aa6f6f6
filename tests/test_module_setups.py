"""Per-module setups of the schubert per-cell calls.

A module keeps one tree setup, one winding setup for a morphism, one for the
identity winding and one strict-winding check for `pi`, each in one
`quiver.kept` slot.
These tests check that a warm module answers every cell exactly as a cold
copy does, that a failed check is never stored, and that a module keeps one
setup of each kind however many equal keys it is called with.
"""

import dataclasses
import gc
import importlib
import random
import weakref

import pytest

from conftest import random_tree_extension
from quiver_schubert.catalog import catalog
from quiver_schubert.hypothesis_h import check_hypothesis_h
from quiver_schubert.quiver import QuiverMorphism, Subquiver, identity_morphism, morphism, quiver, subquiver
from quiver_schubert.representation import is_ordered_above, reorder_basis, thin_representation
from quiver_schubert import schubert
from quiver_schubert.schubert import (
    PreconditionError,
    cell_index,
    enumerate_cells,
    generate_equations,
    grassmannian_fibration,
    pi,
    tree_cell_dimension,
    tree_cell_emptiness,
    tree_setup,
)

WINDINGS = ["ex_4_5_1", "ex_4_5_2", "ex_4_5_5"] + [
    f"kronecker_{kind}({n})" for kind in ("preprojective", "preinjective") for n in (1, 2, 3, 6)
]
FOREST_SEEDS = range(10)
TREE_SEEDS = range(60)


def _outcome(call):
    """The answer of call(), or the type and message of what it raised."""
    try:
        return ("ok", call())
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


def _shuffled(cells, seed):
    cells = list(cells)
    random.Random(seed).shuffle(cells)
    return cells


def _equation_answers(m, cells, f):
    return [_outcome(lambda: generate_equations(m, beta, fibred_via=f).to_json()) for beta in cells]


def _tree_answers(m, s, cells):
    return [
        (
            _outcome(lambda: tree_cell_emptiness(m, s, beta, base_is_empty=False)),
            _outcome(lambda: tree_cell_dimension(m, s, beta)),
        )
        for beta in cells
    ]


def _assert_warm_equals_cold(m, cells, f=None, s=None):
    """Answers on m, visited in the given order, equal those on a cold copy per cell."""
    cold_copy = lambda: dataclasses.replace(m)  # noqa: E731 - a module with no stored setups
    for g in (f, None) if f is not None else (None,):
        warm = _equation_answers(m, cells, g)
        assert getattr(m, "_winding_setup" if g is not None else "_identity_winding_setup")[0] is g
        cold = [_equation_answers(cold_copy(), [beta], g)[0] for beta in cells]
        assert warm == cold
    if s is not None:
        warm = _tree_answers(m, s, cells)
        assert getattr(m, "_tree_setup")[0] is s
        cold = [_tree_answers(cold_copy(), s, [beta])[0] for beta in cells]
        assert warm == cold


@pytest.mark.parametrize("spec", WINDINGS)
def test_warm_winding_entries_answer_as_cold(spec):
    entry = catalog(spec)
    rep, up = entry.representation, entry.upstairs
    cells = [
        cell_index(up.basis, c.elements)
        for c in enumerate_cells(rep.basis, dict(entry.dim_vector), rep.quiver.vertices)
    ]
    _assert_warm_equals_cold(up, _shuffled(cells, len(cells)), f=entry.morphism, s=entry.subquiver)


def test_warm_forest_blocks_answer_as_cold():
    for seed in FOREST_SEEDS:
        entry = catalog(f"forest_block({seed},10)")
        rep = entry.representation
        cells = enumerate_cells(rep.basis, dict(entry.dim_vector), rep.quiver.vertices)
        _assert_warm_equals_cold(rep, _shuffled(cells, seed))


def test_warm_tree_extensions_answer_as_cold():
    dimensions = []
    for seed in TREE_SEEDS:
        rep, s, e = random_tree_extension(seed)
        cells = enumerate_cells(rep.basis, e, rep.quiver.vertices)
        _assert_warm_equals_cold(rep, _shuffled(cells, seed), s=s)
        dimensions += [
            tree_cell_dimension(rep, s, beta)
            for beta in cells
            if not tree_cell_emptiness(rep, s, beta, base_is_empty=False)
        ]
    # the dimension is compared on many cells, not on errors alone, and is not always 0
    assert len(dimensions) >= 40 and max(dimensions) > 0


def test_warm_slot_follows_the_latest_key():
    entry = catalog("kronecker_preprojective(3)")
    up, f = entry.upstairs, entry.morphism
    cells = [cell_index(up.basis, c) for c in (["1"], ["2", "3"], list(up.basis.order))]
    cold = [generate_equations(dataclasses.replace(up), beta, fibred_via=g).to_json()
            for beta in cells for g in (f, None)]
    # a morphism and no morphism read two slots, so alternating rebuilds neither
    assert [generate_equations(up, beta, fibred_via=g).to_json() for beta in cells for g in (f, None)] == cold


def test_alternating_with_the_identity_winding_builds_two_setups(monkeypatch):
    entry = catalog("ex_4_5_5")
    up, f = entry.upstairs, entry.morphism
    cells = [cell_index(up.basis, c.elements) for c in enumerate_cells(
        entry.representation.basis, dict(entry.dim_vector), entry.representation.quiver.vertices)]
    built = []
    init = schubert._WindingSetup.__init__

    def counted(self, m, fibred_via):
        built.append(fibred_via)
        init(self, m, fibred_via)

    monkeypatch.setattr(schubert._WindingSetup, "__init__", counted)
    for beta in cells:
        for g in (None, f):
            generate_equations(up, beta, fibred_via=g)
    assert len(cells) == 112 and built == [None, f]
    assert getattr(up, "_identity_winding_setup")[0] is None and getattr(up, "_winding_setup")[0] is f


def test_generate_equations_keeps_no_set_on_the_cell():
    entry = catalog("kronecker_preprojective(3)")
    up = entry.upstairs
    for g in (None, entry.morphism):
        beta = cell_index(up.basis, ["2", "3"])
        assert generate_equations(up, beta, fibred_via=g).equations
        assert not hasattr(beta, "_set")


def _kronecker_fold():
    """The Kronecker quiver with both arrows sent to one arrow: not a winding."""
    t = quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    return t, morphism(t, quiver(["x", "y"], [("c", "x", "y")]), {"1": "x", "2": "y"}, {"a": "c", "b": "c"})


def _raises_every_time(call, exc_type, match, times=3):
    messages = []
    for _ in range(times):
        with pytest.raises(exc_type, match=match) as info:
            call()
        messages.append(str(info.value))
    assert len(set(messages)) == 1


def test_a_non_winding_is_refused_on_every_call():
    entry = catalog("kronecker_regular(2,0)")
    rep = entry.representation
    t, fold = _kronecker_fold()
    assert rep.quiver == t
    beta = cell_index(rep.basis, ["b1"])
    _raises_every_time(lambda: generate_equations(rep, beta, fibred_via=fold), ValueError, "must be a winding")
    assert not hasattr(rep, "_winding_setup")
    # a stored good setup survives a refused morphism in the same slot
    good = identity_morphism(rep.quiver)
    plain = generate_equations(rep, beta, fibred_via=good).to_json()
    _raises_every_time(lambda: generate_equations(rep, beta, fibred_via=fold), ValueError, "must be a winding")
    assert getattr(rep, "_winding_setup")[0] is good
    assert generate_equations(rep, beta, fibred_via=good).to_json() == plain
    # and the identity-winding slot, which the fold never reaches
    assert generate_equations(rep, beta).to_json() == plain
    _raises_every_time(lambda: generate_equations(rep, beta, fibred_via=fold), ValueError, "must be a winding")
    assert getattr(rep, "_identity_winding_setup")[0] is None


def test_a_domain_mismatch_and_a_foreign_beta_are_refused_on_every_call():
    entry = catalog("kronecker_preprojective(2)")
    up, f = entry.upstairs, entry.morphism
    other = catalog("kronecker_preprojective(3)").upstairs
    beta = cell_index(up.basis, [up.basis.order[0]])
    _raises_every_time(lambda: generate_equations(other, beta, fibred_via=f), ValueError, "fibred_via must be defined")
    stranger = dataclasses.replace(beta, elements=("no such element",))
    _raises_every_time(lambda: generate_equations(up, stranger, fibred_via=f), ValueError, "not a subset")


def test_a_non_tree_extension_is_refused_on_every_call():
    rep = catalog("kronecker_regular(2,0)").representation
    s = subquiver(rep.quiver, ["1"])
    beta = cell_index(rep.basis, ["b1", "b3"])
    for call in (
        lambda: tree_cell_emptiness(rep, s, beta),
        lambda: tree_cell_dimension(rep, s, beta),
        lambda: check_hypothesis_h(rep, s, identity_morphism(rep.quiver)),
    ):
        _raises_every_time(call, PreconditionError, "not a tree extension")
    assert not hasattr(rep, "_tree_setup")


def test_a_basis_not_ordered_above_s_is_refused_on_every_call():
    entry = catalog("flag(3;1,2)")
    rep = reorder_basis(entry.representation, list(reversed(entry.representation.basis.order)))
    s = entry.subquiver
    beta = cell_index(rep.basis, list(rep.basis.order)[:1])
    for call in (lambda: tree_cell_emptiness(rep, s, beta), lambda: tree_cell_dimension(rep, s, beta)):
        _raises_every_time(call, PreconditionError, "basis is not ordered above S")
    assert not hasattr(rep, "_tree_setup")


def test_an_empty_cell_is_refused_on_every_call():
    entry = catalog("flag(3;1,2)")
    rep, s = entry.representation, entry.subquiver
    beta = cell_index(rep.basis, ["b1", "b5", "b6"])
    _raises_every_time(lambda: tree_cell_dimension(rep, s, beta), ValueError, "empty over S by the pivot criterion")
    assert tree_cell_emptiness(rep, s, beta)


def _alive(refs) -> int:
    gc.collect()
    return sum(1 for r in refs if r() is not None)


def test_a_module_keeps_one_winding_setup():
    entry = catalog("kronecker_preprojective(3)")
    up, f = entry.upstairs, entry.morphism
    beta = cell_index(up.basis, ["1"])
    expected = generate_equations(dataclasses.replace(up), beta, fibred_via=f).to_json()
    keys, setups = [], []
    for _ in range(100):
        g = QuiverMorphism(f.domain, f.codomain, dict(f.vertex_map), dict(f.arrow_map))
        assert g == f and g is not f
        assert generate_equations(up, beta, fibred_via=g).to_json() == expected
        keys.append(weakref.ref(g))
        setups.append(weakref.ref(getattr(up, "_winding_setup")[1]))
        del g
    assert _alive(keys) == 1 and _alive(setups) == 1
    assert getattr(up, "_winding_setup")[0] is keys[-1]()


def test_a_module_keeps_one_tree_setup():
    entry = catalog("flag(4;1,2,3)")
    rep, s = entry.representation, entry.subquiver
    beta = cell_index(rep.basis, ["b4", "b7", "b8", "b10", "b11", "b12"])
    expected = tree_cell_dimension(dataclasses.replace(rep), s, beta)
    keys, setups = [], []
    for _ in range(100):
        t = Subquiver(s.parent, frozenset(s.vertices), frozenset(s.arrows))
        assert t == s and t is not s
        assert tree_cell_dimension(rep, t, beta) == expected
        keys.append(weakref.ref(t))
        setups.append(weakref.ref(tree_setup(rep, t)))
        del t
    assert _alive(keys) == 1 and _alive(setups) == 1


WALKERS = ("quiver", "representation")  # the modules that still bind `distances_to`


def _counted_walks(monkeypatch) -> list:
    """A list that gains one entry per T-S walk (`quiver.distances_to` call), through any module's name."""
    # by import_module: the package binds the names quiver and representation to functions
    modules = [importlib.import_module(f"quiver_schubert.{name}") for name in WALKERS]
    walks, walk = [], modules[0].distances_to

    def counted(t, s):
        walks.append(s)
        return walk(t, s)

    for module in modules:
        monkeypatch.setattr(module, "distances_to", counted)
    return walks


def _tree_inputs():
    """Passing (module, S): catalog windings upstairs, a flag and seeded tree extensions."""
    for spec in WINDINGS:
        entry = catalog(spec)
        yield entry.upstairs, entry.subquiver
    entry = catalog("flag(4;1,2,3)")
    yield entry.representation, entry.subquiver
    for seed in range(10):
        yield random_tree_extension(seed)[:2]


def test_each_s_is_walked_once_by_every_tree_question(monkeypatch):
    walks = _counted_walks(monkeypatch)
    for rep, s in _tree_inputs():
        s = dataclasses.replace(s)  # an S that has not been walked
        walks.clear()
        tree_setup(dataclasses.replace(rep), s)
        assert len(walks) == 1
        assert is_ordered_above(rep, s) == (True, [])
        assert len(walks) == 1
    entry = catalog("kronecker_preprojective(3)")
    up, s, f = entry.upstairs, dataclasses.replace(entry.subquiver), entry.morphism
    walks.clear()
    assert check_hypothesis_h(up, s, f).passed
    assert len(walks) == 1
    assert check_hypothesis_h(up, s, f).passed
    assert len(walks) == 1
    entry = catalog("flag(3;1,2)")
    walks.clear()
    s = dataclasses.replace(entry.subquiver)
    assert grassmannian_fibration(entry.representation, s, {"1": 1, "2": 2}) == [(1, 2)]
    assert len(walks) == 1
    # a T-S with one arrow per vertex outside S that misses a vertex is refused after one walk
    rep = thin_representation(quiver(["1", "2", "3"], [("l", "2", "2"), ("a", "2", "3")]))
    s = subquiver(rep.quiver, ["1"])
    walks.clear()
    with pytest.raises(PreconditionError, match="not a tree extension"):
        tree_setup(rep, s)
    assert len(walks) == 1
    assert is_ordered_above(rep, s) == (False, ["T is not a tree extension of S"])
    assert len(walks) == 1


def test_pi_checks_the_strict_winding_once_per_module_and_morphism(monkeypatch):
    entry = catalog("kronecker_preprojective(3)")
    up, f = entry.upstairs, entry.morphism
    beta = cell_index(up.basis, ["2", "3"])
    point = dict.fromkeys(generate_equations(up, beta, fibred_via=f).variables, 1)
    expected = pi(f, dataclasses.replace(up), beta, point)
    checks, check = [], schubert.is_strictly_ordered
    monkeypatch.setattr(schubert, "is_strictly_ordered", lambda g, key: checks.append(g) or check(g, key))
    assert all(pi(f, up, beta, point) == expected for _ in range(100))
    assert len(checks) == 1
    # a refused (module, F) stores nothing and raises on every call
    bad = reorder_basis(catalog("ex_4_5_1").upstairs, ["1", "4", "3", "2"])
    g = catalog("ex_4_5_1").morphism
    beta = cell_index(bad.basis, ["3", "4"])
    _raises_every_time(lambda: pi(g, bad, beta, {}), PreconditionError, "^pi needs a strictly ordered winding$")
    assert len(checks) == 4 and not hasattr(bad, "_strict_winding_setup")
