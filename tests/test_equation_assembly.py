"""`generate_equations` against the gather assembly of `conftest`.

`conftest.reference_generate_equations` visits every (codomain arrow,
target fibre vertex t, source fibre vertex s, non-pivot row, pivot) and
builds its tables on every call.  The package must give the same systems,
plain and through the winding, and each system must list its equations in
that order: by arrow, then by t and s in fibre order (block start), then
by the positions of the row and the pivot.
"""

import random
from itertools import combinations

import pytest

from conftest import random_winding_module, reference_generate_equations
from quiver_schubert.catalog import catalog
from quiver_schubert.quiver import identity_morphism
from quiver_schubert.representation import reorder_basis
from quiver_schubert.schubert import cell_index, enumerate_cells, generate_equations
from test_chart_search import random_branching_cycle

WINDINGS = [f"kronecker_{kind}({n})" for kind in ("preprojective", "preinjective") for n in range(1, 13)] + [
    "ex_4_5_1", "ex_4_5_2", "ex_4_5_5",
]


def _assert_in_order(m, system, f):
    """(arrow index, t, s, pos row, pos pivot) strictly increases, t and s by block start."""
    f = f if f is not None else identity_morphism(m.quiver)
    pos = m.basis.positions()
    index = {at.name: k for k, at in enumerate(f.codomain.arrows)}
    start = {v: pos[m.basis.block(v)[0]] for v in m.quiver.vertices if m.basis.block(v)}
    keys = []
    for eq in system.equations:
        at, t, s = eq.triple
        assert (m.basis.vertex_of[eq.row], m.basis.vertex_of[eq.col]) == (t, s)
        keys.append((index[at], start[t], start[s], pos[eq.row], pos[eq.col]))
    assert all(a < b for a, b in zip(keys, keys[1:])), system.beta


def _assert_as_reference(m, cells, f=None):
    """Each cell's system equals the reference's and is in order; returns the equation count."""
    total = 0
    for beta in cells:
        system = generate_equations(m, beta, fibred_via=f)
        assert system.to_json() == reference_generate_equations(m, beta, f).to_json(), beta
        _assert_in_order(m, system, f)
        total += len(system.equations)
    return total


def _winding_cells(entry, source):
    rep = entry.representation
    return [
        cell_index(source.basis, c.elements)
        for c in enumerate_cells(rep.basis, dict(entry.dim_vector), rep.quiver.vertices)
    ]


def _shuffled_basis(m, seed):
    order = list(m.basis.order)
    random.Random(seed).shuffle(order)
    return reorder_basis(m, order)


@pytest.mark.parametrize("spec", WINDINGS)
def test_winding_entries_match_the_reference(spec):
    entry = catalog(spec)
    up = entry.upstairs
    cells = _winding_cells(entry, up)
    _assert_as_reference(up, cells)
    through = _assert_as_reference(up, cells, entry.morphism)
    if spec == "kronecker_preprojective(12)":
        assert (len(cells), through) == (936, 10868)


@pytest.mark.parametrize("spec", ["kronecker_preprojective(4)", "kronecker_preinjective(4)", "ex_4_5_5"])
def test_shuffled_upstairs_bases_match_the_reference(spec):
    entry = catalog(spec)
    for seed in range(3):
        up = _shuffled_basis(entry.upstairs, seed)
        cells = _winding_cells(entry, up)
        _assert_as_reference(up, cells)
        _assert_as_reference(up, cells, entry.morphism)


def test_every_cell_of_degenerate_flag_4_matches_the_reference():
    entry = catalog("degenerate_flag(4)")
    rep = entry.representation
    cells = enumerate_cells(rep.basis, dict(entry.dim_vector), rep.quiver.vertices)
    assert len(cells) == 2500
    assert _assert_as_reference(rep, cells) == 9925


def test_shuffled_flag_bases_match_the_reference():
    entry = catalog("degenerate_flag(3)")
    for seed in range(5):
        rep = _shuffled_basis(entry.representation, seed)
        _assert_as_reference(rep, enumerate_cells(rep.basis, dict(entry.dim_vector), rep.quiver.vertices))


def test_forest_blocks_match_the_reference():
    for seed in range(30):
        entry = catalog(f"forest_block({seed},10)")
        rep = entry.representation
        _assert_as_reference(rep, enumerate_cells(rep.basis, dict(entry.dim_vector), rep.quiver.vertices))


def test_random_winding_modules_match_the_reference():
    """Every subset of up to four basis elements: codomain loops, shared fibres, shuffled bases."""
    total = 0
    for seed in range(200):
        m, f = random_winding_module(seed)
        cells = [
            cell_index(m.basis, elems)
            for r in range(min(4, len(m.basis.order)) + 1)
            for elems in combinations(m.basis.order, r)
        ]
        total += _assert_as_reference(m, cells) + _assert_as_reference(m, cells, f)
    assert total > 0


def test_branching_cycles_with_loops_match_the_reference():
    """Seeds 0 and 9 carry loops, whose equations have w_i^2 terms."""
    squares = 0
    for seed in range(10):
        rep, e = random_branching_cycle(seed)
        cells = enumerate_cells(rep.basis, e, rep.quiver.vertices)
        _assert_as_reference(rep, cells)
        squares += sum(
            any(exp == 2 for mono in eq.poly.terms for _v, exp in mono)
            for beta in cells
            for eq in generate_equations(rep, beta).equations
        )
    assert squares > 0
