"""The cells that `count` walks: `schubert.cell_plan` against `enumerate_cells`.

`count` reads each cell as its key and its pivot tuple at each vertex,
taken from the per-vertex combinations, and builds no `CellIndex`.  Its
keys are the joined pivot tuples when the vertex blocks make up the basis
one after another in vertex order, and the ids sorted by basis position
otherwise; either way they must be the keys of `enumerate_cells`, in its
order, and each count must be that of `cell_count`.
"""

import random
from itertools import chain, combinations, product

import pytest

from quiver_schubert.catalog import catalog
from quiver_schubert.oracle import cell_count, cell_pivots, count
from quiver_schubert.quiver import quiver
from quiver_schubert.representation import OrderedBasis, reorder_basis, representation
from quiver_schubert.schubert import CellIndex, cell_index, cell_plan, enumerate_cells
from test_cli import run
from test_oracle_tables import _cross_check_cases


def _joins(rep) -> bool:
    """Whether the blocks, in vertex order, make up the basis one after another."""
    return tuple(chain.from_iterable(map(rep.basis.block, rep.quiver.vertices))) == rep.basis.order


def _assert_plan_lists_enumerate_cells(rep, e, q=2):
    cells = enumerate_cells(rep.basis, e, rep.quiver.vertices)
    combos = product(*(combinations(rep.basis.block(v), e.get(v, 0)) for v in rep.quiver.vertices))
    assert cells == [cell_index(rep.basis, chain.from_iterable(combo)) for combo in combos]
    plan = cell_plan(rep.basis, e, rep.quiver.vertices)
    assert [key for key, _ in plan] == [beta.key() for beta in cells]
    assert [pivots for _, pivots in plan] == [cell_pivots(rep, beta) for beta in cells]
    (report,) = count(rep, e, primes=(q,))
    assert list(report.per_cell) == [beta.key() for beta in cells]
    assert list(report.per_cell.values()) == [cell_count(rep, beta, q) for beta in cells]


def random_plan_module(seed: int):
    """Seeded module on 1-4 vertices with ranks 0-3, arrows and loops, and e with zero entries.

    Matrix entries lie in {0, 1, 2}.  By seed mod 4 the basis is in block
    order, shuffled, a `reorder_basis` of the block order by a random
    permutation, or its blocks in reverse vertex order.  Returns (M, e).
    """
    rng = random.Random(f"plan {seed}")
    verts = [f"v{i}" for i in range(rng.randint(1, 4))]
    rank = {v: rng.randint(0, 3) for v in verts}
    arrows = [(f"a{k}", rng.choice(verts), rng.choice(verts)) for k in range(rng.randint(0, len(verts) + 1))]
    vertex_of = {f"b{i + 1}": v for i, v in enumerate(v for v in verts for _ in range(rank[v]))}
    order = list(vertex_of)
    if seed % 4 == 1:
        rng.shuffle(order)
    mats = {
        name: [[rng.choice((0, 0, 1, 2)) for _ in range(rank[s])] for _ in range(rank[t])]
        for name, s, t in arrows
    }
    rep = representation(quiver(verts, arrows), OrderedBasis(tuple(order), vertex_of), mats)
    if seed % 4 == 2:
        rng.shuffle(order)
        rep = reorder_basis(rep, order)
    elif seed % 4 == 3:
        rep = reorder_basis(rep, [b for v in reversed(verts) for b in rep.basis.block(v)])
    return rep, {v: rng.randint(0, rank[v]) for v in verts}


def test_count_lists_the_cells_of_enumerate_cells_on_the_catalog():
    for name, rep, e in _cross_check_cases():
        try:
            _assert_plan_lists_enumerate_cells(rep, e)
        except AssertionError as exc:
            raise AssertionError(name) from exc


def test_count_lists_the_cells_of_enumerate_cells_on_random_modules():
    seen = {"joined": 0, "sorted": 0, "rank 0": 0, "e_v = 0": 0, "one vertex": 0}
    for seed in range(200):
        rep, e = random_plan_module(seed)
        _assert_plan_lists_enumerate_cells(rep, e)
        vertices = rep.quiver.vertices
        seen["joined" if _joins(rep) else "sorted"] += 1
        seen["rank 0"] += any(rep.rank(v) == 0 for v in vertices)
        seen["e_v = 0"] += any(e[v] == 0 < rep.rank(v) for v in vertices)
        seen["one vertex"] += len(vertices) == 1
    assert min(seen.values()) >= 20, seen


def test_keys_follow_an_interleaved_basis_order():
    entry = catalog("degenerate_flag(3)")
    order = "b1,b5,b9,b2,b6,b10,b3,b7,b11,b4,b8,b12".split(",")
    rep = reorder_basis(entry.representation, order)
    assert not _joins(rep)
    (report,) = count(rep, entry.dim_vector, primes=(2,))
    assert (len(report.per_cell), report.total) == (96, 531)
    for key in report.per_cell:
        assert key.split(",") == sorted(key.split(","), key=order.index)
    _assert_plan_lists_enumerate_cells(rep, entry.dim_vector)


@pytest.mark.parametrize(
    "e, argv",
    [
        ({"1": -1, "2": 1}, ["--dim-vector=-1,1"]),
        ({"1": 1, "2": 3}, ["--dim-vector", "1,3"]),
        ({"1": 1, "2": 1, "x": 1}, None),  # --dim-vector names every vertex, and no other
    ],
)
def test_count_refuses_a_bad_dimension_vector_as_enumerate_cells_does(e, argv):
    rep = catalog("two_lines").representation
    with pytest.raises(ValueError) as listed:
        enumerate_cells(rep.basis, e, rep.quiver.vertices)
    with pytest.raises(ValueError) as counted:
        count(rep, e, primes=(2,))
    assert (type(counted.value), str(counted.value)) == (type(listed.value), str(listed.value))
    if argv is not None:
        assert run(["count", "--catalog", "two_lines", *argv]) == (2, "", f"input error: {listed.value}\n")


def test_cell_count_refuses_an_id_outside_the_basis():
    rep = catalog("two_lines").representation
    with pytest.raises(ValueError, match=r"not basis elements: \['b9'\]"):
        cell_count(rep, CellIndex(("b9",)), 2)
    with pytest.raises(ValueError, match=r"not basis elements: \['b0', 'b9'\]"):
        cell_pivots(rep, CellIndex(("b1", "b9", "b0")))
