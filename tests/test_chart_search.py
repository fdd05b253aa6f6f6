"""Chart search of the oracle: pinned point order, and exact counts on cycles and loops."""

import hashlib
import random

import pytest

from conftest import independent_total
from quiver_schubert.catalog import catalog
from quiver_schubert.oracle import _cell_points, cell_count, cell_pivots
from quiver_schubert.quiver import quiver
from quiver_schubert.representation import OrderedBasis, representation
from quiver_schubert.schubert import enumerate_cells


def random_branching_cycle(seed: int):
    """Seeded 4-5 vertex module with a branching vertex and an oriented cycle.

    Vertex v0 meets at least two arrows, three of the others form an oriented
    3-cycle, every vertex meets an arrow and some draws add a loop, so
    the search has frontiers of two or more vertices.  Every vertex has
    rank 2 and e = 1, and matrices are sparse with entries in {0, 1, 2},
    so many states die and are met again.
    """
    rng = random.Random(seed)
    n = rng.randint(4, 5)
    verts = [f"v{i}" for i in range(n)]
    hub, *others = verts
    cycle = rng.sample(others, 3)
    arrows = []
    for k in range(3):
        arrows.append((cycle[k], cycle[(k + 1) % 3]))
    for v in rng.sample(others, 2):
        arrows.append((hub, v) if rng.random() < 0.5 else (v, hub))
    for v in others:
        if not any(v in a for a in arrows):
            arrows.append((v, rng.choice(verts)))
    if rng.random() < 0.3:
        v = rng.choice(verts)
        arrows.append((v, v))
    rng.shuffle(arrows)
    named = [(f"a{i}", s, t) for i, (s, t) in enumerate(arrows)]
    vertex_of = {f"b{i + 1}": verts[i // 2] for i in range(2 * n)}
    mats = {
        name: [[rng.choice((0, 0, 1, 2)) for _ in range(2)] for _ in range(2)]
        for name, _, _ in named
    }
    rep = representation(quiver(verts, named), OrderedBasis(tuple(vertex_of), vertex_of), mats)
    return rep, {v: 1 for v in verts}


def _widest_frontier(rep) -> int:
    """Most placed vertices that share an arrow with an unplaced one, in quiver order."""
    order = rep.quiver.vertices
    widest = 0
    for i in range(len(order)):
        placed = set(order[:i])
        frontier = {
            v
            for a in rep.quiver.arrows
            for v, w in ((a.src, a.tgt), (a.tgt, a.src))
            if v in placed and w not in placed
        }
        widest = max(widest, len(frontier))
    return widest


def _update_stream(h, rep, e, q):
    """Feed every cell key and every point of every cell, in order, into h."""
    for beta in enumerate_cells(rep.basis, e, rep.quiver.vertices):
        h.update(f"{beta.key()}\n".encode())
        for point in _cell_points(rep, cell_pivots(rep, beta), q):
            h.update(f"{list(point.items())!r}\n".encode())


# SHA-256 of the ordered point streams at q = 3, taken from the recursive
# enumerator that the flat search replaced.
PINNED_STREAMS = {
    "forest_block(7,10)": "a4f1450fa10383f13e3a31d53c076c77c45c67738ce7f00f4457263aa6aa9b86",
    "degenerate_flag(2)": "447f9777ed6cf45c472e1f340079b697e9127903dcfd1d6c6869a84f1ac9f928",
    "ex_4_5_5": "0a9876815eaee0cc8873b481aa2f88deef75266a7d53fb181a706b2ac12a4b78",
}

# The same for seeds 0-39 of random_branching_cycle at q = 2 then 3, in one digest.
PINNED_RANDOM_STREAMS = "ad5b1c4664f0919521a5fb29f9cde805158e6b3379a3f183390c68d326571a5b"


@pytest.mark.parametrize("spec", sorted(PINNED_STREAMS))
def test_cell_point_order_is_pinned(spec):
    entry = catalog(spec)
    h = hashlib.sha256()
    _update_stream(h, entry.representation, entry.dim_vector, 3)
    assert h.hexdigest() == PINNED_STREAMS[spec]


def test_cell_point_order_is_pinned_on_cycles_and_loops():
    h = hashlib.sha256()
    for seed in range(40):
        rep, e = random_branching_cycle(seed)
        for q in (2, 3):
            _update_stream(h, rep, e, q)
    assert h.hexdigest() == PINNED_RANDOM_STREAMS


@pytest.mark.parametrize("q", [2, 3])
def test_dead_state_memo_keeps_counts_exact(q):
    for seed in range(40):
        rep, e = random_branching_cycle(seed)
        assert _widest_frontier(rep) >= 2
        cells = enumerate_cells(rep.basis, e, rep.quiver.vertices)
        total = sum(cell_count(rep, beta, q) for beta in cells)
        assert total == independent_total(rep, e, q), (seed, q)
