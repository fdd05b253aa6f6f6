"""Charts and generator images shared by the cells of one oracle call.

`count` and `enumerate_subreps` build the cell-independent parts of every
search plan once per prime; a direct `cell_count` builds its own.  Both
paths must give the same counts and the same points in the same order.
"""

import hashlib

import pytest

from quiver_schubert.catalog import catalog
from quiver_schubert.oracle import cell_count, count, enumerate_subreps
from quiver_schubert.schubert import enumerate_cells
from test_chart_search import random_branching_cycle

# SHA-256 of the ordered enumerate_subreps streams (cell key, then the
# point's matrices), taken when every cell built its own plan tables.
PINNED_SUBREP_STREAMS = {
    ("degenerate_flag(3)", 2): "6b7a209e44431e781d74ea6fe05a2936c93a26436100a25a65e2598a34910bae",
    ("degenerate_flag(3)", 3): "32ea90151826ebdd4b8c022adac5bbe4b095895cc04541ddff65069e1b6681b4",
    ("ex_4_5_5", 3): "26178ac32178c05801b4cde751dc7bc1a7ac772725e261afae87c277b9cf2c4b",
}
# The same for seeds 0-39 of random_branching_cycle at q = 2, in one digest.
PINNED_RANDOM_SUBREP_STREAM = "58ee503a2b76e14a40b48aeaa2fc7433b1e4668a293f19e1a9b0490700250ff9"


def _update_stream(h, rep, e, q):
    for point in enumerate_subreps(rep, e, q):
        h.update(f"{point.cell.key()}\n{list(point.subspaces.items())!r}\n".encode())


def _assert_count_matches_cell_count(rep, e, q):
    (report,) = count(rep, e, primes=(q,))
    cells = enumerate_cells(rep.basis, e, rep.quiver.vertices)
    assert report.per_cell == {beta.key(): cell_count(rep, beta, q) for beta in cells}


@pytest.mark.parametrize("spec, q", sorted(PINNED_SUBREP_STREAMS))
def test_shared_tables_count_each_cell_as_cell_count_does(spec, q):
    entry = catalog(spec)
    _assert_count_matches_cell_count(entry.representation, entry.dim_vector, q)


def test_shared_tables_count_each_cell_as_cell_count_does_on_cycles_and_loops():
    for seed in range(40):
        rep, e = random_branching_cycle(seed)
        _assert_count_matches_cell_count(rep, e, 2)


@pytest.mark.parametrize("spec, q", sorted(PINNED_SUBREP_STREAMS))
def test_subrep_stream_is_pinned(spec, q):
    entry = catalog(spec)
    h = hashlib.sha256()
    _update_stream(h, entry.representation, entry.dim_vector, q)
    assert h.hexdigest() == PINNED_SUBREP_STREAMS[spec, q]


def test_subrep_stream_is_pinned_on_cycles_and_loops():
    h = hashlib.sha256()
    for seed in range(40):
        rep, e = random_branching_cycle(seed)
        _update_stream(h, rep, e, 2)
    assert h.hexdigest() == PINNED_RANDOM_SUBREP_STREAM
