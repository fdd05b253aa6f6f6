"""Charts, generator images and step point lists shared by the cells of one oracle call.

`count` and `enumerate_subreps` build the cell-independent parts of every
search plan once per call, as integer forms shared by every prime, and
memoise each step's points there, emptying the memos when the prime
changes; a direct `cell_count` builds its own.  Both paths must give the
same counts and the same points in the same order, whatever order the
cells come in.
"""

import gc
import hashlib
import random
import tracemalloc
from itertools import product

import pytest

from conftest import (
    independent_total,
    rank_mod,
    record_count_path_rows,
    record_ranks_per_cell,
    reference_arrow_rows,
    reference_compile,
)
from quiver_schubert import linalg, oracle
from quiver_schubert.catalog import catalog
from quiver_schubert.charts import Chart
from quiver_schubert.linalg import column_echelon_max_pivot, mat_vec_mod
from quiver_schubert.oracle import (
    _TUPLE_BYTES,
    _cell_points,
    _point_bytes,
    _Tables,
    cell_count,
    cell_pivots,
    count,
    enumerate_subreps,
)
from quiver_schubert.quiver import full_subquiver, quiver
from quiver_schubert.representation import OrderedBasis, representation, restrict
from quiver_schubert.schubert import cell_plan, enumerate_cells
from test_chart_search import random_branching_cycle
from test_dellac import dellac_betti

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


def _order_cases():
    for seed in range(40):
        rep, e = random_branching_cycle(seed)
        for q in (2, 3):
            yield rep, e, q
    for spec in ("degenerate_flag(3)", "ex_4_5_5"):
        entry = catalog(spec)
        yield entry.representation, entry.dim_vector, 3


def test_shared_step_points_do_not_depend_on_cell_order():
    rng = random.Random(7)
    widest = 0
    loops = 0
    for rep, e, q in _order_cases():
        cells = enumerate_cells(rep.basis, e, rep.quiver.vertices)
        fresh = {beta.key(): list(_cell_points(rep, cell_pivots(rep, beta), q)) for beta in cells}
        tables = _Tables(rep)
        shuffled = list(cells)
        rng.shuffle(shuffled)
        for order in (cells[::-1], shuffled):
            for beta in order:
                assert list(_cell_points(rep, cell_pivots(rep, beta), q, tables)) == fresh[beta.key()], beta.key()
        widest = max(widest, *map(len, tables.neighbours))
        loops += sum(1 for s, t, _ in tables.arrows if s == t)
    # the keys with two or more neighbours' coordinates and the memoised loop filter both ran
    assert widest >= 2 and loops > 0


def test_each_listed_system_is_solved_once_per_call_and_each_rank_once_per_cell_and_key(monkeypatch):
    """Work counts of count(degenerate_flag(4)) at q = 2.

    Solving every cell's steps afresh took 55,551 chart systems and 17,932
    calls of solve_mod; sharing the step point lists solved each distinct
    system once per tuple of the earlier neighbours' coordinates.  Reading
    each pure row at the earlier step it constrains took the systems from
    2,640 to 1,800: here every lookahead row is a constant that no point
    satisfies, so it ends its step before any elimination, and solve_mod
    saw the same 740 systems.  Counting the loop-free last step by its
    rank, not its points, split the 1,800 systems into 1,455 listed ones
    and 345 ranked last-step keys, and left 566 calls of solve_mod.  A
    step's arrow rows read only a few of those coordinates, so its result
    is now solved once per tuple of the coordinates they read: 514 listed
    systems, 180 calls of solve_mod and 71 ranks, each now one call of
    the count path's elimination (`_arrow_rows` under a loop-free
    `_last_count`; it was `rank_mod` on the built rows).  Each step keeps
    one memo, keyed by the values its rows read, so each solve or rank is
    one entry and no result is stored twice (a second memo keyed by all
    the earlier neighbours' coordinates held 1,092 point and 345 count
    entries).  Counting each cell by one forward pass over its steps
    left all three numbers as they were under the depth-first walk.  The
    pass now carries its message into the last step too, which merges the
    prefixes of a cell that agree on the values the last step reads, and
    no count is kept across cells: each cell ranks each such tuple once,
    668 ranks in all, and the 514 listed systems and 180 calls of
    solve_mod stay.
    """
    calls = {"_chart_solutions": 0, "solve_mod": 0}
    built = _record_tables(monkeypatch)
    ranked = record_count_path_rows(monkeypatch)
    per_cell = record_ranks_per_cell(monkeypatch, ranked)

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(oracle, "_chart_solutions")
    counted(linalg, "solve_mod")
    entry = catalog("degenerate_flag(4)")
    (report,) = count(entry.representation, entry.dim_vector, primes=(2,))
    assert report.total == 26961
    (tables,) = built
    assert calls["_chart_solutions"] == sum(map(len, _memos(tables))) == 514
    assert len(ranked) == sum(map(len, per_cell)) == 668
    assert all(len(set(ranks)) == len(ranks) for ranks in per_cell)
    assert calls == {"_chart_solutions": 514, "solve_mod": 180}


def test_each_cell_resumes_after_the_prefix_it_shares_with_the_cell_before(monkeypatch):
    """`_forward` entries per step of count(degenerate_flag(4)) at q = 2, and the trail they leave.

    Starting every cell's pass at step 0 entered `_forward` 2,500, 1,300,
    555 and 295 times at steps 0 to 3.  Each cell now resumes from the
    trail after the deepest step whose message its pivot prefix fixes, so
    a run of cells that agree on that prefix builds its message once, and
    an empty message answers its cells at once: 50, 260, 555 and 295.  At
    every entry the trail holds at most one message per step before it,
    entry k keyed by the pivot tuples at steps 0 to `depends[k]` - 1.
    """
    built = _record_tables(monkeypatch)
    entries = {}
    forward = oracle._forward

    def recorded(tables, steps, pivots, i, message, q):
        entries[i] = entries.get(i, 0) + 1
        trail = tables.trail
        assert len(trail) <= i and [len(prefix) for prefix, _ in trail] == tables.depends[: len(trail)]
        assert all(prefix == pivots[: len(prefix)] for prefix, _ in trail)
        return forward(tables, steps, pivots, i, message, q)

    monkeypatch.setattr(oracle, "_forward", recorded)
    entry = catalog("degenerate_flag(4)")
    (report,) = count(entry.representation, entry.dim_vector, primes=(2,))
    assert report.total == 26961
    assert entries == {0: 50, 1: 260, 2: 555, 3: 295}
    (tables,) = built
    assert tables.depends == [2, 3, 4] and len(tables.trail) == 3


def test_a_looped_last_step_stores_no_point_list(monkeypatch):
    """A last step with loops is counted as its points stream, once per message entry, and keeps none of them."""
    built = _record_tables(monkeypatch)
    entry = catalog("one_loop(5,1)")
    (report,) = count(entry.representation, entry.dim_vector, primes=(5,))
    assert report.total == sum(_listed_per_cell(entry.representation, entry.dim_vector, 5).values())
    tables = built[0]
    last = len(tables.blocks) - 1
    looped = [step for key, step in tables._steps.items() if key[0] == last]
    assert any(step.loops for step in looped) and not any(step.points for step in looped)


def _record_tables(monkeypatch):
    """A list to which every `_Tables` that the oracle builds from now on appends itself."""
    built = []

    class RecordedTables(_Tables):
        def __init__(self, m):
            super().__init__(m)
            built.append(self)

    monkeypatch.setattr(oracle, "_Tables", RecordedTables)
    return built


def _memos(tables):
    """The point memo of each kept step."""
    return (step.points for step in tables._steps.values())


def _charged(tables):
    """The room that the memos of tables hold: one entry per key of each memo, and each stored list's points."""
    entries = sum(map(len, _memos(tables))) * oracle._MEMO_ENTRY_BYTES
    steps = tables._steps.values()
    return entries + sum(_point_bytes(step.chart) * len(found) for step in steps for found in step.points.values())


def test_memos_that_do_not_fit_stream_the_same_points(monkeypatch):
    """With little memo room, some step lists are kept and the rest streamed; the points stay the same."""
    cases = [(f"seed {seed}", *random_branching_cycle(seed), 2) for seed in range(10)]
    for spec in ("degenerate_flag(3)", "ex_4_5_5"):
        entry = catalog(spec)
        cases.append((spec, entry.representation, entry.dim_vector, 3))
    for name, rep, e, q in cases:
        cells = enumerate_cells(rep.basis, e, rep.quiver.vertices)
        tables = _Tables(rep)
        expected = [list(_cell_points(rep, cell_pivots(rep, beta), q, tables)) for beta in cells]
        kept = sum(map(len, _memos(tables)))
        assert tables.room == oracle._MEMO_BYTES - _charged(tables), name
        for budget in (0, 3000, 30000):
            monkeypatch.setattr(oracle, "_MEMO_BYTES", budget)
            tables = _Tables(rep)
            assert [list(_cell_points(rep, cell_pivots(rep, beta), q, tables)) for beta in cells] == expected, (name, budget)
            assert 0 <= tables.room <= budget
            assert tables.room == budget - _charged(tables), (name, budget)
        monkeypatch.undo()
        if name == "degenerate_flag(3)":
            # 30,000 bytes keep some of its step lists but not all of them
            assert 0 < sum(map(len, _memos(tables))) < kept


def test_each_cell_counts_as_many_points_as_it_streams(monkeypatch):
    """`count` reads the last step's points without building dicts; per cell it sees as many as enumerate_subreps.

    one_vertex(3) has one step per cell; the last step of
    kronecker_preinjective(4) reads every coordinate of the first;
    one_loop(4,1) filters by a loop.  With no memo room every list streams, with a little some are
    kept, and with the default room all of them.  At every budget the
    count's table is charged exactly what its memos hold, one entry per
    key.
    """
    built = _record_tables(monkeypatch)
    cases = [(f"seed {seed}", *random_branching_cycle(seed), 2) for seed in range(10)]
    for spec, q in (("one_vertex(3)", 2), ("kronecker_preinjective(4)", 3), ("one_loop(4,1)", 5),
                    ("degenerate_flag(3)", 3)):
        entry = catalog(spec)
        cases.append((spec, entry.representation, entry.dim_vector, q))
    for budget in (0, 500, 3000, oracle._MEMO_BYTES):
        monkeypatch.setattr(oracle, "_MEMO_BYTES", budget)
        for name, rep, e, q in cases:
            streamed = {beta.key(): 0 for beta in enumerate_cells(rep.basis, e, rep.quiver.vertices)}
            for point in enumerate_subreps(rep, e, q):
                streamed[point.cell.key()] += 1
            (report,) = count(rep, e, primes=(q,))
            assert report.per_cell == streamed, (name, budget)
            assert report.total > 0, (name, budget)
            tables = built[-1]
            assert 0 <= tables.room == budget - _charged(tables), (name, budget)


def _unlinked(rank: int, e: int):
    """Two vertices and no arrow: F^rank with subspace dimension e, and F^1 with 1."""
    names = [f"b{i}" for i in range(1, rank + 2)]
    basis = OrderedBasis(tuple(names), {b: "1" if i < rank else "2" for i, b in enumerate(names)})
    return representation(quiver(["1", "2"], []), basis, {}), {"1": e, "2": 1}


def _peak_mib(m, e, q):
    tracemalloc.start()
    try:
        (report,) = count(m, e, primes=(q,))
        return report.total, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_memo_memory_is_bounded_where_nothing_is_shared(monkeypatch):
    """Memory stays bounded on inputs whose step lists are never reused.

    Gr_3(F_3^6) has 33,880 points.  one_vertex(6) has one step per cell,
    whose list never recurs, so nothing is kept.  Two unlinked vertices
    keep their step lists: charged 12.8 MB under the default budget,
    which they fit in, and a peak under 2 MiB with a budget of 1 MiB.
    """
    entry = catalog("one_vertex(6)")
    total, peak = _peak_mib(entry.representation, entry.dim_vector, 3)
    assert total == 33880 and peak < 1
    monkeypatch.setattr(oracle, "_MEMO_BYTES", 2**20)
    total, peak = _peak_mib(*_unlinked(6, 3), 3)
    assert total == 33880 and peak < 2

    switches = []  # (prime, points kept before the switch, all emptied after it)

    class RecordedTables(_Tables):
        def use_prime(self, q):
            switched, kept = q != self.prime, sum(map(len, _memos(self)))
            super().use_prime(q)
            emptied = not any(_memos(self))
            if switched:
                switches.append((q, kept, emptied and self.room == oracle._MEMO_BYTES))

    monkeypatch.setattr(oracle, "_Tables", RecordedTables)
    tracemalloc.start()
    try:
        reports = count(*_unlinked(6, 3), primes=(2, 3))
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert [r.total for r in reports] == [1395, 33880] and peak < 2
    (_, _, first), (q, kept, second) = switches
    assert first and second and q == 3 and kept > 0  # q = 2 filled memos that the switch emptied

    # degenerate_flag(3) has three steps: the lists each prime kept are emptied at the next
    del switches[:]
    entry = catalog("degenerate_flag(3)")
    reports = count(entry.representation, entry.dim_vector, primes=(2, 3, 5))
    assert [r.total for r in reports] == [531, 3340, 42066]
    assert [emptied for _, _, emptied in switches] == [True] * 3
    assert [kept for _, kept, _ in switches][0] == 0 and all(kept for _, kept, _ in switches[1:])


def test_a_count_at_13_stays_within_its_memory(monkeypatch):
    """count(degenerate_flag(3), (13,)) ends with memo room left, and its traced peak stays under the memo budget.

    Its memos are charged for bare coordinates, as the count interns no
    matrix.
    """
    built = _record_tables(monkeypatch)
    entry = catalog("degenerate_flag(3)")
    tracemalloc.start()
    try:
        (report,) = count(entry.representation, entry.dim_vector, primes=(13,), budget=10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (tables,) = built
    assert report.total == 7363370
    assert any(_memos(tables)) and tables.room > 0
    assert peak < oracle._MEMO_BYTES


def test_a_step_list_is_kept_only_in_half_the_room_left():
    """A new point list is stored only while it takes at most half the room; else it streams and is charged nothing.

    At q = 3 the first step of Gr_2(F^4) with pivots b3, b4 has 81 points.
    A long list that took all the room would leave none for the short
    lists that later cells read.
    """
    rep, _ = _unlinked(4, 2)
    for q, factor, kept in ((3, 1, False), (3, 2, True), (2, 2, True)):
        tables = _Tables(rep)
        step = tables.step(0, [("b3", "b4"), ("b5",)])
        charge = oracle._MEMO_ENTRY_BYTES + q**4 * _point_bytes(step.chart)
        tables.room = factor * charge
        found = oracle._step_points(tables, step, [()], q)
        assert len(list(found)) == q**4
        assert (type(found) is tuple) == kept and step.points == ({(): found} if kept else {}), (q, factor)
        assert tables.room == factor * charge - kept * charge, (q, factor)


@pytest.mark.parametrize("budget", [0, 3000, oracle._MEMO_BYTES])
def test_the_room_pays_for_every_stored_list(monkeypatch, budget):
    """After each count and each listing, the room used is the charge of the point lists the steps' memos hold.

    `_step_points` is the one writer of a memo entry and of `room`, and
    takes a list only into half the room left, so a list written twice or
    charged wrongly would break the ledger.  No room keeps no list.
    """
    monkeypatch.setattr(oracle, "_MEMO_BYTES", budget)
    built = _record_tables(monkeypatch)
    checked, stored = 0, 0
    for name, rep, e in _cross_check_cases():
        if oracle.ambient_size(rep, e, 2) > oracle.DEFAULT_BUDGET:
            continue
        del built[:]
        count(rep, e, primes=(2,))
        for _ in enumerate_subreps(rep, e, 2):
            pass
        assert len(built) == 2, name
        for tables in built:
            assert 0 <= tables.room and budget - tables.room == _charged(tables), name
            stored += sum(map(len, _memos(tables)))
        checked += 1
    assert checked >= 80 and (stored > 0) == (budget > 0)


def test_memo_charges_bound_the_memory_they_stand_for():
    """A memo list of x costs at most `_point_bytes` per x.

    Measured with tracemalloc on lists of 500 and 3,000 points with
    distinct coordinates of at least 1,000, which CPython does not share,
    with the collector off: a collection would run the finalizers of
    earlier tests' garbage inside the measurement.
    """
    for block, pivots in ((tuple("abcd"), ("a",)), (tuple("abcdef"), tuple("bdf")), (tuple("abcdef"), tuple("def")),
                          (tuple("abcdefgh"), tuple("efgh"))):
        chart = Chart(block, pivots)
        n = chart.nfree
        for size in (500, 3000):
            gc.disable()
            tracemalloc.start()
            try:
                xs = tuple(tuple(range(1000 + i * n, 1000 + (i + 1) * n)) for i in range(size))
                listed = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
                gc.enable()
            assert len(xs) == size and listed <= size * _point_bytes(chart) + _TUPLE_BYTES, (pivots, size)


def _vanishing_mod_small_primes():
    """Three vertices, an arrow each way and a loop, with entries 2, 3, 6, -3 and -1.

    The loop is upper triangular: at q = 3 it is the scalar 2, so every
    subspace at its vertex is invariant, and at q = 2 it is nilpotent.
    """
    vertex_of = {"b1": "1", "b2": "1", "b3": "2", "b4": "2", "b5": "2", "b6": "3", "b7": "3"}
    mats = {
        "a": [[2, 1], [3, -1], [6, 0]],
        "b": [[6, 0], [0, 1]],
        "c": [[2, 3, 6], [0, -1, -3], [0, 0, 2]],
    }
    arrows = [("a", "1", "2"), ("b", "3", "1"), ("c", "2", "2")]
    rep = representation(quiver(["1", "2", "3"], arrows), OrderedBasis(tuple(vertex_of), vertex_of), mats)
    return rep, {"1": 1, "2": 2, "3": 1}


def _reduced(rep, q):
    """The same module with every matrix entry reduced mod q."""
    mats = {name: [[x % q for x in row] for row in mat] for name, mat in rep.matrices.items()}
    return representation(rep.quiver, rep.basis, mats)


def _forms(step):
    """Every form the step reads, lookahead rows first, as (constant, terms) with each term's coefficient last."""
    yield from step.lookahead
    for _, b, coefficients in step.rows:
        yield b
        yield from (a for _, a in coefficients)
    for const, linear, quadratic in step.loops:
        yield const, linear + quadratic


def test_entries_that_vanish_mod_a_sampled_prime_are_dropped_where_they_are_read():
    """One count over Z at three primes equals, prime by prime, the count of the module reduced mod q."""
    rep, e = _vanishing_mod_small_primes()
    primes = (2, 3, 5)
    reports = count(rep, e, primes=primes)
    assert reports == [count(_reduced(rep, q), e, primes=(q,))[0] for q in primes]
    assert [r.total for r in reports] == [6, 28, 2]
    cells = enumerate_cells(rep.basis, e, rep.quiver.vertices)
    for report in reports:
        assert report.per_cell == {beta.key(): cell_count(rep, beta, report.prime) for beta in cells}
    for q in (2, 3):
        original, reduced = (
            [(p.cell.key(), dict(p.subspaces)) for p in enumerate_subreps(module, e, q)]
            for module in (rep, _reduced(rep, q))
        )
        assert original == reduced
        # the case is not vacuous: some wired forms are nonzero over Z and vanish mod q
        tables = _Tables(rep)
        for beta in cells:
            list(_cell_points(rep, cell_pivots(rep, beta), q, tables))
        assert any(
            (c or terms) and c % q == 0 and all(t[-1] % q == 0 for t in terms)
            for step in tables._steps.values()
            for c, terms in _forms(step)
        ), q


# Charts and steps that count() builds on each entry at these primes.  With
# one table per prime they were (27, 75) and (66, 234), and with each step
# compiling the rows of its own arrows, (9, 65) and (33, 117).  While a last
# step adjacent to every earlier one was assembled afresh at each lookup
# and not kept, kronecker_preinjective(4) built (9, 20).
PINNED_BUILDS = {
    ("kronecker_preinjective(4)", (2, 3, 5)): (9, 16),
    ("ex_4_5_5", (2, 3)): (33, 19),
}


@pytest.mark.parametrize("spec, primes", sorted(PINNED_BUILDS))
def test_one_table_serves_every_prime_of_a_call(monkeypatch, spec, primes):
    """count builds one table for all its primes: one chart per (step, pivot tuple), each arrow's rows and each step once.

    The steps serve every prime, and the counts equal those of one call
    per prime.
    """
    built, charts, steps = [], [], []
    compiled = []  # the target chart of every compiled non-loop arrow
    memoised = {}  # prime -> the steps holding points at that prime

    class RecordedTables(_Tables):
        def __init__(self, m):
            super().__init__(m)
            built.append(self)

        def use_prime(self, q):
            if self.prime is not None and q != self.prime:
                memoised[self.prime] = {id(step) for step in self._steps.values() if step.points}
            super().use_prime(q)

    class RecordedChart(oracle.Chart):
        def __init__(self, *args):
            super().__init__(*args)
            charts.append(self)

        def incoming_rows(self, images):
            compiled.append(self)
            return super().incoming_rows(images)

        def outgoing_rows(self, images):
            compiled.append(self)
            return super().outgoing_rows(images)

    class RecordedStep(oracle._Step):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            steps.append(self)

    monkeypatch.setattr(oracle, "_Tables", RecordedTables)
    monkeypatch.setattr(oracle, "Chart", RecordedChart)
    monkeypatch.setattr(oracle, "_Step", RecordedStep)
    entry = catalog(spec)
    m, e = entry.representation, entry.dim_vector
    reports = count(m, e, primes=primes)
    (tables,) = built
    memoised[tables.prime] = {id(step) for step in tables._steps.values() if step.points}
    assert sorted(map(id, charts)) == sorted(map(id, tables._charts.values()))
    # every (arrow, source pivots, target pivots) is compiled once, whatever reads it
    arrows = [key[0] for key in tables._compiled if tables.arrows[key[0]][0] != tables.arrows[key[0]][1]]
    assert len(compiled) == len(arrows) > 0
    assert sorted(map(id, steps)) == sorted(map(id, tables._steps.values()))
    assert any(all(id(step) in memoised[q] for q in primes) for step in steps)  # steps serve every prime
    assert (len(charts), len(steps)) == PINNED_BUILDS[spec, primes]
    monkeypatch.undo()
    assert reports == [count(m, e, primes=(q,))[0] for q in primes]


# Arrow images and compiled (arrow, source pivots, target pivots) keys that
# count() builds on each entry at these primes.  Each compile built its
# images afresh before the table kept them per (arrow, source pivot tuple).
PINNED_IMAGES = {
    ("ex_4_5_5", (2, 3)): (10, 232),
    ("kronecker_preinjective(4)", (2, 3, 5)): (10, 40),
}


@pytest.mark.parametrize("spec, primes", sorted(PINNED_IMAGES))
def test_arrow_images_are_built_once_per_source_chart(monkeypatch, spec, primes):
    """count builds an arrow's images once per (arrow, source pivot tuple) it reaches, whatever the target charts."""
    built = _record_tables(monkeypatch)
    images = []  # (chart, columns) of every image build

    class RecordedChart(oracle.Chart):
        def images(self, columns):
            images.append((self, columns))
            return super().images(columns)

    monkeypatch.setattr(oracle, "Chart", RecordedChart)
    entry = catalog(spec)
    count(entry.representation, entry.dim_vector, primes=primes)
    (tables,) = built
    reached = {(k, source) for k, source, _ in tables._compiled}
    assert set(tables._images) == reached
    assert (len(images), len(tables._compiled)) == (len(reached), PINNED_IMAGES[spec, primes][1])
    assert len(images) == PINNED_IMAGES[spec, primes][0]


def test_compiled_rows_equal_the_per_pair_compile():
    """Every (arrow, source pivots, target pivots) that a cell can reach compiles to what one pass per pair of charts gives.

    The rows and loop forms picked from the images kept per source chart
    are checked, pure rows and rows in order, against `reference_compile`,
    which builds the images afresh for each pair, on every catalog family
    of the cross-check and on the random cycles, which have backward
    arrows and loops.
    """
    kinds = set()
    for name, rep, e in _cross_check_cases():
        tables = _Tables(rep)
        for beta in enumerate_cells(rep.basis, e, rep.quiver.vertices):
            pivots = cell_pivots(rep, beta)
            for k in range(len(tables.arrows)):
                tables.compiled(k, pivots)
        for (k, source, target), found in tables._compiled.items():
            s, t, columns = tables.arrows[k]
            expected = reference_compile(tables.chart(s, source), columns, tables.chart(t, target), s, t)
            assert found == expected, (name, k, source, target)
            kinds.add("loop" if s == t else "forward" if s < t else "backward")
        assert len(tables._images) == len({(k, source) for k, source, _ in tables._compiled}), name
    assert kinds == {"loop", "forward", "backward"}


@pytest.mark.parametrize("q", [2, 3, 5])
def test_the_count_path_elimination_reads_the_rank_of_the_built_rows(monkeypatch, q):
    """At every last-step arrival of a count, the rank `_last_count` reads is the reference rank of the rows as built.

    With no memo room, every arrival at a loop-free last step calls
    `_last_count`, which reads the number of echelon rows `_arrow_rows`
    returns, or None.  That equals `rank_mod` on the rows that the
    reference builder makes, evaluated and reduced mod q and not
    eliminated, or its None.  The returned rows are in echelon form: each
    has its pivot at its first nonzero entry, in a column that every
    other row is zero in or meets after its own pivot.  The arrivals
    include rows that vanish only mod q, rows that vanish over Z and
    inconsistent systems.
    """
    monkeypatch.setattr(oracle, "_MEMO_BYTES", 0)
    ranked = record_count_path_rows(monkeypatch)
    seen = set()
    for name, rep, e in _cross_check_cases():
        if oracle.ambient_size(rep, e, q) > oracle.DEFAULT_BUDGET:
            continue
        del ranked[:]
        count(rep, e, primes=(q,))
        for step, values, _, rows in ranked:
            built = reference_arrow_rows(step, values, q)
            expected = None if built is None else rank_mod(*built, q)
            assert (None if rows is None else len(rows)) == expected, (name, values)
            seen.add("consistent" if rows is not None else "inconsistent")
            if rows:
                leads = [row.index(next(filter(None, row))) for row in rows]
                assert len(set(leads)) == len(leads) and max(leads) < step.chart.nfree, (name, values)
                assert all(rows[j][c] == 0 for i, c in enumerate(leads) for j in range(i + 1, len(rows)))
            for k, (b, terms), coefficients in step.rows:
                y = values[k]
                forms = [b + sum(c * y[u] for u, c in terms)]
                forms += [a + sum(c * y[u] for u, c in terms) for _, (a, terms) in coefficients]
                if not any(forms):
                    seen.add("zero over Z")
                elif not any(f % q for f in forms):
                    seen.add("zero mod q only")
    assert seen == {"consistent", "inconsistent", "zero over Z", "zero mod q only"}


def _step_key(tables, pivots, i):
    """Key of step i by pivots alone: the step and the pivot tuples at i and at each of its neighbours, earlier and later.

    They fix the step's lookahead rows, so each such key meets one wired step.
    """
    later = [j for j, earlier in enumerate(tables.neighbours) if i in earlier]
    return (i, pivots[i], *[pivots[k] for k in (*tables.neighbours[i], *later)])


def _record_step_lookups(tables, lookups):
    """Make tables.step append (step index, lookup key, wired step) to lookups on every call."""
    lookup = tables.step

    def step(i, pivots):
        found = lookup(i, pivots)
        lookups.append((i, _step_key(tables, pivots, i), found))
        return found

    tables.step = step


def test_one_step_is_wired_per_distinct_key(monkeypatch):
    """Each step is built once per content key and found again by the pivot tuples around it.

    The content key is the step, its pivot tuple, its earlier neighbours'
    pivot tuples and its lookahead rows, so cells whose later neighbours
    put the same rows on it share one step and one memo.
    """
    built = []

    class RecordedStep(oracle._Step):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(oracle, "_Step", RecordedStep)
    shared = merged = lookahead = 0
    for rep, e, q in _order_cases():
        built.clear()
        tables = _Tables(rep)
        lookups = []
        _record_step_lookups(tables, lookups)
        for beta in enumerate_cells(rep.basis, e, rep.quiver.vertices):
            list(_cell_points(rep, cell_pivots(rep, beta), q, tables))
        found = {}
        for _, key, step in lookups:
            assert found.setdefault(key, step) is step, key
        kept = {id(step) for step in found.values()}
        assert kept == set(map(id, tables._steps.values())) == set(map(id, built))
        assert all(type(step.points) is dict for step in tables._steps.values())
        assert all(key[-1] == step.lookahead for key, step in tables._steps.items())
        assert len(built) == len(kept)  # each step is built once
        shared += len(lookups) - len(found)
        merged += len(found) - len(kept)
        lookahead += sum(1 for step in tables._steps.values() if step.lookahead)
    assert shared > 0  # some cells met a step that an earlier cell wired
    assert merged > 0 and lookahead > 0  # cells with other later pivot tuples shared a step by its rows


def test_a_cell_wires_only_the_steps_its_search_reaches():
    """count(degenerate_flag(4)) at q = 2 wires a step only when a search reaches it.

    The search of a cell reaches step j > 0 only if the cell restricted to
    the first j vertices has a point, which the oracle counts
    independently on the restricted module; with each pure row read at
    the earlier step it constrains, 2,205 searches stop before that depth,
    all on cells without points.  Wiring every step of every cell would
    take 2,500 x 4 = 10,000 lookups by 1,100 distinct keys.  The searches
    reached 6,855 steps, sharing 205 wired ones, before the pure rows
    moved; now they reach 4,650 by 546 keys, sharing 203 wired steps.
    """
    entry = catalog("degenerate_flag(4)")
    rep, e, q = entry.representation, entry.dim_vector, 2
    vertices = rep.quiver.vertices
    cells = enumerate_cells(rep.basis, e, vertices)
    prefix_counts = []
    for j in range(1, len(vertices)):
        head = restrict(rep, full_subquiver(rep.quiver, vertices[:j]))
        (report,) = count(head, {v: e[v] for v in vertices[:j]}, primes=(q,))
        prefix_counts.append(report.per_cell)
    tables = _Tables(rep)
    lookups = []
    _record_step_lookups(tables, lookups)
    reached = 0
    eager = set()
    looked_up = set()
    dead_early = 0
    shallower = 0
    for beta in cells:
        del lookups[:]
        points = sum(1 for _ in _cell_points(rep, cell_pivots(rep, beta), q, tables))
        steps = [i for i, _, _ in lookups]
        depth = 1 + sum(
            1
            for j, per_cell in enumerate(prefix_counts, 1)
            if per_cell[",".join(b for b in beta.elements if rep.basis.vertex_of[b] in vertices[:j])]
        )
        assert steps == list(range(len(steps))) and len(steps) <= depth, beta.key()
        shallower += len(steps) < depth
        dead_early += points == 0 and len(steps) < len(vertices)
        reached += len(steps)
        looked_up.update(key for _, key, _ in lookups)
        chosen = set(beta.elements)
        pivots = [tuple(b for b in block if b in chosen) for block in tables.blocks]
        eager.update(_step_key(tables, pivots, i) for i in range(len(vertices)))
    assert len(cells) * len(vertices) == 10000
    assert eager >= looked_up
    counts = (reached, len(tables._steps), len(looked_up), len(eager), dead_early, shallower)
    assert counts == (4650, 203, 546, 1100, 2205, 2205)


def test_point_dicts_are_fresh_and_independent():
    """Each point of a stream is its own dict: clearing one as it arrives changes no other."""
    cases = [(catalog(spec), q) for spec, q in (("degenerate_flag(3)", 3), ("ex_4_5_5", 3), ("one_vertex(4)", 2))]
    for entry, q in cases:
        rep, e = entry.representation, entry.dim_vector
        cells = enumerate_cells(rep.basis, e, rep.quiver.vertices)
        fresh = [list(_cell_points(rep, cell_pivots(rep, beta), q)) for beta in cells]
        tables = _Tables(rep)
        for _ in range(2):  # the second pass reads the memos the first one filled
            for beta, expected in zip(cells, fresh):
                seen, copies = [], []
                for point in _cell_points(rep, cell_pivots(rep, beta), q, tables):
                    copies.append(dict(point))
                    point.clear()
                    seen.append(point)
                assert copies == expected, beta.key()
                assert len({id(point) for point in seen}) == len(seen)


# Work of count() on each entry at these primes: calls of _chart_solutions,
# solve_mod and iter_solutions_mod, the points iter_solutions_mod yields,
# the systems the count path eliminates (`_arrow_rows` under a loop-free
# `_last_count`) and how many of those the rows the reference builder
# makes would send to rank_mod.  The last column was the rank_mod column
# when the count built the rows first and ranked them after: that builder
# refused 157 of the 725 systems of kronecker_preinjective(4) by a row whose
# coefficients vanish mod q before rank_mod saw them, and the elimination
# reads each of the 725 once, as the builder did.  Before each pure row was
# read at the earlier step it constrains the first four were (3747, 565,
# 583, 946), (2290, 150, 162, 304), (1550, 53, 65, 112) and (6, 0, 6,
# 16226); before the loop-free last step was counted by its rank they were
# (767, 565, 574, 738), (190, 150, 162, 304), (85, 53, 65, 112) and (6, 0,
# 6, 16226).  one_loop(4,1) has a cell whose loop forms all vanish, so its
# one step is counted, not listed.
PINNED_WORK = {
    ("kronecker_preinjective(4)", (2, 3, 5)): (42, 0, 6, 725, 725, 568),
    ("kronecker_preprojective(5)", (2, 3)): (38, 0, 10, 152, 152, 152),
    ("ex_4_5_5", (2, 3)): (30, 0, 10, 57, 55, 55),
    ("one_loop(4,1)", (11,)): (5, 0, 5, 16225, 1, 1),
}


@pytest.mark.parametrize("spec, primes", sorted(PINNED_WORK))
def test_pure_rows_and_loop_forms_save_images_not_solves(monkeypatch, spec, primes):
    """Pure rows read at the earlier step they constrain, and loops read as forms, save chart systems, not solves."""
    calls = dict.fromkeys(("_chart_solutions", "solve_mod", "iter_solutions_mod", "yielded"), 0)

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(owner, name, wrapper)

    def yielding(*args):
        calls["iter_solutions_mod"] += 1
        for x in linalg.iter_solutions_mod(*args):
            calls["yielded"] += 1
            yield x

    counted(oracle, "_chart_solutions")
    counted(linalg, "solve_mod")
    monkeypatch.setattr(oracle, "iter_solutions_mod", yielding)
    ranked = record_count_path_rows(monkeypatch)
    entry = catalog(spec)
    count(entry.representation, entry.dim_vector, primes=primes)
    built = sum(reference_arrow_rows(step, values, q) is not None for step, values, q, _ in ranked)
    assert (*calls.values(), len(ranked), built) == PINNED_WORK[spec, primes]


def _rank(columns, q):
    return len(column_echelon_max_pivot(columns, q)[1])


def _looped_modules():
    for spec in ("one_loop(3,0)", "one_loop(3,1)", "one_loop(4,0)", "one_loop(4,1)"):
        rep = catalog(spec).representation
        for e in range(rep.rank("1") + 1):
            yield spec, rep, {"1": e}
    for seed in range(40):
        rep, e = random_branching_cycle(seed)
        if any(a.src == a.tgt for a in rep.quiver.arrows):
            yield f"seed {seed}", rep, e


@pytest.mark.parametrize("q", [2, 3, 5])
def test_loop_forms_agree_with_a_rank_test_on_every_chart_point(q):
    """A chart point passes the loops exactly when each loop A keeps its span: rank [G | A G] = rank G.

    Every point of the chart of every looped step is checked, in every
    cell, not only those that satisfy the step's other arrows.
    """
    outcomes = set()
    seeds = 0
    for name, rep, e in _looped_modules():
        seeds += name.startswith("seed")
        tables = _Tables(rep)
        vertices = rep.quiver.vertices
        for beta in enumerate_cells(rep.basis, e, vertices):
            chosen = set(beta.elements)
            pivots = [tuple(b for b in block if b in chosen) for block in tables.blocks]
            for i, v in enumerate(vertices):
                loops = [rep.matrices[a.name] for a in rep.quiver.arrows if a.src == a.tgt == v]
                if not loops:
                    continue
                step = tables.step(i, pivots)
                for x in product(range(q), repeat=step.chart.nfree):
                    g = list(zip(*step.chart.build(x)[1]))  # the generators, as columns
                    held = all(
                        _rank(g + [mat_vec_mod(a, col, q) for col in g], q) == _rank(g, q) for a in loops
                    )
                    assert oracle._loops_hold(step, x, q) == held, (name, beta.key(), x)
                    outcomes.add(held)
    assert seeds > 0 and outcomes == {True, False}


def _arrow_cases():
    for spec in ("ex_4_5_5", "kronecker_preinjective(4)", "degenerate_flag(3)"):
        entry = catalog(spec)
        yield spec, entry.representation, entry.dim_vector
    yield ("partly read pair", *_partly_read_pair())
    for seed in range(40):
        yield (f"seed {seed}", *random_branching_cycle(seed))


def _partly_read_pair():
    """Two vertices of rank 3 with arrows into a plane, and an arrow on from it to a fourth vertex.

    On the charts with pivots b3, b6 and b8, with coordinates y, z and x,
    arrow a asks x * y[0] = 1 and arrow b asks x = z[0] + 1, so the step
    at vertex 3 reads part of each of its two earlier neighbours, and a
    key that forgot either value would hand one y the points of another.
    """
    vertex_of = {f"b{i}": v for i, v in zip(range(1, 11), "1112223344")}
    mats = {"a": [[0, 0, 1], [1, 0, 0]], "b": [[1, 0, 1], [0, 0, 1]], "c": [[1, 0], [0, 1]]}
    arrows = [("a", "1", "3"), ("b", "2", "3"), ("c", "3", "4")]
    rep = representation(quiver(["1", "2", "3", "4"], arrows), OrderedBasis(tuple(vertex_of), vertex_of), mats)
    return rep, dict.fromkeys("1234", 1)


@pytest.mark.parametrize("q", [2, 3])
def test_a_step_that_reads_part_of_two_neighbours_counts_exactly(monkeypatch, q):
    """Memos keyed by some coordinates of two neighbours give the brute-force total, and each cell what it lists.

    Each step at vertex 3 with pivot b8, over pivots b3 and b6, reads one
    of the two coordinates of each, and keeps points.  The message before
    it is keyed by those two values, and the one before vertex 2, which
    reads nothing, by the one value of vertex 1 that vertex 3 reads.
    """
    built = _record_tables(monkeypatch)
    rep, e = _partly_read_pair()
    (report,) = count(rep, e, primes=(q,))
    (tables,) = built
    assert report.total == independent_total(rep, e, q)
    assert report.per_cell == _listed_per_cell(rep, e, q)
    steps = [step for key, step in tables._steps.items() if key[:4] == (2, ("b8",), ("b3",), ("b6",))]
    assert steps and all(step.reads == ((0, 0), (1, 0)) for step in steps)
    assert any(step.points for step in steps)
    assert tables._later == [(1, 2), (2,), (3,)] and {i for i, _ in tables._separators} == {0}


def _triangle():
    """`_partly_read_pair` without vertex 4: its last step, at vertex 3, has both earlier steps as neighbours."""
    rep, e = _partly_read_pair()
    vertices = ["1", "2", "3"]
    rep = restrict(rep, full_subquiver(rep.quiver, vertices))
    return rep, {v: e[v] for v in vertices}


def _looped_triangle():
    """Arrows 1 -> 2, 2 -> 3, 1 -> 3 and a loop at 3: the last step has both earlier steps as neighbours, and a loop.

    It has q + 1 points over F_q.
    """
    vertex_of = {f"b{i}": v for i, v in zip(range(1, 8), "1122333")}
    mats = {
        "a": [[1, 1], [0, 1]],
        "b": [[1, 0], [0, 1], [0, 0]],
        "c": [[0, 1], [1, 0], [0, 0]],
        "d": [[1, 1, 0], [0, 1, 0], [0, 0, 2]],
    }
    arrows = [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3"), ("d", "3", "3")]
    rep = representation(quiver(["1", "2", "3"], arrows), OrderedBasis(tuple(vertex_of), vertex_of), mats)
    return rep, {"1": 1, "2": 1, "3": 2}


def _message_cases():
    """(name, module, dimension vector, q, total or None): the total by Dellac sums or raw matrices, where cheap."""
    for n, q in ((3, 3), (4, 2)):
        entry = catalog(f"degenerate_flag({n})")
        total = sum(b * q**d for d, b in enumerate(dellac_betti(n)))
        yield f"degenerate_flag({n})", entry.representation, entry.dim_vector, q, total
    entry = catalog("ex_4_5_5")
    yield "ex_4_5_5", entry.representation, entry.dim_vector, 3, None
    cases = [(f"seed {seed}", *random_branching_cycle(seed), 2) for seed in range(40)]
    cases += [("partly read pair", *_partly_read_pair(), 3), ("triangle", *_triangle(), 3),
              ("looped triangle", *_looped_triangle(), 3)]
    for spec, q in (("kronecker_preinjective(4)", 3), ("one_vertex(3)", 3), ("one_loop(5,1)", 2), ("two_lines", 3),
                    ("kronecker_regular(3,1)", 3), ("kronecker_preprojective(4)", 2), ("ex_4_5_1", 3)):
        entry = catalog(spec)
        cases.append((spec, entry.representation, entry.dim_vector, q))
    for name, rep, e, q in cases:
        yield name, rep, e, q, independent_total(rep, e, q)


@pytest.mark.parametrize("cap", [1, oracle._MESSAGE_ENTRIES])
def test_a_message_cap_changes_no_cell_count(monkeypatch, cap):
    """Each cell counts the same whether its messages are passed on at once or only when full.

    With a cap of 1 a message is passed on as soon as a second tuple of
    values comes, a depth-first walk; at the default cap none of these
    fills.  Per-cell counts equal the tallies of the listing path, and
    their sum the Dellac sum or the count by raw matrices, where those
    are cheap.  Every message holds at most `cap` entries, those handed
    to the last step too, and at the default cap some of those merge
    prefixes.  The cases take in the cycles and loops,
    `_partly_read_pair`, whose separator after its second step spans both
    earlier steps, one-vertex entries, whose one step is the last, with
    and without loops, two-vertex ones, whose last step reads the first,
    and two triangles, whose last step's reads make the separator after
    the first, one with a loop at that step.
    """
    monkeypatch.setattr(oracle, "_MESSAGE_ENTRIES", cap)
    sizes = []  # (whether the last step takes it, entries) of each message of one count
    forward = oracle._forward

    def recorded(tables, steps, pivots, i, message, q):
        sizes.append((i == len(steps) - 1, len(message)))
        return forward(tables, steps, pivots, i, message, q)

    monkeypatch.setattr(oracle, "_forward", recorded)
    merged = False
    for name, rep, e, q, total in _message_cases():
        del sizes[:]
        (report,) = count(rep, e, primes=(q,))
        assert report.per_cell == _listed_per_cell(rep, e, q), name
        assert total in (None, report.total), name
        assert sizes and max(n for _, n in sizes) <= cap, name
        assert report.total == 0 or any(last for last, _ in sizes), name
        merged |= any(last and n > 1 for last, n in sizes)
    assert merged == (cap > 1)


@pytest.mark.parametrize("cap", [1, oracle._MESSAGE_ENTRIES])
def test_the_cell_order_changes_no_cell_count(monkeypatch, cap):
    """One table counts each cell as a fresh one does, whichever cell came before it.

    A cell resumes from the trail that the cell before it left, so the
    natural, reversed and a shuffled order of `cell_plan` each resume
    from other prefixes; each per-cell count must equal `cell_count`'s,
    which builds a table for the one cell.  At a cap of 1 every message
    of two or more entries is passed on before it is whole, and is kept
    on no trail.
    """
    monkeypatch.setattr(oracle, "_MESSAGE_ENTRIES", cap)
    starts = []  # the step of each entry of `_forward`
    forward = oracle._forward

    def recorded(tables, steps, pivots, i, message, q):
        starts.append(i)
        return forward(tables, steps, pivots, i, message, q)

    monkeypatch.setattr(oracle, "_forward", recorded)
    cases = [(name, rep, e, q) for name, rep, e, q, _ in _message_cases()]
    for seed in (0, 3, 7, 11):
        entry = catalog(f"forest_block({seed},10)")
        cases.append((f"forest_block({seed},10)", entry.representation, entry.dim_vector, 2))
    rng = random.Random(5)
    resumed = 0  # orders in which fewer cells entered `_forward` at step 0 than were counted
    for name, rep, e, q in cases:
        cells = enumerate_cells(rep.basis, e, rep.quiver.vertices)
        plan = cell_plan(rep.basis, e, rep.quiver.vertices)
        fresh = {beta.key(): cell_count(rep, beta, q) for beta in cells}
        shuffled = list(plan)
        rng.shuffle(shuffled)
        for order in (plan, plan[::-1], shuffled):
            del starts[:]
            tables = _Tables(rep)
            assert {key: oracle._cell_total(tables, pivots, q) for key, pivots in order} == fresh, name
            resumed += starts.count(0) < len(order)
    assert resumed > 0


def _placed(tables, pivots, q, values, i=0):
    """(step index, wired step) at each point the search of one cell places before that step.

    Each step places its chart solutions that pass its loops and its
    lookahead rows, as the search does.  values holds the placed points
    when each pair comes out.
    """
    step = tables.step(i, pivots)
    yield i, step
    if i + 1 < len(values):
        for x in oracle._chart_solutions(step, values, q):
            if oracle._loops_hold(step, x, q):
                values[i] = x
                yield from _placed(tables, pivots, q, values, i + 1)


def _generators(chart, x):
    """The columns of the chart point at x."""
    return list(zip(*chart.build(x)[1]))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_arrow_rows_agree_with_a_rank_test_on_every_chart_point(q):
    """A chart point passes the arrow rows exactly when each arrow A to a placed neighbour keeps its span.

    That is rank [G_tgt | A G_src] = rank G_tgt, with G the generators of
    each end's chart point.  Every wired step of every cell is checked at
    every point its search places on the neighbours: on every point of
    its own chart when there are at most 81, else on every solution and
    ten random points.  The solutions are those of a fresh copy of the
    step with no lookahead rows, so that only the arrows decide.
    """
    rng = random.Random(q)
    outcomes = set()
    for name, rep, e in _arrow_cases():
        tables = _Tables(rep)
        vertices = rep.quiver.vertices
        index = {v: i for i, v in enumerate(vertices)}
        arrows = [[] for _ in vertices]  # non-loop arrows, at their later end
        for a in rep.quiver.arrows:
            s, t = index[a.src], index[a.tgt]
            if s != t:
                arrows[max(s, t)].append((s, t, rep.matrices[a.name]))
        seen = set()
        for beta in enumerate_cells(rep.basis, e, vertices):
            chosen = set(beta.elements)
            pivots = [tuple(b for b in block if b in chosen) for block in tables.blocks]
            values = [()] * len(vertices)
            for i, step in _placed(tables, pivots, q, values):
                key = (step, tuple(values[k] for k in tables.neighbours[i]))
                if key in seen:
                    continue
                seen.add(key)
                g = {k: _generators(tables.chart(k, pivots[k]), values[k]) for k in tables.neighbours[i]}
                passed = set(oracle._chart_solutions(tables._assemble(i, pivots, ()), values, q))
                nfree = step.chart.nfree
                points = product(range(q), repeat=nfree)
                if q**nfree > 81:
                    points = passed | {tuple(rng.randrange(q) for _ in range(nfree)) for _ in range(10)}
                for x in points:
                    g[i] = _generators(step.chart, x)
                    held = all(  # chart generators are independent: rank G_tgt = len(G_tgt)
                        _rank(g[t] + [mat_vec_mod(a, col, q) for col in g[s]], q) == len(g[t])
                        for s, t, a in arrows[i]
                    )
                    assert (x in passed) == held, (name, beta.key(), i, x)
                    outcomes.add(held)
    assert outcomes == {True, False}


def _lookahead_holds(step, x, q):
    """Every lookahead row b of the step vanishes at x mod q."""
    return all((const + sum(c * x[u] for u, c in terms)) % q == 0 for const, terms in step.lookahead)


@pytest.mark.parametrize("q", [2, 3])
def test_memoised_points_are_the_chart_solutions_that_satisfy_the_lookahead_rows(q):
    """Every memoised point satisfies its step's lookahead rows; every chart solution that the step drops violates one.

    The memo of each step is compared, at every key, with the chart
    solutions there that pass its loops, filtered by its lookahead rows,
    in order.  The chart solutions come from a fresh copy of the step
    with no lookahead rows.
    """
    memos = dropped = ahead = 0
    for name, rep, e in _arrow_cases():
        tables = _Tables(rep)
        for beta in enumerate_cells(rep.basis, e, rep.quiver.vertices):
            list(_cell_points(rep, cell_pivots(rep, beta), q, tables))
        for key, step in tables._steps.items():
            i = key[0]
            pivots = _key_pivots(tables, key)
            ahead += bool(step.lookahead)
            bare = tables._assemble(i, pivots, ())
            for read, points in step.points.items():
                values = _values_read(tables, key, step, read)
                solutions = [x for x in oracle._chart_solutions(bare, values, q) if oracle._loops_hold(step, x, q)]
                kept = list(points)
                assert all(_lookahead_holds(step, x, q) for x in kept), (name, key, read)
                assert kept == [x for x in solutions if _lookahead_holds(step, x, q)], (name, key, read)
                memos += 1
                dropped += len(solutions) - len(kept)
    assert memos > 0 and ahead > 0 and dropped > 0


@pytest.mark.parametrize("q", [2, 3])
def test_every_pure_row_is_a_lookahead_row_at_the_earlier_end(q):
    """Each pure row of a reached arrow is a lookahead row of every step the search built at its earlier end.

    The later end does not read its pure rows, so the search stays exact
    only because the earlier end's points all satisfy them.  No step
    keeps a row without coefficients.
    """
    pure_rows = 0
    for name, rep, e in _arrow_cases():
        tables = _Tables(rep)
        lookups = []
        _record_step_lookups(tables, lookups)
        for beta in enumerate_cells(rep.basis, e, rep.quiver.vertices):
            pivots = cell_pivots(rep, beta)
            del lookups[:]
            list(_cell_points(rep, pivots, q, tables))
            for i, _, step in lookups:
                assert all(coefficients for _, _, coefficients in step.rows), (name, beta.key(), i)
                for k, (s, t, _) in enumerate(tables.arrows):
                    if s != t and min(s, t) == i:
                        pure, _ = tables._compiled[k, pivots[s], pivots[t]]  # reached when step i was
                        assert set(pure) <= set(step.lookahead), (name, beta.key(), k)
                        pure_rows += len(pure)
    assert pure_rows > 0


def _key_pivots(tables, key):
    """Pivot tuples at the step of a kept step's key and at its earlier neighbours, and () elsewhere."""
    i = key[0]
    pivots = [()] * len(tables.blocks)
    pivots[i] = key[1]
    for k, tuple_k in zip(tables.neighbours[i], key[2:]):
        pivots[k] = tuple_k
    return pivots


def _values_at(tables, i, ys):
    """A values list with ys[j] at the j-th earlier neighbour of step i, and () elsewhere."""
    values = [()] * len(tables.blocks)
    for k, y in zip(tables.neighbours[i], ys):
        values[k] = y
    return values


def _values_read(tables, key, step, read):
    """Values at the earlier neighbours of the kept step under key that its memo key maps to read: 0 where unread.

    The memo key is (), a bare value, a tuple of them or a tuple of whole
    coordinate tuples; flattened, it lists the values at `reads` in order.
    """
    flat = [read] if type(read) is int else [v for part in read for v in (part if type(part) is tuple else [part])]
    assert len(flat) == len(step.reads)
    pivots = _key_pivots(tables, key)
    values = _values_at(tables, key[0], [[0] * tables.chart(k, pivots[k]).nfree for k in tables.neighbours[key[0]]])
    for (k, u), v in zip(step.reads, flat):
        values[k][u] = v
    values = [tuple(y) for y in values]
    assert step.key(values) == read
    return values


@pytest.mark.parametrize("q", [2, 3])
def test_a_step_reads_nothing_but_its_read_coordinates(q):
    """Values that agree on a step's read coordinates give the same chart solutions and last-step count.

    The step's memo and the count's messages, keyed by the values at its
    reads, rest on this.  Each step is checked at every key its search
    reached and at two random points of its neighbours' charts, against
    the same values with every coordinate that the step does not read
    moved to another residue; both map to the same memo key.  Both sides
    are solved on fresh copies of the step, with and without its
    lookahead rows, and a last step is counted on a fresh copy for each
    side, so no memo answers.
    """
    rng = random.Random(q)
    checked = moved = lasts = 0
    for name, rep, e in _arrow_cases():
        tables = _Tables(rep)
        cells = enumerate_cells(rep.basis, e, rep.quiver.vertices)
        for beta in cells:
            list(_cell_points(rep, cell_pivots(rep, beta), q, tables))
            sum(_cell_points(rep, cell_pivots(rep, beta), q, tables, _counting=True))
        last = len(tables.blocks) - 1
        for key, step in tables._steps.items():
            i = key[0]
            neighbours = tables.neighbours[i]
            pivots = _key_pivots(tables, key)
            bare, unfiltered = (tables._assemble(i, pivots, rows) for rows in (step.lookahead, ()))
            sizes = [tables.chart(k, pivots[k]).nfree for k in neighbours]
            reached = [_values_read(tables, key, step, read) for read in step.points]
            drawn = [
                _values_at(tables, i, [tuple(rng.randrange(q) for _ in range(n)) for n in sizes]) for _ in range(2)
            ]
            for values in reached + drawn:
                other = [list(y) for y in values]
                for k in neighbours:
                    for u in range(len(other[k])):
                        if (k, u) not in step.reads:
                            other[k][u] = (other[k][u] + rng.randrange(1, q)) % q
                            moved += 1
                other = [tuple(y) for y in other]
                assert step.key(other) == step.key(values)
                for copy in (bare, unfiltered):
                    assert list(oracle._chart_solutions(copy, other, q)) == list(
                        oracle._chart_solutions(copy, values, q)
                    ), (name, key, values, other)
                if i == last:
                    fresh = [tables._assemble(i, pivots, ()) for _ in range(2)]
                    counted = [oracle._last_count(copy, v, q) for copy, v in zip(fresh, (other, values))]
                    assert counted[0] == counted[1], (name, key, values, other)
                    lasts += 1
                checked += 1
    assert checked > 0 and moved > 0 and lasts > 0


# Every catalog family at sizes the oracle finishes under the default
# budget at q = 2 at least; an entry over the budget at a prime is refused
# by both paths there and is skipped at that prime.
_CROSS_CHECK_SPECS = [
    "one_vertex(0)", "one_vertex(1)", "one_vertex(4)",
    "flag(1;1)", "flag(3;1,2)", "flag(2;1,1,2)",
    "one_loop(1,0)", "one_loop(3,0)", "one_loop(3,2)", "one_loop(4,1)",
    "two_lines",
    "kronecker_regular(1,0)", "kronecker_regular(2,0)", "kronecker_regular(3,2)",
    "ex_4_5_1", "ex_4_5_2", "ex_4_5_5",
    "degenerate_flag(1)", "degenerate_flag(2)", "degenerate_flag(3)", "degenerate_flag(4)",
    "degenerate_flag_pi(1)", "degenerate_flag_pi(2)", "degenerate_flag_pi(3)", "degenerate_flag_pi(4)",
] + [f"kronecker_{kind}({n})" for kind in ("preprojective", "preinjective") for n in (1, 2, 3, 4, 5)]


def _listed_per_cell(rep, e, q):
    """The per-cell tally of the enumerate_subreps stream."""
    listed = {beta.key(): 0 for beta in enumerate_cells(rep.basis, e, rep.quiver.vertices)}
    for point in enumerate_subreps(rep, e, q):
        listed[point.cell.key()] += 1
    return listed


def _cross_check_cases():
    for spec in _CROSS_CHECK_SPECS:
        entry = catalog(spec)
        yield spec, entry.representation, entry.dim_vector
    for seed in range(20):
        entry = catalog(f"forest_block({seed},10)")
        yield f"forest_block({seed},10)", entry.representation, entry.dim_vector
    for seed in range(40):
        yield (f"seed {seed}", *random_branching_cycle(seed))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_each_cell_count_equals_the_tally_of_the_listing_path(monkeypatch, q):
    """count, which ranks a loop-free last step instead of listing it, gives each cell the points enumerate_subreps lists."""
    ranked = record_count_path_rows(monkeypatch)
    checked = looped = 0
    for name, rep, e in _cross_check_cases():
        if oracle.ambient_size(rep, e, q) > oracle.DEFAULT_BUDGET:
            continue
        (report,) = count(rep, e, primes=(q,))
        assert report.per_cell == _listed_per_cell(rep, e, q), name
        checked += 1
        looped += any(a.src == a.tgt for a in rep.quiver.arrows)
    # consistent and inconsistent last steps were ranked, and modules with loops checked
    results = [rows for *_, rows in ranked]
    assert checked >= 80 and looped >= 10 and None in results and any(results)


def test_each_cell_count_equals_the_tally_of_the_listing_path_at_17():
    entry = catalog("kronecker_preprojective(3)")
    rep, e = entry.representation, entry.dim_vector
    (report,) = count(rep, e, primes=(17,))
    assert report.per_cell == _listed_per_cell(rep, e, 17)
    assert report.total == 1 + 17 + 17**2


def test_a_table_that_counted_lists_the_same_points_and_the_other_way_round():
    """One table used for a count, then a listing, then a count again at the same prime gives the same points and counts.

    The listing reads the point lists that the count stored, and the
    second count those that the listing stored.
    """
    cases = [(f"seed {seed}", *random_branching_cycle(seed), 3) for seed in range(10)]
    for spec, q in (("degenerate_flag(3)", 3), ("ex_4_5_5", 2), ("kronecker_preinjective(4)", 5)):
        entry = catalog(spec)
        cases.append((spec, entry.representation, entry.dim_vector, q))
    stored = 0
    for name, rep, e, q in cases:
        cells = enumerate_cells(rep.basis, e, rep.quiver.vertices)
        fresh = [list(_cell_points(rep, cell_pivots(rep, beta), q)) for beta in cells]
        counts = [len(points) for points in fresh]
        tables = _Tables(rep)
        assert [sum(_cell_points(rep, cell_pivots(rep, beta), q, tables, _counting=True)) for beta in cells] == counts, name
        stored += sum(map(len, _memos(tables)))
        for beta, points in zip(cells, fresh):
            listed = list(_cell_points(rep, cell_pivots(rep, beta), q, tables))
            assert all(type(point) is dict for point in listed) and listed == points, (name, beta.key())
        assert [sum(_cell_points(rep, cell_pivots(rep, beta), q, tables, _counting=True)) for beta in cells] == counts, name
    assert stored > 0  # some point lists were memoised before the listings ran


def test_the_count_path_builds_no_matrix(monkeypatch):
    """count reads bare chart coordinates: with Chart.build raising, every total stays the same.

    Each case runs with the default memo room and with none, so memoised
    lists and streams are both counted.  The random cycles' totals are
    tallied first by enumerate_subreps, which builds matrices.
    """
    cases = [("degenerate_flag(3)", (2, 3, 5), [531, 3340, 42066]), ("one_loop(4,1)", (11,), [1]),
             ("kronecker_preinjective(4)", (2, 3, 5), [3, 4, 6])]
    cases = [(catalog(spec).representation, catalog(spec).dim_vector, primes, totals) for spec, primes, totals in cases]
    for seed in range(40):
        rep, e = random_branching_cycle(seed)
        cases.append((rep, e, (2,), [sum(_listed_per_cell(rep, e, 2).values())]))

    def refused(self, x):
        raise AssertionError("the count path built a matrix")

    monkeypatch.setattr(oracle.Chart, "build", refused)
    for budget in (oracle._MEMO_BYTES, 0):
        monkeypatch.setattr(oracle, "_MEMO_BYTES", budget)
        for rep, e, primes, totals in cases:
            assert [r.total for r in count(rep, e, primes=primes)] == totals, (budget, primes)
    assert any(totals[0] for *_, totals in cases[3:])


def test_a_listing_charges_only_point_lists():
    """Every cell listed through one table leaves the room charged for the stored point lists and nothing else.

    Each stored list is charged one `_MEMO_ENTRY_BYTES` and `_point_bytes`
    per x; the listing builds each point's matrices afresh and keeps none.
    """
    for spec, q, total in (("degenerate_flag(4)", 2, 26961), ("degenerate_flag(3)", 3, 3340)):
        entry = catalog(spec)
        rep, e = entry.representation, entry.dim_vector
        tables = _Tables(rep)
        listed = sum(1 for _, pivots in cell_plan(rep.basis, e, rep.quiver.vertices)
                     for _ in _cell_points(rep, pivots, q, tables))
        lists = [(step.chart, xs) for step in tables._steps.values() for xs in step.points.values()]
        assert listed == total and lists, spec
        charges = sum(oracle._MEMO_ENTRY_BYTES + len(xs) * _point_bytes(chart) for chart, xs in lists)
        assert oracle._MEMO_BYTES - tables.room == charges, spec
