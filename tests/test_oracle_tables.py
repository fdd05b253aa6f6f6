"""Charts, generator images and step point lists shared by the cells of one oracle call.

`count` and `enumerate_subreps` build the cell-independent parts of every
search plan once per call, as integer forms shared by every prime, and
memoise each step's points there, emptying the memos when the prime
changes; a direct `cell_count` builds its own.  Both paths must give the
same counts and the same points in the same order, whatever order the
cells come in.
"""

import hashlib
import random
import tracemalloc
from itertools import chain, product

import pytest

from quiver_schubert import linalg, oracle
from quiver_schubert.catalog import catalog
from quiver_schubert.linalg import column_echelon_max_pivot, mat_vec_mod
from quiver_schubert.oracle import _cell_points, _Tables, cell_count, count, enumerate_subreps
from quiver_schubert.quiver import full_subquiver, quiver
from quiver_schubert.representation import OrderedBasis, representation, restrict
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
        fresh = {beta.key(): list(_cell_points(rep, beta, q)) for beta in cells}
        tables = _Tables(rep)
        shuffled = list(cells)
        rng.shuffle(shuffled)
        for order in (cells[::-1], shuffled):
            for beta in order:
                assert list(_cell_points(rep, beta, q, tables)) == fresh[beta.key()], beta.key()
        widest = max(widest, *map(len, tables.neighbours))
        loops += sum(1 for s, t, _ in tables.arrows if s == t)
    # the keys with two or more neighbours' coordinates and the memoised loop filter both ran
    assert widest >= 2 and loops > 0


def test_each_distinct_step_system_is_solved_once(monkeypatch):
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
    systems, 180 calls of solve_mod and 71 of rank_mod.  Each solve or
    rank is one entry of a read-keyed memo, or of the full one at a step
    whose rows read every coordinate, and a full-coordinate tuple that
    meets an equal read tuple takes the same result without a call.
    """
    calls = {"_chart_solutions": 0, "solve_mod": 0, "rank_mod": 0}
    built = []

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(owner, name, wrapper)

    class RecordedTables(_Tables):
        def __init__(self, m):
            super().__init__(m)
            built.append(self)

    counted(oracle, "_chart_solutions")
    counted(linalg, "solve_mod")
    counted(oracle, "rank_mod")
    monkeypatch.setattr(oracle, "_Tables", RecordedTables)
    entry = catalog("degenerate_flag(4)")
    (report,) = count(entry.representation, entry.dim_vector, primes=(2,))
    assert report.total == 26961
    (tables,) = built
    assert calls["_chart_solutions"] == sum(len(memo) for _, memo in _solved(tables, "points"))
    assert calls["rank_mod"] == sum(len(memo) for _, memo in _solved(tables, "counts"))
    assert any(tables._read_points.values()) and any(tables._read_counts.values())
    assert sum(map(len, tables._points.values())) == 1455 and sum(map(len, tables._counts.values())) == 345
    assert calls == {"_chart_solutions": 514, "solve_mod": 180, "rank_mod": 71}


def _memos(tables):
    """Every memo of the table's kept steps: points and counts, by full coordinates and by read coordinates."""
    for memos in (tables._points, tables._counts, tables._read_points, tables._read_counts):
        yield from memos.values()


def _solved(tables, name):
    """(step, memo) for each kept step with a memo `name`, or its read-keyed one where it has one: each result once."""
    for step in tables._steps.values():
        memo = getattr(step, "read_" + name)
        if memo is None:
            memo = getattr(step, name)
        if memo is not None:
            yield step, memo


def _charged(tables):
    """The room that the memos of tables hold: one entry per key of each memo, and each solved list's points once."""
    entries = sum(map(len, _memos(tables))) * oracle._MEMO_ENTRY_BYTES
    solved = _solved(tables, "points")
    return entries + sum(step.chart.point_bytes * len(found) for step, memo in solved for found in memo.values())


def test_memos_that_do_not_fit_stream_the_same_points(monkeypatch):
    """With little memo room, some step lists are kept and the rest streamed; the points stay the same."""
    cases = [(f"seed {seed}", *random_branching_cycle(seed), 2) for seed in range(10)]
    for spec in ("degenerate_flag(3)", "ex_4_5_5"):
        entry = catalog(spec)
        cases.append((spec, entry.representation, entry.dim_vector, 3))
    for name, rep, e, q in cases:
        cells = enumerate_cells(rep.basis, e, rep.quiver.vertices)
        tables = _Tables(rep)
        expected = [list(_cell_points(rep, beta, q, tables)) for beta in cells]
        kept = sum(map(len, tables._points.values()))
        assert tables.room == oracle._MEMO_BYTES - _charged(tables), name
        for budget in (0, 3000, 30000):
            monkeypatch.setattr(oracle, "_MEMO_BYTES", budget)
            tables = _Tables(rep)
            assert [list(_cell_points(rep, beta, q, tables)) for beta in cells] == expected, (name, budget)
            assert 0 <= tables.room <= budget
            assert tables.room == budget - _charged(tables), (name, budget)  # read-keyed entries are charged too
        monkeypatch.undo()
        if name == "degenerate_flag(3)":
            # 30,000 bytes keep some of its step lists but not all of them
            assert 0 < sum(map(len, tables._points.values())) < kept


def test_each_cell_counts_as_many_points_as_it_streams(monkeypatch):
    """`count` reads the last step's points without building dicts; per cell it sees as many as enumerate_subreps.

    one_vertex(3) has one step per cell; kronecker_preinjective(4) streams
    its last step, whose key fixes the whole cell; one_loop(4,1) filters by
    a loop.  With no memo room every list streams, with a little some are
    kept, and with the default room all of them.  With 500 bytes one count
    fits under both its keys, and a later key that shares its read tuple
    takes it without storing it again.
    """
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
    keep their step lists: about 11 MB of them under the default budget,
    which they fit in, and a peak under 2 MiB with a budget of 1 MiB.
    """
    entry = catalog("one_vertex(6)")
    total, peak = _peak_mib(entry.representation, entry.dim_vector, 3)
    assert total == 33880 and peak < 1
    monkeypatch.setattr(oracle, "_MEMO_BYTES", 2**20)
    total, peak = _peak_mib(*_unlinked(6, 3), 3)
    assert total == 33880 and peak < 2

    switches = []  # (prime, points kept before the switch, all emptied after it)
    read = []  # read-keyed entries held before each switch

    class RecordedTables(_Tables):
        def use_prime(self, q):
            switched, kept = q != self.prime, sum(map(len, self._points.values()))
            held = sum(map(len, chain(self._read_points.values(), self._read_counts.values())))
            super().use_prime(q)
            charts = self._charts.values()
            emptied = not any(self._points.values()) and not any(c._points for c in charts)
            emptied = emptied and not any(_memos(self))
            if switched:
                switches.append((q, kept, emptied and self.room == oracle._MEMO_BYTES))
                read.append(held)

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

    # degenerate_flag(3) has steps whose rows leave coordinates unread: their read-keyed memos are emptied too
    del switches[:], read[:]
    entry = catalog("degenerate_flag(3)")
    reports = count(entry.representation, entry.dim_vector, primes=(2, 3, 5))
    assert [r.total for r in reports] == [531, 3340, 42066]
    assert [emptied for _, _, emptied in switches] == [True] * 3 and read[0] == 0 and all(read[1:])


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
    """Every form wired into the step, as (constant, terms) with each term's coefficient last."""
    for _, b in step.pure:
        yield b
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
            list(_cell_points(rep, beta, q, tables))
        assert any(
            (c or terms) and c % q == 0 and all(t[-1] % q == 0 for t in terms)
            for step in tables._steps.values()
            for c, terms in _forms(step)
        ), q


# Charts and steps that count() builds on each entry at these primes.  With
# one table per prime they were (27, 75) and (66, 234), and with each step
# compiling the rows of its own arrows, (9, 65) and (33, 117).
PINNED_BUILDS = {
    ("kronecker_preinjective(4)", (2, 3, 5)): (9, 20),
    ("ex_4_5_5", (2, 3)): (33, 19),
}


@pytest.mark.parametrize("spec, primes", sorted(PINNED_BUILDS))
def test_one_table_serves_every_prime_of_a_call(monkeypatch, spec, primes):
    """count builds one table for all its primes: one chart per (step, pivot tuple), each arrow's rows and each kept step once.

    A step the table does not keep, because its key fixes the whole cell,
    is assembled afresh from the compiled rows at each prime whose search
    reaches it, as within one prime.  The kept steps serve every prime,
    and the counts equal those of one call per prime.
    """
    built, charts, steps = [], [], []
    compiled = []  # the target chart of every compiled non-loop arrow
    memoised = {}  # prime -> the kept steps holding points at that prime
    fresh = []  # every lookup that returned a step the table does not keep

    class RecordedTables(_Tables):
        def __init__(self, m):
            super().__init__(m)
            built.append(self)

        def use_prime(self, q):
            if self.prime is not None and q != self.prime:
                memoised[self.prime] = {id(step) for step in self._steps.values() if step.points}
            super().use_prime(q)

        def step(self, i, pivots):
            found = super().step(i, pivots)
            if found.points is None:
                fresh.append(found)
            return found

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
    kept = [step for step in steps if step.points is not None]
    assert sorted(map(id, kept)) == sorted(map(id, tables._steps.values()))
    assert len(steps) == len(kept) + len(fresh) == len(kept) + len(set(map(id, fresh)))
    assert any(all(id(step) in memoised[q] for q in primes) for step in kept)  # kept steps serve every prime
    assert (len(charts), len(steps)) == PINNED_BUILDS[spec, primes]
    monkeypatch.undo()
    assert reports == [count(m, e, primes=(q,))[0] for q in primes]


def _step_key(tables, pivots, i):
    """Lookup key of step i: the step and the pivot tuples at i and at each of its neighbours, earlier and later."""
    return (i, pivots[i], *[pivots[k] for k in tables._around[i]])


def _record_step_lookups(tables, lookups):
    """Make tables.step append (step index, lookup key, wired step) to lookups on every call."""
    lookup = tables.step

    def step(i, pivots):
        found = lookup(i, pivots)
        lookups.append((i, _step_key(tables, pivots, i), found))
        return found

    tables.step = step


def test_one_step_is_wired_per_distinct_key(monkeypatch):
    """Each kept step is built once per content key and found again by the pivot tuples around it.

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
    shared = unkept = merged = lookahead = 0
    for rep, e, q in _order_cases():
        built.clear()
        tables = _Tables(rep)
        lookups = []
        _record_step_lookups(tables, lookups)
        for beta in enumerate_cells(rep.basis, e, rep.quiver.vertices):
            list(_cell_points(rep, beta, q, tables))
        found = {}
        for _, key, step in lookups:
            if step.points is not None:
                assert found.setdefault(key, step) is step, key
        kept = {id(step) for step in found.values()}
        assert kept == set(map(id, tables._steps.values()))
        assert all(tables._points[key] is step.points for key, step in tables._steps.items())
        assert all(key[-1] == step.lookahead for key, step in tables._steps.items())
        fresh = sum(1 for _, _, step in lookups if step.points is None)
        assert len(built) == len(kept) + fresh  # a kept step is built once, an unkept one at each lookup
        shared += len(lookups) - fresh - len(found)
        unkept += fresh
        merged += len(found) - len(kept)
        lookahead += sum(1 for step in tables._steps.values() if step.lookahead)
    assert shared > 0  # some cells met a step that an earlier cell wired
    assert unkept > 0  # and some last steps were never kept, their key fixing the whole cell
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
    dead_early = 0
    shallower = 0
    for beta in cells:
        del lookups[:]
        points = sum(1 for _ in _cell_points(rep, beta, q, tables))
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
        chosen = set(beta.elements)
        pivots = [tuple(b for b in block if b in chosen) for block in tables.blocks]
        eager.update(_step_key(tables, pivots, i) for i in range(len(vertices)))
    assert len(cells) * len(vertices) == 10000
    assert eager >= set(tables._lookup)
    counts = (reached, len(tables._steps), len(tables._lookup), len(eager), dead_early, shallower)
    assert counts == (4650, 203, 546, 1100, 2205, 2205)


def test_point_dicts_are_fresh_and_independent():
    """Each point of a stream is its own dict: clearing one as it arrives changes no other."""
    cases = [(catalog(spec), q) for spec, q in (("degenerate_flag(3)", 3), ("ex_4_5_5", 3), ("one_vertex(4)", 2))]
    for entry, q in cases:
        rep, e = entry.representation, entry.dim_vector
        cells = enumerate_cells(rep.basis, e, rep.quiver.vertices)
        fresh = [list(_cell_points(rep, beta, q)) for beta in cells]
        tables = _Tables(rep)
        for _ in range(2):  # the second pass reads the memos the first one filled
            for beta, expected in zip(cells, fresh):
                seen, copies = [], []
                for point in _cell_points(rep, beta, q, tables):
                    copies.append(dict(point))
                    point.clear()
                    seen.append(point)
                assert copies == expected, beta.key()
                assert len({id(point) for point in seen}) == len(seen)


# Work of count() on each entry at these primes: calls of _chart_solutions,
# solve_mod and iter_solutions_mod, the points iter_solutions_mod yields, and
# calls of rank_mod.  Before each pure row was read at the earlier step it
# constrains the first four were (3747, 565, 583, 946), (2290, 150, 162, 304),
# (1550, 53, 65, 112) and (6, 0, 6, 16226); before the loop-free last step was
# counted by its rank they were (767, 565, 574, 738), (190, 150, 162, 304),
# (85, 53, 65, 112) and (6, 0, 6, 16226).  one_loop(4,1) has a cell whose loop
# forms all vanish, so its one step is counted, not listed.
PINNED_WORK = {
    ("kronecker_preinjective(4)", (2, 3, 5)): (42, 0, 6, 725, 568),
    ("kronecker_preprojective(5)", (2, 3)): (38, 0, 10, 152, 152),
    ("ex_4_5_5", (2, 3)): (30, 0, 10, 57, 55),
    ("one_loop(4,1)", (11,)): (5, 0, 5, 16225, 1),
}


@pytest.mark.parametrize("spec, primes", sorted(PINNED_WORK))
def test_pure_rows_and_loop_forms_save_images_not_solves(monkeypatch, spec, primes):
    """Pure rows read at the earlier step they constrain, and loops read as forms, save chart systems, not solves."""
    calls = dict.fromkeys(("_chart_solutions", "solve_mod", "iter_solutions_mod", "yielded", "rank_mod"), 0)

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
    counted(oracle, "rank_mod")
    monkeypatch.setattr(oracle, "iter_solutions_mod", yielding)
    entry = catalog(spec)
    count(entry.representation, entry.dim_vector, primes=primes)
    assert tuple(calls.values()) == PINNED_WORK[spec, primes]


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
    for seed in range(40):
        yield (f"seed {seed}", *random_branching_cycle(seed))


def _placed(tables, pivots, q, values, i=0):
    """(step index, wired step) at each point the search of one cell places before that step.

    values holds the placed points when each pair comes out.
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
    ten random points.
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
                key = (step, step.coordinates(values))
                if key in seen:
                    continue
                seen.add(key)
                g = {k: _generators(tables.chart(k, pivots[k]), values[k]) for k in tables.neighbours[i]}
                passed = set(oracle._chart_solutions(step, values, q))
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

    The memo of each kept step is compared, at every key, with the step's
    chart solutions there that pass its loops, filtered by its lookahead
    rows, in order.
    """
    memos = dropped = ahead = 0
    for name, rep, e in _arrow_cases():
        tables = _Tables(rep)
        for beta in enumerate_cells(rep.basis, e, rep.quiver.vertices):
            list(_cell_points(rep, beta, q, tables))
        for key, step in tables._steps.items():
            i = key[0]
            neighbours = tables.neighbours[i]
            ahead += bool(step.lookahead)
            for coordinates, points in step.points.items():
                values = [()] * len(tables.blocks)
                for k, y in zip(neighbours, coordinates if len(neighbours) > 1 else [coordinates]):
                    values[k] = y
                assert step.coordinates(values) == coordinates
                solutions = [x for x in oracle._chart_solutions(step, values, q) if oracle._loops_hold(step, x, q)]
                kept = [x for x, _ in points]
                assert all(_lookahead_holds(step, x, q) for x in kept), (name, key, coordinates)
                assert kept == [x for x in solutions if _lookahead_holds(step, x, q)], (name, key, coordinates)
                memos += 1
                dropped += len(solutions) - len(kept)
    assert memos > 0 and ahead > 0 and dropped > 0


def _values_at(tables, i, ys):
    """A values list with ys[j] at the j-th earlier neighbour of step i, and () elsewhere."""
    values = [()] * len(tables.blocks)
    for k, y in zip(tables.neighbours[i], ys):
        values[k] = y
    return values


@pytest.mark.parametrize("q", [2, 3])
def test_a_step_reads_nothing_but_its_read_coordinates(q):
    """Values that agree on a kept step's read coordinates give the same chart solutions and last-step count.

    The read-keyed memos rest on this.  Each kept step is checked at every
    key its search reached and at two random points of its neighbours'
    charts, against the same values with every coordinate that the step
    does not read moved to another residue.  Both sides are solved on an
    unkept copy of the step, so no memo answers.
    """
    rng = random.Random(q)
    checked = moved = lasts = 0
    for name, rep, e in _arrow_cases():
        tables = _Tables(rep)
        cells = enumerate_cells(rep.basis, e, rep.quiver.vertices)
        for beta in cells:
            list(_cell_points(rep, beta, q, tables))
            sum(_cell_points(rep, beta, q, tables, _counting=True))
        for key, step in tables._steps.items():
            i = key[0]
            neighbours = tables.neighbours[i]
            pivots = [()] * len(tables.blocks)
            pivots[i] = key[1]
            for k, tuple_k in zip(neighbours, key[2:]):
                pivots[k] = tuple_k
            bare = tables._assemble(i, pivots, step.lookahead)
            sizes = [tables.chart(k, pivots[k]).nfree for k in neighbours]
            keys = chain(step.points, step.counts or ())
            reached = [_values_at(tables, i, c if len(neighbours) > 1 else [c]) for c in keys]
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
                assert oracle._read_values(step, other) == oracle._read_values(step, values)
                for solve in (lambda v: list(oracle._chart_solutions(bare, v, q, True)),
                              lambda v: list(oracle._chart_solutions(bare, v, q))):
                    assert solve(other) == solve(values), (name, key, values, other)
                if step.counts is not None:
                    assert oracle._last_count(tables, bare, other, q) == oracle._last_count(tables, bare, values, q)
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
    ranked = []
    rank_mod = oracle.rank_mod

    def recorded(rows, rhs, q):
        ranked.append(rank_mod(rows, rhs, q))
        return ranked[-1]

    monkeypatch.setattr(oracle, "rank_mod", recorded)
    checked = looped = 0
    for name, rep, e in _cross_check_cases():
        if oracle.ambient_size(rep, e, q) > oracle.DEFAULT_BUDGET:
            continue
        (report,) = count(rep, e, primes=(q,))
        assert report.per_cell == _listed_per_cell(rep, e, q), name
        checked += 1
        looped += any(a.src == a.tgt for a in rep.quiver.arrows)
    # consistent and inconsistent last steps were ranked, and modules with loops checked
    assert checked >= 80 and looped >= 10 and None in ranked and any(ranked)


def test_each_cell_count_equals_the_tally_of_the_listing_path_at_17():
    entry = catalog("kronecker_preprojective(3)")
    rep, e = entry.representation, entry.dim_vector
    (report,) = count(rep, e, primes=(17,))
    assert report.per_cell == _listed_per_cell(rep, e, 17)
    assert report.total == 1 + 17 + 17**2


def test_a_table_that_counted_lists_the_same_points_and_the_other_way_round():
    """One table used for a count, then a listing at the same prime, never hands a stored count to the listing."""
    cases = [(f"seed {seed}", *random_branching_cycle(seed), 3) for seed in range(10)]
    for spec, q in (("degenerate_flag(3)", 3), ("ex_4_5_5", 2), ("kronecker_preinjective(4)", 5)):
        entry = catalog(spec)
        cases.append((spec, entry.representation, entry.dim_vector, q))
    stored = 0
    for name, rep, e, q in cases:
        cells = enumerate_cells(rep.basis, e, rep.quiver.vertices)
        fresh = [list(_cell_points(rep, beta, q)) for beta in cells]
        counts = [len(points) for points in fresh]
        tables = _Tables(rep)
        assert [sum(_cell_points(rep, beta, q, tables, _counting=True)) for beta in cells] == counts, name
        stored += sum(map(len, tables._counts.values()))
        for beta, points in zip(cells, fresh):
            listed = list(_cell_points(rep, beta, q, tables))
            assert all(type(point) is dict for point in listed) and listed == points, (name, beta.key())
        assert [sum(_cell_points(rep, beta, q, tables, _counting=True)) for beta in cells] == counts, name
    assert stored > 0  # some counts were memoised before the listings ran
