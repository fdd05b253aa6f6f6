"""Brute-force ground truth over prime fields.

Subrepresentations are enumerated chart by chart: one echelon chart per
pivot-set combination, so per-cell counting is a byproduct of the
partition rather than a post-hoc filter.

A cell is searched vertex by vertex in quiver order.  The step of a
vertex holds its chart, the arrows to and from vertices placed earlier
with their integer matrices, and its loops.  All of that is fixed by the
vertex, its pivot tuple and the pivot tuples of its earlier neighbours
(the earlier steps sharing a non-loop arrow with it): a chart depends on
nothing but its vertex and pivot tuple, an arrow's generator images on
nothing but the arrow and its source chart, and the earlier neighbours
on the quiver alone.  So `count` and `enumerate_subreps` keep one table
for the call, whatever the prime, and it wires each step once per key,
when a search first reaches it; every cell with that key shares the
step, and a cell whose search dies at one step never wires the next.

The search is one flat depth-first loop.  At each step, containment
along arrows whose other endpoint is already placed is linear in the
chart coordinates and solved exactly; loops are filtered.  Each arrow is
compiled once per call and pair of end pivot tuples into rows of one
format: a linear equation in the later end's chart coordinates whose
coefficients and right-hand side are integer linear forms in the earlier
end's coordinates.  A row that reads no coordinate of the later end is
*pure*: it is a linear condition b = 0 on the earlier end alone, and is
read there, as one of that step's *lookahead rows*.  A step lists only
the points where its lookahead rows vanish, in the order it would list
them all, so no point that a later neighbour would refuse is visited;
the later step keeps its pure rows, which then always vanish.  The
lookahead rows join the step's key, so cells whose later neighbours put
the same rows on it share it.  Each loop condition is compiled as a
quadratic form in the chart coordinates.  Forms are reduced mod q only
where they are read, so a row that vanishes only mod q stays at the
later step.  A step's loop filter and lookahead rows read only the
step's own coordinates, and its arrow rows only a few of its earlier
neighbours' coordinates: those that some term of their forms reads.  So
each step has two memos of its points.  The first is keyed by the tuple
of all its earlier neighbours' coordinates, which one C call builds from
the placed values, and is read first: most lookups hit it.  On a miss
the step builds the tuple of the coordinates its rows read and looks it
up in the second; a hit there is the same list, stored under the full
tuple too.  A step whose rows read every coordinate has no second memo,
since its read tuple would tell no more than the full one.  Two cells
that agree on the read coordinates get the same list in the same order,
and every cell of the call solves each distinct system once.
Each point is kept once per chart with its echelon matrix.  The memos of
one prime take at most about `_MEMO_BYTES` and are emptied at the next;
a step whose points would not fit streams them as a search without memos
would, so memory stays bounded whatever the point count.  The last step
streams too when every earlier step is its neighbour, as its key then
fixes the whole cell and the point before it.  Points come out in the
same order as a plain recursion over the vertices would give, each chart
in `iter_solutions_mod` order.  `enumerate_subreps` gets each as a fresh
dict.  `count` only counts, so it does not list the points of a last
step without loops: their number is q^(nfree - rank) of the step's
arrow rows at the placed values, or 0 when those are inconsistent, from
the forward elimination of `rank_mod`, memoised like a point list.  A
last step with loops, and every earlier step, is listed as above.
`count` still gets one item per point, the int 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .charts import Chart
from .linalg import (
    Matrix,
    Vector,
    column_echelon_max_pivot,
    eval_poly,
    gaussian_binomial,
    iter_solutions_mod,
    lagrange_interpolate,
    primes_iter,
    rank_mod,
    require_prime,
)
from .representation import Representation
from .schubert import CellIndex, cell_index, enumerate_cells

# Not called here since the chart plan applies arrow matrices itself; the
# traced benchmark run (perfbench/layers.py) still wraps it under this module.
from .linalg import mat_vec_mod  # noqa: F401

DEFAULT_BUDGET = 10**8

# Memory that the step memos of one call may take, charged per entry and
# per stored point; count(degenerate_flag(4)) at q = 3 is charged 9.4 MiB.
_MEMO_BYTES = 32 * 2**20
_MEMO_ENTRY_BYTES = 200  # key, dict slot and tuple header


class BudgetExceededError(RuntimeError):
    def __init__(self, estimate: int, budget: int):
        super().__init__(
            f"enumeration estimate {estimate} exceeds the budget {budget}"
        )
        self.estimate = estimate
        self.budget = budget


class AffineCertificateError(RuntimeError):
    """A per-cell affine certificate could not be established."""

    def __init__(self, message: str, verdicts):
        super().__init__(message)
        self.verdicts = verdicts


@dataclass(frozen=True)
class SubrepPoint:
    prime: int
    subspaces: Mapping[str, Matrix] = field(hash=False)
    cell: CellIndex | None = None


@dataclass(frozen=True)
class CountReport:
    prime: int
    total: int
    per_cell: Mapping[str, int] = field(hash=False)

    def to_json(self) -> str:
        return json.dumps(
            {"prime": self.prime, "total": self.total, "cells": dict(self.per_cell)},
            sort_keys=True,
        )


def ambient_size(m: Representation, e: Mapping[str, int], q: int) -> int:
    total = 1
    for v in m.quiver.vertices:
        total *= gaussian_binomial(m.rank(v), e.get(v, 0), q)
    return total


def _require_distinct(primes: Sequence[int]) -> None:
    """Raise ValueError if a prime repeats, so each sample is a different field."""
    for i, q in enumerate(primes):
        if q in primes[:i]:
            raise ValueError(f"prime {q} is repeated in {', '.join(map(str, primes))}")


def _check_budget(m: Representation, e: Mapping[str, int], q: int, budget: int) -> None:
    estimate = ambient_size(m, e, q)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)


class _Step:
    """One vertex step of the search, wired once per key and shared by every cell with that key.

    The key is the vertex step, its pivot tuple, the pivot tuples of its
    earlier neighbours and its lookahead rows.  `chart` is the step's
    chart, with coordinates x.  Each arrow to or from an earlier
    neighbour k gives rows sum(a_v(y) * x[v]) = b(y) mod q, where y are
    step k's coordinates and each a_v and b is an integer linear form
    (constant, ((var, coefficient), ...)) in y with zero terms dropped.
    A row (k, b, ((v, a_v), ...)) keeps only the a_v that are not zero.
    A row with none left is *pure*: `pure` holds it as (k, b), once, and
    the step has no points unless every such b vanishes; the other rows
    go into `rows` in wiring order.  A pure row reads only step k, so it
    is also one of k's lookahead rows, and the search reads it there: at
    this step it always vanishes.  `lookahead` holds the step's own
    lookahead rows, the distinct forms b(x) that its later neighbours'
    pure rows put on x, sorted; `_step_points` lists only the points
    where every one vanishes.  `loops` holds each loop condition as an
    integer quadratic form (constant, ((var, coefficient), ...), ((var,
    var, coefficient), ...)) in x.  Zero forms are dropped, and repeated
    ones kept once; `_chart_solutions` and `_loops_hold` reduce them mod
    q where they read them.  `reads` holds the (earlier neighbour,
    coordinate) pairs that some term of a b or an a_v reads, sorted:
    the arrow rows read nothing else, and the loops and lookahead rows
    read only x, so the step's result at a prime depends on the placed
    values only through those pairs.  `points` is the memo of the step's
    points (None when the key never recurs), and `coordinates(values)`
    its key: the earlier neighbours' coordinates, bare when there is one.
    It is read first, since a C `itemgetter` builds its key.
    `read_points` holds the same lists keyed by the values at `reads`,
    and is read on a miss of `points`; it is None when `reads` holds
    every coordinate, as its key would then tell no more.  A kept last
    step also has `counts` and `read_counts`, the memos of its number of
    points under the same two keys, which `count` fills when the step has
    no loops; the point and count memos never mix, so a listing never
    reads a count.
    """

    __slots__ = (
        "chart", "pure", "rows", "loops", "lookahead", "coordinates", "reads",
        "points", "counts", "read_points", "read_counts",
    )

    def __init__(self, chart: Chart, neighbours: tuple[int, ...], lookahead: tuple):
        self.chart = chart
        self.pure: dict[tuple, None] = {}  # ordered set of (k, b)
        self.rows: list[tuple] = []
        self.loops: dict[tuple, None] = {}
        self.lookahead = lookahead
        self.coordinates = itemgetter(*neighbours) if neighbours else _no_coordinates
        self.reads: tuple[tuple[int, int], ...] = ()
        self.points: dict | None = None
        self.counts: dict | None = None
        self.read_points: dict | None = None
        self.read_counts: dict | None = None


def _no_coordinates(values: list) -> tuple:
    return ()


class _Tables:
    """The cell-independent parts of the search of m, built on first use and shared by every prime.

    Charts are keyed by (vertex step, pivot tuple) and the compiled rows
    of an arrow by (arrow, source pivot tuple, target pivot tuple).  An
    arrow's rows are compiled once per call: its pure rows go to the
    earlier end, as lookahead rows, and the rest to the later end.
    `neighbours[i]` lists the earlier steps that share a non-loop arrow
    with step i, and `pivots(beta)` the pivot tuples of a cell.

    `step(i, pivots)` is the wired `_Step` of step i.  It is keyed by i,
    the pivot tuples at i and at each earlier neighbour and the lookahead
    rows that the later neighbours put on i, so that cells whose later
    neighbours give the same rows share it; a first lookup on the pivot
    tuples of all of i's neighbours finds it without hashing forms.  It
    is built from the compiled rows when a search first reaches that key
    and shared by every cell with it.  Its memo, also held in `_points`
    under the key, maps the earlier neighbours' chart coordinates to the
    step's `(x, matrix)` points over F_prime that pass its arrows, loops
    and lookahead rows, in `iter_solutions_mod` order.  Those conditions
    read nothing but the step's `reads` among those coordinates, so its
    read-keyed memo, held in `_read_points`, maps the values there to
    the same lists: it is read when the first memo misses, and every
    cell with the same key and read values gets the same list.  A step
    whose rows read every coordinate has no read-keyed memo.  A kept
    last step also has memos of counts, held in `_counts` and
    `_read_counts`, with the number of those points under the same two
    keys; `count` fills them instead of the point lists when the step
    has no loops, and a listing never reads them.  A key that fixes the
    whole cell gets a step with no memo, assembled afresh at each lookup
    and not kept.  `room` is what is left of `_MEMO_BYTES` at `prime`,
    for all four memos: each entry is charged `_MEMO_ENTRY_BYTES` and
    each solved list its points once.
    """

    def __init__(self, m: Representation):
        vertices = m.quiver.vertices
        index = {v: i for i, v in enumerate(vertices)}
        self.blocks = [m.basis.block(v) for v in vertices]
        self.arrows: list[tuple[int, int, list]] = []  # (source step, target step, integer columns)
        self._arrows_at: list[list[int]] = [[] for _ in vertices]  # arrows wired at their later end
        self._ahead: list[list[int]] = [[] for _ in vertices]  # non-loop arrows at their earlier end
        earlier: list[set[int]] = [set() for _ in vertices]
        later: list[list[int]] = [[] for _ in vertices]  # the later end of each arrow in _ahead
        for k, a in enumerate(m.quiver.arrows):
            s, t = index[a.src], index[a.tgt]
            ma = m.matrices[a.name]  # no rows when the target has rank 0
            columns = list(zip(*ma)) if ma else [()] * len(self.blocks[s])
            self.arrows.append((s, t, columns))
            self._arrows_at[max(s, t)].append(k)
            if s != t:
                self._ahead[min(s, t)].append(k)
                earlier[max(s, t)].add(min(s, t))
                later[min(s, t)].append(max(s, t))
        self.neighbours = [tuple(sorted(ks)) for ks in earlier]
        self._around = [ks + tuple(js) for ks, js in zip(self.neighbours, later)]  # every neighbour, some twice
        last = len(vertices) - 1
        self._last = last
        self._unshared = last if last >= 0 and self.neighbours[last] == tuple(range(last)) else None
        self._charts: dict[tuple[int, tuple[str, ...]], Chart] = {}
        self._compiled: dict[tuple, tuple] = {}
        self._step_of = {b: i for i, block in enumerate(self.blocks) for b in block}
        self._pivot_tuples: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._pivots: dict[tuple[str, ...], tuple] = {}
        self._lookup: dict[tuple, _Step] = {}
        self._steps: dict[tuple, _Step] = {}
        self._points: dict[tuple, dict] = {}
        self._counts: dict[tuple, dict] = {}
        self._read_points: dict[tuple, dict] = {}
        self._read_counts: dict[tuple, dict] = {}
        self.prime: int | None = None
        self.room = _MEMO_BYTES

    def use_prime(self, q: int) -> None:
        """Search over F_q next: at another prime, empty every memo and chart point store and refill `room`."""
        if q != self.prime:
            self.prime, self.room = q, _MEMO_BYTES
            stores = (self._points, self._counts, self._read_points, self._read_counts)
            charts = (chart._points for chart in self._charts.values())
            for memo in chain(*(store.values() for store in stores), charts):
                memo.clear()

    def pivots(self, beta: CellIndex) -> tuple[tuple[str, ...], ...]:
        """The cell's pivot tuple at each step, built once per call; equal tuples are shared between cells."""
        found = self._pivots.get(beta.elements)
        if found is None:
            groups: list[list[str]] = [[] for _ in self.blocks]
            for b in beta.elements:
                groups[self._step_of[b]].append(b)
            shared = self._pivot_tuples
            found = self._pivots[beta.elements] = tuple(shared.setdefault(t, t) for t in map(tuple, groups))
        return found

    def chart(self, i: int, pivots: tuple[str, ...]) -> Chart:
        key = (i, pivots)
        if key not in self._charts:
            self._charts[key] = Chart(self.blocks[i], pivots)
        return self._charts[key]

    def compiled(self, k: int, pivots: Sequence[tuple[str, ...]]) -> tuple:
        """Arrow k compiled on the charts of its ends with these pivots, once per call.

        A loop gives its quadratic forms.  Any other arrow gives (pure,
        rows): `pure` its distinct pure rows (earlier end, b), each a
        condition b(y) = 0 on the coordinates y of the earlier end, and
        `rows` its other rows (earlier end, b, ((v, a_v), ...)), with zero
        a_v dropped, in wiring order.
        """
        s, t, columns = self.arrows[k]
        key = (k, pivots[s], pivots[t])
        found = self._compiled.get(key)
        if found is None:
            images = self.chart(s, pivots[s]).images(columns)
            target = self.chart(t, pivots[t])
            if s == t:
                found = target.loop_forms(images)
            else:
                pure: dict[tuple, None] = {}
                rows = []
                for b, coefficients in target.incoming_rows(images) if s < t else target.outgoing_rows(images):
                    coefficients = tuple((v, a) for v, a in coefficients if a[0] or a[1])
                    if coefficients:
                        rows.append((min(s, t), b, coefficients))
                    elif b[0] or b[1]:
                        pure[min(s, t), b] = None
                found = (tuple(pure), tuple(rows))
            self._compiled[key] = found
        return found

    def step(self, i: int, pivots: Sequence[tuple[str, ...]]) -> _Step:
        """The wired step i of every cell with these pivot tuples at i and its neighbours."""
        if i == self._unshared:  # its key fixes the whole cell: assembled afresh, not kept
            return self._assemble(i, pivots, ())
        around = (i, pivots[i], *[pivots[k] for k in self._around[i]])
        step = self._lookup.get(around)
        if step is None:
            pure = [row for k in self._ahead[i] for row in self.compiled(k, pivots)[0]]
            lookahead = tuple(sorted({b for _, b in pure})) if pure else ()
            key = (i, pivots[i], *[pivots[k] for k in self.neighbours[i]], lookahead)
            step = self._steps.get(key)
            if step is None:
                step = self._steps[key] = self._assemble(i, pivots, lookahead)
                step.points = self._points[key] = {}
                if i == self._last:
                    step.counts = self._counts[key] = {}
                step.reads = _read_pairs(step)
                if len(step.reads) < sum(self.chart(k, pivots[k]).nfree for k in self.neighbours[i]):
                    # keys that differ only at an unread coordinate share one result
                    step.read_points = self._read_points[key] = {}
                    if i == self._last:
                        step.read_counts = self._read_counts[key] = {}
            self._lookup[around] = step
        return step

    def _assemble(self, i: int, pivots: Sequence[tuple[str, ...]], lookahead: tuple) -> _Step:
        """A step i with these lookahead rows, from the compiled rows of its arrows to earlier steps and its loops."""
        step = _Step(self.chart(i, pivots[i]), self.neighbours[i], lookahead)
        for k in self._arrows_at[i]:
            s, t, _ = self.arrows[k]
            if s == t:
                step.loops.update(dict.fromkeys(self.compiled(k, pivots)))
            else:
                pure, rows = self.compiled(k, pivots)
                step.pure.update(dict.fromkeys(pure))
                step.rows += rows
        return step


def _chart_solutions(step: _Step, values: list, q: int, lookahead: bool = False) -> Iterator[Vector]:
    """Chart coordinates of the step that satisfy every arrow to a placed vertex, and its lookahead rows when asked.

    The lookahead rows b(x) = 0 are read first, as rows b(x) - b(0) =
    -b(0) mod q; a row that vanishes mod q is dropped, and ends the step
    before any elimination if its constant does not.  Then the arrow rows
    are read as `_arrow_rows` gives them.  `iter_solutions_mod` sees the
    arrow rows in wiring order, and the lookahead rows as its second
    system, which it reads without changing the order of the solutions.
    The search always asks for the lookahead rows; the solutions of the
    arrow rows alone are what the rank tests check.
    """
    nfree = step.chart.nfree
    ahead: list[list[int]] = []
    ahead_rhs: list[int] = []
    for const, terms in step.lookahead if lookahead else ():
        row = [0] * nfree
        for u, c in terms:
            row[u] = c % q
        if any(row):
            ahead.append(row)
            ahead_rhs.append(-const % q)
        elif const % q:
            return iter(())
    system = _arrow_rows(step, values, q)
    if system is None:
        return iter(())
    return iter_solutions_mod(*system, nfree, q, ahead, ahead_rhs)


def _arrow_rows(step: _Step, values: list, q: int) -> tuple[list[list[int]], list[int]] | None:
    """The step's arrow rows at the placed values, as (rows, rhs) over F_q, or None when one cannot hold.

    Each row is evaluated at its earlier step's coordinates, `pure` first
    and then `rows`.  A row whose coefficients all vanish mod q is
    dropped, and gives None before any other row is read if its
    right-hand side does not; so a pure row that does not vanish ends the
    step first.  The other rows come in wiring order.
    """
    nfree = step.chart.nfree
    rows: list[list[int]] = []
    rhs: list[int] = []
    for k, (b, terms), *coefficients in chain(step.pure, step.rows):  # a pure row has none
        y = values[k]
        for u, c in terms:
            b += c * y[u]
        row = [0] * nfree
        for v, (a, terms) in chain(*coefficients):
            for u, c in terms:
                a += c * y[u]
            row[v] = a % q
        if any(row):
            rows.append(row)
            rhs.append(b % q)
        elif b % q:
            return None
    return rows, rhs


def _read_pairs(step: _Step) -> tuple[tuple[int, int], ...]:
    """The (earlier neighbour, coordinate) pairs that some term of a b or an a_v of the step's rows reads, sorted."""
    pairs = set()
    for k, (_, terms), *coefficients in chain(step.pure, step.rows):  # a pure row has none
        pairs.update((k, u) for u, _ in terms)
        for _, (_, terms) in chain(*coefficients):
            pairs.update((k, u) for u, _ in terms)
    return tuple(sorted(pairs))


def _read_values(step: _Step, values: list) -> tuple:
    """The key of the step's read-keyed memos: the placed value of each pair in `reads`, in order."""
    return tuple([values[k][u] for k, u in step.reads])


def _shared(tables: _Tables, memo: dict, read_memo: dict, coordinates: tuple, reads: tuple):
    """The result that read_memo holds under reads, also stored in memo under coordinates while the table has room.

    None when read_memo holds none.
    """
    found = read_memo.get(reads)
    if found is not None and tables.room >= _MEMO_ENTRY_BYTES:
        tables.room -= _MEMO_ENTRY_BYTES
        memo[coordinates] = found
    return found


def _last_count(tables: _Tables, step: _Step, values: list, q: int) -> int:
    """The number of points of the last step at the placed values.

    A step with loops lists its points (`_step_points`) and counts them.
    A loop-free one counts its arrow rows' solutions without listing
    them: q^(nfree - rank) when they are consistent, from the forward
    elimination of `rank_mod`, else 0.  The last step has no lookahead
    rows.  The search reads hits of `counts`, keyed by all the earlier
    neighbours' coordinates, itself and calls this only on a miss.  A
    step with `read_counts` then looks up the values at its `reads`, the
    only ones its arrow rows read, there: a hit is stored under the full
    key too and returned unranked.  A kept step stores a new count under
    each key it has, charged `_MEMO_ENTRY_BYTES` each, while the table
    has room.
    """
    if step.loops:
        return sum(1 for _ in _step_points(tables, step, values, q))
    memo, shared = step.counts, step.read_counts
    if shared is not None:
        coordinates, reads = step.coordinates(values), _read_values(step, values)
        found = _shared(tables, memo, shared, coordinates, reads)
        if found is not None:
            return found
    system = _arrow_rows(step, values, q)
    rank = None if system is None else rank_mod(*system, q)
    found = 0 if rank is None else q ** (step.chart.nfree - rank)
    entries = _MEMO_ENTRY_BYTES if shared is None else 2 * _MEMO_ENTRY_BYTES
    if memo is not None and tables.room >= entries:
        tables.room -= entries
        memo[step.coordinates(values)] = found
        if shared is not None:
            shared[reads] = found
    return found


def _step_points(tables: _Tables, step: _Step, values: list, q: int) -> Iterable:
    """The step's `(x, matrix)` points at the placed values, memoised by its earlier neighbours' coordinates.

    They are its chart solutions that pass its loops and vanish on its
    lookahead rows, which `iter_solutions_mod` reads with the arrow rows:
    no point that a later neighbour's pure row would refuse is listed or
    visited, and the rest come in the same order.  `points`, keyed by
    all the earlier neighbours' coordinates, is read first; the search
    reads its hits itself and calls this past the first step only on a
    miss, and `_last_count` calls it on a looped last step either way.
    On a miss a step with `read_points` looks up the values at its
    `reads` there: the arrow rows read nothing else, so a hit is this
    step's list, and is stored under the full key too while the table
    has room.  A new list is stored under each key the step has.  A list
    without a memo, or that does not fit in the table's room, is
    streamed and not kept.
    """
    memo, shared = step.points, step.read_points
    if memo is not None:
        coordinates = step.coordinates(values)
        found = memo.get(coordinates)
        if found is None and shared is not None:
            reads = _read_values(step, values)
            found = _shared(tables, memo, shared, coordinates, reads)
        if found is not None:
            return found
    solutions = _chart_solutions(step, values, q, True)  # with its lookahead rows
    if step.loops:
        solutions = (x for x in solutions if _loops_hold(step, x, q))
    chart = step.chart
    if memo is None:
        return map(chart.build, solutions)
    entries = _MEMO_ENTRY_BYTES if shared is None else 2 * _MEMO_ENTRY_BYTES
    fits = max(tables.room - entries, -1) // chart.point_bytes
    head = list(islice(solutions, fits + 1))
    if len(head) <= fits:  # all of them
        tables.room -= entries + len(head) * chart.point_bytes
        found = memo[coordinates] = tuple(map(chart.point, head))
        if shared is not None:
            shared[reads] = found
        return found
    return map(chart.build, chain(head, solutions))


def _loops_hold(step: _Step, x: Vector, q: int) -> bool:
    """Loop filter: every loop maps each generator back into the span.

    Each condition is one of the step's quadratic forms in x, compiled
    when the step was wired; x passes when every form vanishes mod q.
    """
    for const, linear, quadratic in step.loops:
        for var, a in linear:
            const += a * x[var]
        for u, v, b in quadratic:
            const += b * x[u] * x[v]
        if const % q:
            return False
    return True


def _cell_points(
    m: Representation, beta: CellIndex, q: int, tables: _Tables | None = None, *, _counting: bool = False
) -> Iterator[dict[str, Matrix]] | Iterator[int]:
    """All F_q points of one Schubert cell, as per-vertex echelon matrices.

    Depth-first over the vertex steps with an explicit stack.  Each step
    is looked up in `tables` when the search first reaches it, so a cell
    whose search dies at one step never wires the later ones; as each
    step lists only points that its later neighbours' pure rows accept, a
    search dies at the first step such a row refuses.  The points come
    from the step's memo (see `_Tables`): the cells of one call solve
    each distinct chart system once, while the memos have room; past
    that, new lists stream as they are solved.  The last step
    is walked inside the loop over the step before it: each point is a
    copy of that prefix's dict plus the last vertex.  `tables`, built for
    m, is shared by the cells of one call, one prime at a time: a search
    at another prime empties its points.  Without it the cell builds its own.

    `_counting` is for `count` and `cell_count`, which only count: the
    last step is then counted by `_last_count`, which lists no point of a
    loop-free step, and builds no dict.  It still yields one item per
    point, the int 1, so the callers take the sum and the traced benchmark
    counts the points of a cell by the items this yields.
    """
    order = m.quiver.vertices
    n = len(order)
    if n == 0:
        yield 1 if _counting else {}
        return
    tables = tables or _Tables(m)
    tables.use_prime(q)
    pivots = tables.pivots(beta)
    last = n - 1
    head, name = order[:last], order[last]
    steps: list = [None] * n  # this cell's later steps, looked up on arrival
    values: list = [()] * last
    mats: list = [()] * last
    first = tables.step(0, pivots)
    if last == 0:
        if _counting:
            yield from repeat(1, _last_count(tables, first, values, q))
        else:
            yield from ({name: mat} for _, mat in _step_points(tables, first, values, q))
        return
    pending: list = [iter(())] * last
    pending[0] = iter(_step_points(tables, first, values, q))
    i = 0
    while i >= 0:
        for x, mat in pending[i]:
            values[i] = x
            mats[i] = mat
            j = i + 1
            step = steps[j]
            if step is None:
                step = steps[j] = tables.step(j, pivots)
            if _counting and j == last:
                memo = step.counts
                found = None if memo is None else memo.get(step.coordinates(values))
                yield from repeat(1, _last_count(tables, step, values, q) if found is None else found)
                continue
            memo = step.points
            found = None if memo is None else memo.get(step.coordinates(values))
            if found is None:
                found = _step_points(tables, step, values, q)
            if j < last:
                pending[j] = iter(found)
                i = j
                break
            if found:  # a stored list may be empty; a stream is always true
                base = dict(zip(head, mats))
                for _, end in found:
                    point = base.copy()
                    point[name] = end
                    yield point
        else:
            i -= 1


def cell_count(m: Representation, beta: CellIndex, q: int) -> int:
    require_prime(q)
    return sum(_cell_points(m, beta, q, _counting=True))


def enumerate_subreps(
    m: Representation,
    e: Mapping[str, int],
    q: int,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[SubrepPoint]:
    """Every subrepresentation of dimension vector e over F_q, exactly once.

    Points stream cell by cell in lexicographic cell order, each as the
    canonical echelon representative of its per-vertex subspaces.
    """
    require_prime(q)
    _check_budget(m, e, q, budget)
    tables = _Tables(m)
    for beta in enumerate_cells(m.basis, e, m.quiver.vertices):
        for subspaces in _cell_points(m, beta, q, tables):
            yield SubrepPoint(q, subspaces, beta)


def assign_cell(point: SubrepPoint | Mapping[str, Matrix], basis, q: int | None = None) -> CellIndex:
    """Cell of a subrepresentation point: pivot profile of canonical echelon forms."""
    if isinstance(point, SubrepPoint):
        subspaces = point.subspaces
        q = point.prime
    else:
        subspaces = point
        if q is None:
            raise ValueError("a prime is required when passing raw matrices")
    require_prime(q)
    pivots: list[str] = []
    for v, mat in subspaces.items():
        block = basis.block(v)
        ncols = len(mat[0]) if mat else 0
        cols = [[mat[r][j] for r in range(len(block))] for j in range(ncols)]
        canon, pivot_rows = column_echelon_max_pivot(cols, q)
        if len(pivot_rows) != ncols:
            raise ValueError(f"generators at vertex {v!r} are dependent over F_{q}")
        pivots.extend(block[r] for r in pivot_rows)
    return cell_index(basis, pivots)


def count(
    m: Representation,
    e: Mapping[str, int],
    primes: Sequence[int] = (2, 3, 5),
    budget: int = DEFAULT_BUDGET,
) -> list[CountReport]:
    _require_distinct(primes)
    for q in primes:
        require_prime(q)
        _check_budget(m, e, q, budget)
    cells = enumerate_cells(m.basis, e, m.quiver.vertices)
    tables = _Tables(m)
    reports = []
    for q in primes:
        per_cell = {beta.key(): sum(_cell_points(m, beta, q, tables, _counting=True)) for beta in cells}
        reports.append(CountReport(q, sum(per_cell.values()), per_cell))
    return reports


@dataclass(frozen=True)
class CountingPolynomial:
    coeffs: tuple[Fraction, ...]  # ascending degree
    degree_bound: int
    samples: tuple[tuple[int, int], ...]

    def __call__(self, x: int) -> Fraction:
        return eval_poly(self.coeffs, x)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def to_text(self) -> str:
        if all(c == 0 for c in self.coeffs):
            return "0"
        parts = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            c_str = str(c.numerator) if c.denominator == 1 else f"({c})"
            if d == 0:
                parts.append(c_str)
            else:
                x = "x" if d == 1 else f"x^{d}"
                parts.append(x if c == 1 else f"-{x}" if c == -1 else f"{c_str}*{x}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> str:
        return json.dumps(
            {
                "coefficients": [str(c) for c in self.coeffs],
                "degree_bound": self.degree_bound,
                "samples": [list(s) for s in self.samples],
                "text": self.to_text(),
            },
            sort_keys=True,
        )


def counting_polynomial(
    m: Representation,
    e: Mapping[str, int],
    budget: int = DEFAULT_BUDGET,
    primes: Sequence[int] | None = None,
) -> CountingPolynomial:
    """Exact interpolation of q -> #Gr_e(M)(F_q) through enough primes.

    The degree bound is the ambient affine dimension sum e_p(m_p - e_p);
    primes default to 2, 3, 5, ... extended until the bound is met.
    """
    bound = sum(e.get(v, 0) * (m.rank(v) - e.get(v, 0)) for v in m.quiver.vertices)
    needed = max(bound + 1, 2)
    if primes is None:
        ps = list(islice(primes_iter(), needed))
    else:
        ps = list(primes)
        if len(ps) < needed:
            raise ValueError(f"need at least {needed} primes, got {len(ps)}")
    samples = [(r.prime, r.total) for r in count(m, e, primes=ps, budget=budget)]
    coeffs = lagrange_interpolate(samples)
    return CountingPolynomial(tuple(coeffs), bound, tuple(samples))


@dataclass(frozen=True)
class CellVerdict:
    cell: str
    verdict: str  # "affine" | "empty" | "not-a-prime-power"
    dimension: int | None
    counts: Mapping[int, int] = field(hash=False)
    evidence: str = ""


def _power_of(count_value: int, q: int) -> int | None:
    if count_value <= 0:
        return None
    d = 0
    while count_value % q == 0:
        count_value //= q
        d += 1
    return d if count_value == 1 else None


def verify_affine(
    m: Representation,
    e: Mapping[str, int],
    primes: Sequence[int] = (2, 3),
    budget: int = DEFAULT_BUDGET,
) -> list[CellVerdict]:
    """Per-cell verdicts: affine dimension d, empty, or not-a-prime-power.

    A cell is certified with dimension d iff its count is exactly q^d at
    every sampled prime with the same d.  This is numerical evidence at
    the sampled primes, not a proof.
    """
    if len(primes) < 2:
        raise ValueError("verify_affine needs at least two primes")
    reports = count(m, e, primes=primes, budget=budget)
    evidence = f"numerical evidence at primes {{{', '.join(str(q) for q in primes)}}}"
    verdicts = []
    for key in reports[0].per_cell:
        counts = {r.prime: r.per_cell[key] for r in reports}
        if all(c == 0 for c in counts.values()):
            verdicts.append(CellVerdict(key, "empty", None, counts, evidence))
            continue
        dims = {q: _power_of(c, q) for q, c in counts.items()}
        ds = set(dims.values())
        if None not in ds and len(ds) == 1:
            d = ds.pop()
            verdicts.append(CellVerdict(key, "affine", d, counts, evidence))
        else:
            verdicts.append(CellVerdict(key, "not-a-prime-power", None, counts, evidence))
    return verdicts


@dataclass(frozen=True)
class EulerReport:
    chi: int
    primes: tuple[int, ...]
    verdicts: tuple[CellVerdict, ...]


def euler_characteristic(
    m: Representation,
    e: Mapping[str, int],
    primes: Sequence[int] = (2, 3),
    budget: int = DEFAULT_BUDGET,
) -> EulerReport:
    """Number of nonempty Schubert cells, valid once every cell is certified affine.

    Refuses (AffineCertificateError) when some cell fails certification.
    """
    verdicts = verify_affine(m, e, primes=primes, budget=budget)
    bad = [v for v in verdicts if v.verdict == "not-a-prime-power"]
    if bad:
        raise AffineCertificateError(
            "no affine certificate for cells: " + ", ".join(f"{{{v.cell}}}" for v in bad),
            verdicts,
        )
    chi = sum(1 for v in verdicts if v.verdict == "affine")
    return EulerReport(chi, tuple(primes), tuple(verdicts))


@dataclass(frozen=True)
class PoincareReport:
    betti: Mapping[int, int] = field(hash=False)  # cohomological degree 2d -> rank
    smooth_asserted: bool = False
    primes: tuple[int, ...] = ()

    def polynomial_text(self) -> str:
        if not self.betti:
            return "0"
        parts = []
        for deg in sorted(self.betti):
            b = self.betti[deg]
            if deg == 0:
                parts.append(str(b))
            else:
                t = "t" if deg == 1 else f"t^{deg}"
                parts.append(t if b == 1 else f"{b}*{t}")
        return " + ".join(parts)


def poincare_polynomial(
    m: Representation,
    e: Mapping[str, int],
    primes: Sequence[int] = (2, 3),
    assert_smooth: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> PoincareReport:
    """Sum of t^(2 dim) over certified nonempty cells.

    Cohomological meaning requires smoothness, which is the caller's
    assertion and is only recorded here.
    """
    report = euler_characteristic(m, e, primes=primes, budget=budget)
    betti: dict[int, int] = {}
    for v in report.verdicts:
        if v.verdict == "affine":
            betti[2 * v.dimension] = betti.get(2 * v.dimension, 0) + 1
    return PoincareReport(betti, assert_smooth, tuple(primes))
