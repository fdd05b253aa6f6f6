"""Brute-force ground truth over prime fields.

Subrepresentations are enumerated chart by chart: one echelon chart per
pivot-set combination, so per-cell counting is a byproduct of the
partition rather than a post-hoc filter.  A cell reaches the search as
its pivot tuple at each vertex: `count` and `enumerate_subreps` take
them from `schubert.cell_plan`, in the order of `enumerate_cells`, and
`cell_count` groups a `CellIndex` by vertex with `cell_pivots`.

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

A listing walks depth first (`_listed`).  At each step, containment
along arrows whose other endpoint is already placed is linear in the
chart coordinates and solved exactly; loops are filtered.  An arrow's
generator images are built once per call and source pivot tuple, and
each pair of end pivot tuples picks from them rows of one format: a
linear equation in the later end's chart coordinates whose coefficients
and right-hand side are integer linear forms in the earlier end's
coordinates.  A row that reads no coordinate of the later end is
*pure*: it is a linear condition b = 0 on the earlier end alone, and is
read there, as one of that step's *lookahead rows*, and only there.  A
step lists only the points where its lookahead rows vanish, in the order
it would list them all, so no point that a later neighbour would refuse
is visited, and the later step, which only ever meets such points, does
not read the row again.  The lookahead rows join the step's key, so
cells whose later neighbours put the same rows on it share it.  Each
loop condition is compiled as a quadratic form in the chart coordinates.
Forms are reduced mod q only where they are read, so a row that vanishes
only mod q stays at the later step.  A step's arrow rows read only the
earlier neighbours' coordinates that some term of their forms reads,
often few, and its loops and lookahead rows only its own.  So each step
memoises its points once, keyed by the placed values at the coordinates
its rows read, taken by one C `itemgetter` where the step reads all of
some neighbours' coordinates or some of one neighbour's (see `_Step`).
Cells that agree there get the same list in the same order, and every
cell of the call solves each distinct system once, and stores it once.
A memo holds each point as its bare chart coordinates; only a listing
builds matrices, one per point it lists, and keeps none.  Each list
stored is charged against a room of `_MEMO_BYTES` per prime, so the
memos of one prime take at most about that and are emptied at the
next.  A step whose points would take more than half the room left
streams them as a search without memos would, so memory stays bounded
whatever the point count.
Points come out in the order of that walk, vertex by vertex, each
chart in `iter_solutions_mod` order.
`enumerate_subreps` gets each as a fresh dict.  `count` only counts,
over the coordinates, building no matrix.  It walks the steps of a cell
forward once, as in bucket elimination (R. Dechter, Artificial
Intelligence 113, 1999): as the later steps read the placed values only
at their `reads`, it carries the number of prefixes per tuple of values
there, up to the last step (`_forward`).  It does not list the points
of a last step without loops: their number is q^(nfree - rank) of the
step's arrow rows at the placed values, or 0 when those are
inconsistent, taken once per cell and tuple of the values the step
reads.  The rank is the number of rows that `_arrow_rows`, the one
evaluator of both paths, returns after eliminating each row as it reads
it.  A last step with loops is counted as its points stream, with no
memo; every earlier step is listed as above.
The message after step i is fixed by the pivot tuples of the cell's
first `depends[i]` steps, so the table keeps a *trail* of at most one
whole message per step with that pivot prefix, and each cell's pass
resumes after the deepest step whose prefix it shares; a cell behind an
empty message is 0 at once.  In `cell_plan`'s lexicographic order a run
of neighbouring cells shares each prefix, so it counts it once.
"""

from __future__ import annotations

import json
import sys
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
    polynomial_text,
    primes_iter,
    require_prime,
)
from .representation import Representation
from .schubert import CellIndex, cell_index, cell_plan, enumerate_cells

# Not called here since the chart plan applies arrow matrices itself; the
# traced benchmark run (perfbench/layers.py) still wraps it under this module.
from .linalg import mat_vec_mod  # noqa: F401

DEFAULT_BUDGET = 10**8

# The room of each prime, for the step point lists that `_step_points` stores;
# count(degenerate_flag(4)) at q = 3 takes 2.5 MiB.
_MEMO_BYTES = 32 * 2**20
_MEMO_ENTRY_BYTES = 200  # key, dict slot and tuple header
_TUPLE_BYTES = sys.getsizeof(())  # plus 8 per item
# The most entries a message of `_forward` holds before it is passed on: a
# quarter of the memo room at about 256 bytes each.
_MESSAGE_ENTRIES = _MEMO_BYTES // 4 // 256


def _point_bytes(chart: Chart) -> int:
    """The charge per x of a stored list: x, its ints (32 bytes each below 2**30, none below 257) and its slot."""
    return _TUPLE_BYTES + 40 * chart.nfree + 8


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
    A row with none left is *pure*: a condition b(y) = 0 on step k alone,
    which is one of k's lookahead rows and is read there only.  The other
    rows go into `rows` in wiring order.  `lookahead` holds the step's
    own lookahead rows, the distinct forms b(x) that its later
    neighbours' pure rows put on x, sorted; `_step_points` lists only the
    points where every one vanishes, so a later step never meets values
    that a pure row of its own would refuse.  `loops` holds each loop
    condition as an integer quadratic form (constant, ((var,
    coefficient), ...), ((var, var, coefficient), ...)) in x.  Zero forms
    are dropped, and repeated ones kept once; `_chart_solutions` and
    `_loops_hold` reduce them mod q where they read them.  `reads` holds
    the (earlier neighbour, coordinate) pairs that some term of a b or an
    a_v of `rows` reads, sorted: the arrow rows read nothing else, and
    the loops and lookahead rows read only x, so the step's result at a
    prime depends on the placed values only through those pairs.
    `points` is the step's one memo, of its points at the prime, each a
    tuple of bare chart coordinates x; `_Tables.use_prime` empties it.
    It is keyed by `key(values)`, the placed values at `reads` in the
    shape `_Tables.reader` gives them, so cells whose values agree there
    share one entry.  `_Tables._assemble` sets `reads` and `key`.
    """

    __slots__ = ("chart", "rows", "loops", "lookahead", "reads", "key", "points")

    def __init__(self, chart: Chart, lookahead: tuple):
        self.chart = chart
        self.rows: list[tuple] = []
        self.loops: dict[tuple, None] = {}
        self.lookahead = lookahead
        self.points: dict = {}


def _no_coordinates(values: list) -> tuple:
    return ()


class _Tables:
    """The cell-independent parts of the search of m, built on first use and shared by every prime.

    A cell comes as its pivot tuple at each step.  Charts are keyed by
    (vertex step, pivot tuple), an arrow's images by (arrow, source pivot
    tuple) and its compiled rows by (arrow, source pivot tuple, target
    pivot tuple), none charged to `room`.  An arrow's rows are compiled
    once per call: its pure rows go to the earlier end, as lookahead rows,
    and the rest to the later end.  `neighbours[i]` lists the earlier
    steps that share a non-loop arrow with step i.

    `step(i, pivots)` is the wired `_Step` of step i.  It is keyed by i,
    the pivot tuples at i and at each earlier neighbour and the lookahead
    rows that the later neighbours put on i, so that cells whose later
    neighbours give the same rows share it.  It is built from the
    compiled rows when a search first reaches that key and shared by
    every cell with it, in `_steps`, the one table of steps.  Its memo
    over F_prime sits on the step (see `_Step`), keyed by the values at
    its `reads` through `reader`, and `use_prime` empties that of every
    step in `_steps`.  `room` is what is left of `_MEMO_BYTES` at `prime`
    for the memos of all the steps; `_step_points` is the one writer of
    their entries and of `room`, which pays for each list it stores.
    `_later[i]` lists step i + 1 and each later step with an earlier
    neighbour at or before i, whose reads make the separator after step
    i (`separator`).

    `trail[i]`, where there is one, is (the pivot tuples at steps 0 to
    `depends[i]` - 1, the whole message after step i) of the last cell
    counted that reached step i: the steps up to i and their later
    neighbours fix the message's points, and the steps of `_later[i]`
    with their earlier neighbours fix its keys.  `_forward` writes it,
    `_cell_total` reads and truncates it and `use_prime` empties it.  It
    holds no more than the messages of one pass and is not charged to
    `room`.
    """

    def __init__(self, m: Representation):
        vertices = m.quiver.vertices
        index = {v: i for i, v in enumerate(vertices)}
        self.blocks = [m.basis.block(v) for v in vertices]
        self.arrows: list[tuple[int, int, list]] = []  # (source step, target step, integer columns)
        self._arrows_at: list[list[int]] = [[] for _ in vertices]  # arrows wired at their later end
        self._ahead: list[list[int]] = [[] for _ in vertices]  # non-loop arrows at their earlier end
        earlier: list[set[int]] = [set() for _ in vertices]
        for k, a in enumerate(m.quiver.arrows):
            s, t = index[a.src], index[a.tgt]
            ma = m.matrices[a.name]  # no rows when the target has rank 0
            columns = list(zip(*ma)) if ma else [()] * len(self.blocks[s])
            self.arrows.append((s, t, columns))
            self._arrows_at[max(s, t)].append(k)
            if s != t:
                self._ahead[min(s, t)].append(k)
                earlier[max(s, t)].add(min(s, t))
        self.neighbours = [tuple(sorted(ks)) for ks in earlier]
        last = len(vertices) - 1
        self._later = [
            tuple(j for j in range(i + 1, last + 1) if j == i + 1 or min(self.neighbours[j], default=j) <= i)
            for i in range(last)
        ]
        # The steps that fix the message after step i (see `trail`) end at the last of _later[i]: it holds
        # the later neighbours of steps 0..i, and each earlier neighbour comes before its step.
        self.depends = [later[-1] + 1 for later in self._later]
        self.trail: list[tuple[Sequence, dict]] = []
        self._separators: dict[tuple, object] = {}
        self._charts: dict[tuple[int, tuple[str, ...]], Chart] = {}
        self._images: dict[tuple, list] = {}
        self._compiled: dict[tuple, tuple] = {}
        self._steps: dict[tuple, _Step] = {}
        self.prime: int | None = None
        self.room = _MEMO_BYTES

    def use_prime(self, q: int) -> None:
        """Search over F_q next: at another prime, empty every memo and the trail and refill `room`."""
        if q != self.prime:
            self.prime, self.room = q, _MEMO_BYTES
            self.trail.clear()
            for step in self._steps.values():
                step.points.clear()

    def chart(self, i: int, pivots: tuple[str, ...]) -> Chart:
        key = (i, pivots)
        if key not in self._charts:
            self._charts[key] = Chart(self.blocks[i], pivots)
        return self._charts[key]

    def compiled(self, k: int, pivots: Sequence[tuple[str, ...]]) -> tuple:
        """Arrow k compiled on the charts of its ends with these pivots, once per call.

        The target chart picks them from the images kept in `_images`.  A
        loop gives its quadratic forms.  Any other arrow gives (pure,
        rows): `pure` the distinct forms b of its pure rows, each a
        condition b(y) = 0 on the coordinates y of the earlier end, and
        `rows` its other rows (earlier end, b, ((v, a_v), ...)), with zero
        a_v dropped, in wiring order.
        """
        s, t, columns = self.arrows[k]
        key = (k, pivots[s], pivots[t])
        found = self._compiled.get(key)
        if found is None:
            images = self._images.get(key[:2])
            if images is None:
                images = self._images[key[:2]] = self.chart(s, pivots[s]).images(columns)
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
                        pure[b] = None
                found = (tuple(pure), tuple(rows))
            self._compiled[key] = found
        return found

    def step(self, i: int, pivots: Sequence[tuple[str, ...]]) -> _Step:
        """The wired step i, from `_steps`, of every cell with these pivot tuples at i and at all its neighbours."""
        lookahead = tuple(sorted({b for k in self._ahead[i] for b in self.compiled(k, pivots)[0]}))
        key = (i, pivots[i], *[pivots[k] for k in self.neighbours[i]], lookahead)
        step = self._steps.get(key)
        if step is None:
            step = self._steps[key] = self._assemble(i, pivots, lookahead)
        return step

    def reader(self, reads: tuple[tuple[int, int], ...], pivots: Sequence[tuple[str, ...]]):
        """The key function of a memo whose result depends on the placed values only at these sorted pairs.

        It takes the placed values at `reads`, with no Python loop where it
        can: () for no pairs; the bare coordinates of the steps read, by
        one C `itemgetter`, when the pairs are every coordinate of those
        steps; the values at the pairs on the one step read, by one C
        `itemgetter` on its coordinates; else a tuple of the values at the
        pairs, in order.  The pivot tuples fix each step's coordinates.
        """
        read = sorted({k for k, _ in reads})
        if len(reads) == sum(self.chart(k, pivots[k]).nfree for k in read):
            return itemgetter(*read) if read else _no_coordinates
        if len(read) == 1:
            k, get = read[0], itemgetter(*[u for _, u in reads])
            return lambda values: get(values[k])
        return lambda values: tuple([values[k][u] for k, u in reads])

    def separator(self, steps: list, pivots: Sequence[tuple[str, ...]], i: int):
        """The key function of the values at the pairs (k <= i, u) that the cell's steps after i read.

        It wires the steps of `_later[i]` into `steps` first.  With step
        i + 1 alone there, it is that step's `key`; else it is built by
        `reader` once per i and tuple of those steps, in `_separators`.
        """
        later = self._later[i]
        for j in later:
            if steps[j] is None:
                steps[j] = self.step(j, pivots)
        if len(later) == 1:
            return steps[i + 1].key
        readers = tuple(steps[j] for j in later)
        found = self._separators.get((i, readers))
        if found is None:
            pairs = {(k, u) for step in readers for k, u in step.reads if k <= i}
            found = self._separators[i, readers] = self.reader(tuple(sorted(pairs)), pivots)
        return found

    def _assemble(self, i: int, pivots: Sequence[tuple[str, ...]], lookahead: tuple) -> _Step:
        """A step i with these lookahead rows, from its loops and the non-pure rows of its arrows to earlier steps."""
        step = _Step(self.chart(i, pivots[i]), lookahead)
        for k in self._arrows_at[i]:
            s, t, _ = self.arrows[k]
            if s == t:
                step.loops.update(dict.fromkeys(self.compiled(k, pivots)))
            else:
                step.rows += self.compiled(k, pivots)[1]
        step.reads = _read_pairs(step)
        step.key = self.reader(step.reads, pivots)
        return step


def _chart_solutions(step: _Step, values: list, q: int) -> Iterator[Vector]:
    """Chart coordinates of the step that satisfy its arrow rows at the placed values and its lookahead rows.

    The lookahead rows b(x) = 0 are read first, as rows b(x) - b(0) =
    -b(0) mod q; a row that vanishes mod q is dropped, and ends the step
    before any elimination if its constant does not.  Then the arrow rows
    are read in the echelon form `_arrow_rows` gives them, whose reduced
    form, and so the order of the solutions, is that of the rows in
    wiring order.  `iter_solutions_mod` reads the lookahead rows as its
    second system, without changing that order.  A step assembled with
    no lookahead rows gives the solutions of its arrow rows alone.
    """
    nfree = step.chart.nfree
    ahead: list[list[int]] = []
    ahead_rhs: list[int] = []
    for const, terms in step.lookahead:
        row = [0] * nfree
        for u, c in terms:
            row[u] = c % q
        if any(row):
            ahead.append(row)
            ahead_rhs.append(-const % q)
        elif const % q:
            return iter(())
    rows = _arrow_rows(step, values, q)
    if rows is None:
        return iter(())
    return iter_solutions_mod([r[:-1] for r in rows], [r[-1] for r in rows], nfree, q, ahead, ahead_rhs)


def _arrow_rows(step: _Step, values: list, q: int) -> list[list[int]] | None:
    """The step's arrow rows at the placed values in echelon form over F_q, or None when they cannot all hold.

    The one evaluator of a step's rows, for the count and the listing.
    Each row of `rows` is evaluated, in wiring order, at its earlier
    step's coordinates as the augmented row (a_v ..., b) mod q, and at
    once cleared at the pivot column of each row kept so far by
    cross-multiplication, row <- p * row - a * top.  A row that clears to
    zero is dropped, and one that clears to zero but for b gives None
    before any later row is read; any other is kept, its pivot at its
    first nonzero entry.  The rows kept span the rows read, and their
    number is the rank.  Pure rows are read at the earlier steps, as
    lookahead rows, so they vanish at every placed value.
    """
    nfree = step.chart.nfree
    rows: list[list[int]] = []
    columns: list[int] = []  # the pivot column of each row of rows
    for k, (b, terms), coefficients in step.rows:
        y = values[k]
        for u, c in terms:
            b += c * y[u]
        row = [0] * nfree
        for v, (a, terms) in coefficients:
            for u, c in terms:
                a += c * y[u]
            row[v] = a % q
        row.append(b % q)
        for c, top in zip(columns, rows):
            f = row[c]
            if f:
                p = top[c]
                row = [(p * x - f * z) % q for x, z in zip(row, top)]
        for c, x in enumerate(row):
            if x:
                break
        else:
            continue
        if c == nfree:
            return None
        rows.append(row)
        columns.append(c)
    return rows


def _read_pairs(step: _Step) -> tuple[tuple[int, int], ...]:
    """The (earlier neighbour, coordinate) pairs that some term of a b or an a_v of the step's rows reads, sorted."""
    pairs = set()
    for k, (_, terms), coefficients in step.rows:
        pairs.update((k, u) for u, _ in terms)
        for _, (_, terms) in coefficients:
            pairs.update((k, u) for u, _ in terms)
    return tuple(sorted(pairs))


def _last_count(step: _Step, values: list, q: int) -> int:
    """The number of points of the last step at the placed values.

    A step with loops counts its chart solutions that pass them as they
    stream, storing none: the message has merged the prefixes that would
    read one list twice.  A loop-free one counts its arrow rows'
    solutions without listing them: q^(nfree - rank) when they are
    consistent, with the rank the number of echelon rows that
    `_arrow_rows` returns, else 0.  The last step has no lookahead rows.
    """
    if step.loops:
        return sum(1 for x in _chart_solutions(step, values, q) if _loops_hold(step, x, q))
    rows = _arrow_rows(step, values, q)
    return 0 if rows is None else q ** (step.chart.nfree - len(rows))


def _step_points(tables: _Tables, step: _Step, values: list, q: int) -> Iterable[Vector]:
    """The step's points at the placed values, as bare coordinates x, memoised by the values its rows read.

    They are its chart solutions that pass its loops and vanish on its
    lookahead rows, which `iter_solutions_mod` reads with the arrow rows:
    no point that a later neighbour's pure row would refuse is listed or
    visited, and the rest come in the same order.  `points`, keyed by
    `key(values)`, is read first.  A new list is stored there, a tuple of
    the x, when it takes at most half the table's `room`, which pays
    `_MEMO_ENTRY_BYTES` and `_point_bytes` per x: one long list, solved
    again when it recurs, must not crowd out the many short lists that
    later cells read.  Any other list streams.
    """
    memo, key = step.points, step.key(values)
    found = memo.get(key)
    if found is not None:
        return found
    solutions = _chart_solutions(step, values, q)
    if step.loops:
        solutions = (x for x in solutions if _loops_hold(step, x, q))
    point_bytes = _point_bytes(step.chart)
    fits = max(tables.room // 2 - _MEMO_ENTRY_BYTES, -1) // point_bytes
    head = list(islice(solutions, fits + 1))
    if len(head) <= fits:  # all of them, and within the room
        tables.room -= _MEMO_ENTRY_BYTES + len(head) * point_bytes
        memo[key] = tuple(head)
        return memo[key]
    return chain(head, solutions)


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


def _cell_total(tables: _Tables, pivots: Sequence[tuple], q: int) -> int:
    """The number of F_q points of one cell, by one forward pass over its steps (`_forward`), with no matrix built.

    It resumes from the message after the deepest step whose trail entry
    has the cell's pivot prefix, and drops the entries past that step.
    """
    last = len(tables.blocks) - 1
    if last < 0:
        return 1
    tables.use_prime(q)
    trail = tables.trail
    i = 0
    while i < len(trail) and trail[i][0] == pivots[: tables.depends[i]]:
        i += 1
    del trail[i:]
    message = trail[i - 1][1] if i else {(): [[()] * last, 1]}
    if not message:
        return 0
    steps: list = [None] * (last + 1)  # this cell's steps, wired as the pass reaches them
    steps[i] = tables.step(i, pivots)
    return _forward(tables, steps, pivots, i, message, q)


def _forward(tables: _Tables, steps: list, pivots: Sequence[tuple], i: int, message: dict, q: int) -> int:
    """The number of completions through steps i to the last of the prefixes that `message` stands for.

    `message` maps the values at the pairs (k < i, u) that steps i and
    later read to [values, n]: one prefix, placed at steps 0 to i - 1,
    and the number n of prefixes with those values, which all complete
    alike.  The last step adds n times its count at each prefix
    (`_last_count`).  An earlier step lists its points at each prefix;
    each is keyed by `_Tables.separator`, once step i has a point, and
    merged into the next message.  That is passed on whenever it holds
    `_MESSAGE_ENTRIES` entries, and at the end: the total is linear in it.
    The trail holds one entry for each step before i exactly when
    `message` is whole; then the next message goes on the trail as step
    i's entry, unless it was passed on before it was whole.
    """
    step = steps[i]
    if i == len(steps) - 1:
        return sum(n * _last_count(step, values, q) for values, n in message.values())
    total = 0
    after: dict = {}
    separator = None
    whole = len(tables.trail) == i
    for values, n in message.values():
        for x in _step_points(tables, step, values, q):
            values[i] = x
            if separator is None:
                separator = tables.separator(steps, pivots, i)
            key = separator(values)
            entry = after.get(key)
            if entry is not None:
                entry[1] += n
                continue
            if len(after) == _MESSAGE_ENTRIES:
                whole = False
                total += _forward(tables, steps, pivots, i + 1, after, q)
                after = {}
            after[key] = [values.copy(), n]
    if whole:
        tables.trail.append((pivots[: tables.depends[i]], after))
    return total + _forward(tables, steps, pivots, i + 1, after, q) if after else total


def _cell_points(
    m: Representation, pivots: Sequence[tuple], q: int, tables: _Tables | None = None, *, _counting: bool = False
) -> Iterator[dict[str, Matrix]] | Iterator[int]:
    """All F_q points of one Schubert cell, as per-vertex echelon matrices.

    The cell comes as its pivot tuple at each vertex, in quiver order:
    `count` and `enumerate_subreps` take them from `cell_plan`, and a
    caller that holds a `CellIndex` from `cell_pivots`.  Depth-first over
    the vertex steps (`_listed`).  `tables`, built for m, is shared by the
    cells of one call, one prime at a time: a search at another prime
    empties its points.  Without it the cell builds its own.

    `_counting` is for `count`, which only counts: it yields one item per
    point, the int 1, of `_cell_total`'s sum, only so that the traced
    benchmark counts the points of a cell by the items this yields.
    """
    tables = tables or _Tables(m)
    if _counting:
        yield from repeat(1, _cell_total(tables, pivots, q))
        return
    order = m.quiver.vertices
    tables.use_prime(q)
    yield from _listed(tables, order, pivots, [None] * len(order), [()] * len(order), {}, 0, q)


def _listed(
    tables: _Tables, order: Sequence[str], pivots: Sequence[tuple], steps: list, values: list, point: dict, i: int, q: int
) -> Iterator[dict[str, Matrix]]:
    """The cell's points that extend the prefix placed in `values` and `point` before step i.

    Step i is looked up in `tables` when the walk first reaches it, into
    the cell's `steps`, so a cell whose walk dies at one step never wires
    the later ones; as each step lists only points that its later
    neighbours' pure rows accept, a walk dies at the first step such a
    row refuses.  The points come from `_step_points`: the cells of one
    call solve each distinct chart system once, while the memos have
    room; past that, new lists stream as they are solved.  Each x is
    written to `values[i]`, and its matrix from `Chart.build` to
    `point` at the vertex; past the last step a copy of `point` is
    yielded, so every point is a fresh dict in vertex order.
    """
    if i == len(order):
        yield point.copy()
        return
    step = steps[i]
    if step is None:
        step = steps[i] = tables.step(i, pivots)
    for x in _step_points(tables, step, values, q):
        values[i] = x
        point[order[i]] = step.chart.build(x)[1]
        yield from _listed(tables, order, pivots, steps, values, point, i + 1, q)


def cell_pivots(m: Representation, beta: CellIndex) -> tuple[tuple[str, ...], ...]:
    """The cell's ids at each vertex of m, in quiver order; `cell_index`'s ValueError on an unknown or repeated id."""
    cell_index(m.basis, beta.elements)
    vertex_of = m.basis.vertex_of
    return tuple(tuple(b for b in beta.elements if vertex_of[b] == v) for v in m.quiver.vertices)


def cell_count(m: Representation, beta: CellIndex, q: int) -> int:
    """The number of F_q points of the cell beta, by `_cell_total` over bare coordinates, with no matrix built."""
    require_prime(q)
    return _cell_total(_Tables(m), cell_pivots(m, beta), q)


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
    vertices = m.quiver.vertices
    for beta, (_, pivots) in zip(enumerate_cells(m.basis, e, vertices), cell_plan(m.basis, e, vertices)):
        for subspaces in _cell_points(m, pivots, q, tables):
            yield SubrepPoint(q, subspaces, beta)


def assign_cell(point: SubrepPoint | Mapping[str, Matrix], m: Representation, q: int | None = None) -> CellIndex:
    """Cell of a point of m by the pivots of canonical echelon forms; ValueError names a bad matrix or vertex."""
    if isinstance(point, SubrepPoint):
        subspaces = point.subspaces
        q = point.prime
    else:
        subspaces = point
        if q is None:
            raise ValueError("a prime is required when passing raw matrices")
    require_prime(q)
    basis = m.basis
    pivots: list[str] = []
    for v, mat in subspaces.items():
        block = basis.block(v)
        if mat and not block:
            raise ValueError(f"vertex {v!r} has no basis ids")
        if len(mat) != len(block):
            raise ValueError(f"the matrix at vertex {v!r} has {len(mat)} rows, not {len(block)}")
        ncols = len(mat[0]) if mat else 0
        if any(len(row) != ncols for row in mat):
            raise ValueError(f"the rows of the matrix at vertex {v!r} differ in length")
        cols = [[row[j] for row in mat] for j in range(ncols)]
        canon, pivot_rows = column_echelon_max_pivot(cols, q)
        if len(pivot_rows) != ncols:
            raise ValueError(f"generators at vertex {v!r} are dependent over F_{q}")
        pivots.extend(block[r] for r in pivot_rows)
    missing = [v for v in m.quiver.vertices if basis.block(v) and v not in subspaces]
    if missing:
        raise ValueError(f"vertices with basis ids but no matrix: {', '.join(map(repr, missing))}")
    unknown = [v for v in subspaces if v not in m.quiver.vertices]
    if unknown:
        raise ValueError(f"vertices not in the quiver: {', '.join(map(repr, unknown))}")
    return cell_index(basis, pivots)


def count(
    m: Representation,
    e: Mapping[str, int],
    primes: Sequence[int] = (2, 3, 5),
    budget: int = DEFAULT_BUDGET,
) -> list[CountReport]:
    """F_q point counts of Gr_e(m) per prime, per cell of `enumerate_cells` (keys, order, refusals) via `cell_plan`."""
    _require_distinct(primes)
    for q in primes:
        require_prime(q)
        _check_budget(m, e, q, budget)
    cells = cell_plan(m.basis, e, m.quiver.vertices)
    tables = _Tables(m)
    reports = []
    for q in primes:
        per_cell = {key: sum(_cell_points(m, pivots, q, tables, _counting=True)) for key, pivots in cells}
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
        degrees = range(len(self.coeffs) - 1, -1, -1)
        return polynomial_text((self.coeffs[d], f"x^{d}" if d > 1 else "x" if d else "") for d in degrees)

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
        return polynomial_text((self.betti[d], f"t^{d}" if d > 1 else "t" if d else "") for d in sorted(self.betti))


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
