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
for the call, whatever the prime, and it wires each step once per such
key, when a search first reaches it; every cell with that key shares the
step, and a cell whose search dies at one step never wires the next.

The search is one flat depth-first loop.  At each step, containment
along arrows whose other endpoint is already placed is linear in the
chart coordinates and solved exactly; loops are filtered.  When the step
is wired, every such arrow is compiled into rows of one format: a linear
equation in the chart coordinates whose coefficients and right-hand side
are integer linear forms in one earlier neighbour's coordinates.  The
rows that read no chart coordinate are *pure* and read first: the first
that does not vanish ends the step.  Each loop condition is compiled
there too, as a quadratic form in the chart coordinates.  Forms are
reduced mod q only where they are read.  Those rows and that filter read
only the step and its neighbours' coordinates, so each step memoises its
points per tuple of neighbour coordinates: two cells that agree there
get the same list in the same order, and every cell of the call solves
each distinct system once.
Each point is kept once per chart with its echelon matrix.  The memos of
one prime take at most about `_MEMO_BYTES` and are emptied at the next;
a step whose points would not fit streams them as a search without memos
would, so memory stays bounded whatever the point count.  The last step
streams too when every earlier step is its neighbour, as its key then
fixes the whole cell and the point before it.  Points come out in the
same order as a plain recursion over the vertices would give, each chart
in `iter_solutions_mod` order, and each as a fresh dict.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .linalg import (
    Matrix,
    Vector,
    column_echelon_max_pivot,
    eval_poly,
    gaussian_binomial,
    iter_solutions_mod,
    lagrange_interpolate,
    primes_iter,
    require_prime,
)
from .representation import Representation
from .schubert import CellIndex, cell_index, enumerate_cells

# Not called here since the chart plan applies arrow matrices itself; the
# traced benchmark run (perfbench/layers.py) still wraps it under this module.
from .linalg import mat_vec_mod  # noqa: F401

DEFAULT_BUDGET = 10**8

# Memory that the step memos of one call may take, charged per entry and
# per stored point; count(degenerate_flag(4)) at q = 3 is charged 27 MB.
_MEMO_BYTES = 32 * 2**20
_MEMO_ENTRY_BYTES = 200  # key, dict slot and tuple header
_TUPLE_BYTES = sys.getsizeof(())  # plus 8 per item


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


class _Chart:
    """Echelon chart of one vertex: pivot pattern plus free positions.

    Column j of a chart point is 1 in row pivot_rows[j], a free coordinate
    in each nonpivot row above it and 0 elsewhere.  Free coordinates x are
    numbered column by column, top to bottom: `column_free[j]` lists the
    (row, var) pairs of column j, `row_free[k]` the (column, var) pairs of
    row nonpivot_rows[k], and `entries` the row-major matrix as indices
    into x + (0, 1).  `point` keeps each point once per chart; `build`
    makes a fresh one.  `point_bytes` bounds the memory of one stored
    point: the pair, x, the matrix and its rows, x's ints (28 bytes each
    below 2**30), one memo slot and one intern dict entry.
    """

    def __init__(self, block: Sequence[str], pivots: Sequence[str]):
        self.nrows = len(block)
        self.pivot_rows = [block.index(b) for b in pivots]
        self.nonpivot_rows = [r for r in range(self.nrows) if r not in self.pivot_rows]
        free = [(r, j) for j, p in enumerate(self.pivot_rows) for r in self.nonpivot_rows if r < p]
        self.nfree = len(free)
        var = {pos: i for i, pos in enumerate(free)}
        self.column_free = [
            [(r, var[r, j]) for r in self.nonpivot_rows if r < p]
            for j, p in enumerate(self.pivot_rows)
        ]
        self.row_free = [
            [(j, var[r, j]) for j, p in enumerate(self.pivot_rows) if r < p]
            for r in self.nonpivot_rows
        ]
        one = self.nfree + 1
        self.entries = [
            var.get((r, j), one if r == p else self.nfree)
            for r in range(self.nrows)
            for j, p in enumerate(self.pivot_rows)
        ]
        self._points: dict[Vector, tuple[Vector, Matrix]] = {}
        rows = self.nrows * (_TUPLE_BYTES + 8 + 8 * len(self.pivot_rows))
        self.point_bytes = 3 * _TUPLE_BYTES + 16 + 36 * self.nfree + rows + 8 + 100

    def build(self, x: Vector) -> tuple[Vector, Matrix]:
        """(x, echelon matrix at x)."""
        ncols = len(self.pivot_rows)
        if ncols:
            flat = map((x + (0, 1)).__getitem__, self.entries)
            return x, tuple(zip(*[flat] * ncols))
        return x, ((),) * self.nrows

    def point(self, x: Vector) -> tuple[Vector, Matrix]:
        """`build(x)`, built on first use and shared after."""
        found = self._points.get(x)
        if found is None:
            found = self._points[x] = self.build(x)
        return found

    def images(self, columns: Sequence[Vector]) -> list:
        """Image of each chart generator under an arrow with these integer columns.

        One (constant, terms) pair per generator j: the image is
        constant + sum(x[var] * vec for var, vec in terms).  Terms whose
        vector is zero over Z are dropped; nothing here is reduced mod q.
        """
        return [
            (columns[p], [(var, columns[r]) for r, var in free if any(columns[r])])
            for p, free in zip(self.pivot_rows, self.column_free)
        ]


class _Step:
    """One vertex step of the search, wired once per key and shared by every cell with that key.

    The key is the vertex step, its pivot tuple and the pivot tuples of
    its earlier neighbours.  `chart` is the step's chart, with
    coordinates x.  Each arrow to or from an earlier neighbour k gives
    rows sum(a_v(y) * x[v]) = b(y) mod q, where y are step k's
    coordinates and each a_v and b is an integer linear form (constant,
    ((var, coefficient), ...)) in y with zero terms dropped.  A row (k,
    b, ((v, a_v), ...)) keeps only the a_v that are not zero.  A row with
    none left is *pure*: `pure` holds it as (k, b), once, and the step
    has no points unless every such b vanishes; the other rows go into
    `rows` in wiring order.  `loops` holds each loop condition as an
    integer quadratic form (constant, ((var, coefficient), ...), ((var,
    var, coefficient), ...)) in x.  Zero forms are dropped, and repeated
    ones kept once; `_chart_solutions` and `_loops_hold` reduce them mod
    q where they read them.  `points` is the memo of the step's points
    (None when the key never recurs), and `coordinates(values)` its key:
    the neighbours' coordinates, bare when there is one.
    """

    __slots__ = ("chart", "pure", "rows", "loops", "coordinates", "points")

    def __init__(self, chart: _Chart, neighbours: tuple[int, ...]):
        self.chart = chart
        self.pure: dict[tuple, None] = {}  # ordered set of (k, b)
        self.rows: list[tuple] = []
        self.loops: dict[tuple, None] = {}
        self.coordinates = itemgetter(*neighbours) if neighbours else _no_coordinates
        self.points: dict | None = None

    def wire_row(self, k: int, b: tuple, coefficients: list) -> None:
        """The row sum(a_v(y) * x[v]) = b(y), given integer forms b and (v, a_v) in step k's coordinates y."""
        coefficients = tuple((v, a) for v, a in coefficients if a[0] or a[1])
        if coefficients:
            self.rows.append((k, b, coefficients))
        elif b[0] or b[1]:
            self.pure[k, b] = None

    def wire_incoming(self, k: int, images: list) -> None:
        """The arrow from earlier step k, with these generator images on k's chart.

        Each image w = const + sum(y[u] * vec) lies in this chart's span:
        on each nonpivot row r, w[r] = sum_j w[pivot j] * x[r, j].
        """
        chart = self.chart
        for const, terms in images:  # integer entries, reduced mod q where the rows are read
            w = [(c, tuple((u, vec[p]) for u, vec in terms if vec[p])) for p, c in enumerate(const)]
            for r, free in zip(chart.nonpivot_rows, chart.row_free):
                self.wire_row(k, w[r], [(var, w[chart.pivot_rows[j]]) for j, var in free])

    def wire_outgoing(self, k: int, target: _Chart, images: list) -> None:
        """The arrow to earlier step k, whose chart is target, with these generator images here.

        Each image w = const + sum(x[v] * vec) lies in target's span at
        k's coordinates y: on each nonpivot row r of target,
        w[r] = sum_c w[pivot c] * y[r, c].
        """
        for r, free in zip(target.nonpivot_rows, target.row_free):
            weights = [(target.pivot_rows[c], var) for c, var in free]
            for const, terms in images:
                b = (-const[r], tuple((var, const[p]) for p, var in weights if const[p]))
                a = [(v, (vec[r], tuple((var, -vec[p]) for p, var in weights if vec[p]))) for v, vec in terms]
                self.wire_row(k, b, a)

    def wire_loop(self, images: list) -> None:
        """A loop, with these generator images: each maps back into the span of the chart.

        With w = const + sum(x[v] * vec) the image, each nonpivot row r
        gives w[r] - sum_j w[pivot j] * x[r, j] = 0, expanded here.
        """
        chart = self.chart
        for const, terms in images:
            for r, free in zip(chart.nonpivot_rows, chart.row_free):
                linear = {v: vec[r] for v, vec in terms}
                quadratic: dict[tuple[int, int], int] = {}
                for j, u in free:
                    p = chart.pivot_rows[j]
                    linear[u] = linear.get(u, 0) - const[p]
                    for v, vec in terms:
                        pair = (min(u, v), max(u, v))
                        quadratic[pair] = quadratic.get(pair, 0) - vec[p]
                linear_terms = tuple((v, a) for v, a in sorted(linear.items()) if a)
                quadratic_terms = tuple((u, v, b) for (u, v), b in sorted(quadratic.items()) if b)
                if const[r] or linear_terms or quadratic_terms:
                    self.loops[const[r], linear_terms, quadratic_terms] = None


def _no_coordinates(values: list) -> tuple:
    return ()


class _Tables:
    """The cell-independent parts of the search of m, built on first use and shared by every prime.

    Charts are keyed by (vertex step, pivot tuple) and generator images by
    (arrow, source pivot tuple).  `neighbours[i]` lists the earlier steps
    that share a non-loop arrow with step i.  `step(i, pivots)` is the
    wired `_Step` of step i: keyed by (i, the pivot tuples at i and at each
    earlier neighbour), it is built, with its arrow rows and loops
    compiled into integer forms, when a search first reaches that key and
    shared by every cell with it.  Its memo, also held in `_points` under
    the key, maps the neighbours' chart coordinates to the step's
    `(x, matrix)` points over F_prime that pass its arrows and loops, in
    `iter_solutions_mod` order.  Those conditions read nothing else, so
    every cell with the same key gets the same list.  A key that fixes
    the whole cell gets a step with no memo, wired afresh at each prime
    and not kept.  `room` is what is left of `_MEMO_BYTES` at `prime`.
    """

    def __init__(self, m: Representation):
        vertices = m.quiver.vertices
        index = {v: i for i, v in enumerate(vertices)}
        self.blocks = [m.basis.block(v) for v in vertices]
        self.arrows: list[tuple[int, int, list]] = []  # (source step, target step, integer columns)
        self._arrows_at: list[list[int]] = [[] for _ in vertices]  # arrows wired at their later end
        earlier: list[set[int]] = [set() for _ in vertices]
        for k, a in enumerate(m.quiver.arrows):
            s, t = index[a.src], index[a.tgt]
            ma = m.matrices[a.name]  # no rows when the target has rank 0
            columns = list(zip(*ma)) if ma else [()] * len(self.blocks[s])
            self.arrows.append((s, t, columns))
            self._arrows_at[max(s, t)].append(k)
            if s != t:
                earlier[max(s, t)].add(min(s, t))
        self.neighbours = [tuple(sorted(ks)) for ks in earlier]
        last = len(vertices) - 1
        self._unshared = last if last >= 0 and self.neighbours[last] == tuple(range(last)) else None
        self._charts: dict[tuple[int, tuple[str, ...]], _Chart] = {}
        self._images: dict[tuple[int, tuple[str, ...]], list] = {}
        self._steps: dict[tuple, _Step] = {}
        self._points: dict[tuple, dict] = {}
        self.prime: int | None = None
        self.room = _MEMO_BYTES

    def use_prime(self, q: int) -> None:
        """Search over F_q next: at another prime, empty every memo and chart point store and refill `room`."""
        if q != self.prime:
            self.prime, self.room = q, _MEMO_BYTES
            for memo in chain(self._points.values(), (chart._points for chart in self._charts.values())):
                memo.clear()

    def chart(self, i: int, pivots: tuple[str, ...]) -> _Chart:
        key = (i, pivots)
        if key not in self._charts:
            self._charts[key] = _Chart(self.blocks[i], pivots)
        return self._charts[key]

    def images(self, k: int, pivots: tuple[str, ...]) -> list:
        """Generator images of arrow k on the chart of its source with these pivots."""
        key = (k, pivots)
        if key not in self._images:
            s, _, columns = self.arrows[k]
            self._images[key] = self.chart(s, pivots).images(columns)
        return self._images[key]

    def step(self, i: int, pivots: Sequence[tuple[str, ...]]) -> _Step:
        """The wired step i of every cell with these pivot tuples at i and its earlier neighbours."""
        neighbours = self.neighbours[i]
        key = (i, pivots[i], *[pivots[k] for k in neighbours])
        step = self._steps.get(key)
        if step is None:
            step = _Step(self.chart(i, pivots[i]), neighbours)
            if i != self._unshared:
                self._steps[key] = step
                step.points = self._points[key] = {}
            for k in self._arrows_at[i]:
                s, t, _ = self.arrows[k]
                images = self.images(k, pivots[s])
                if s == t:
                    step.wire_loop(images)
                elif s < t:
                    step.wire_incoming(s, images)
                else:
                    step.wire_outgoing(t, self.chart(t, pivots[t]), images)
        return step


def _chart_solutions(step: _Step, values: list, q: int) -> Iterator[Vector]:
    """Chart coordinates of the step that satisfy every arrow to a placed vertex.

    Each row is evaluated at its earlier step's coordinates, `pure` first
    and then `rows`.  A row whose coefficients all vanish is dropped, and
    ends the step before any elimination if its right-hand side does
    not; so a pure row that does not vanish ends the step before any
    other row is read.  `iter_solutions_mod` sees the other rows in
    wiring order.
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
            return iter(())
    return iter_solutions_mod(rows, rhs, nfree, q)


def _step_points(tables: _Tables, step: _Step, values: list, q: int) -> Iterable:
    """The step's `(x, matrix)` points at the placed values, memoised by its neighbours' coordinates.

    They are its chart solutions that pass its loops.  A list without a
    memo, or that does not fit in the table's room, is streamed and not
    kept.  The search reads memo hits itself and calls this past the
    first step only on a miss.
    """
    memo = step.points
    if memo is not None:
        coordinates = step.coordinates(values)
        found = memo.get(coordinates)
        if found is not None:
            return found
    solutions = _chart_solutions(step, values, q)
    if step.loops:
        solutions = (x for x in solutions if _loops_hold(step, x, q))
    chart = step.chart
    if memo is None:
        return map(chart.build, solutions)
    fits = max(tables.room - _MEMO_ENTRY_BYTES, -1) // chart.point_bytes
    head = list(islice(solutions, fits + 1))
    if len(head) <= fits:  # all of them
        tables.room -= _MEMO_ENTRY_BYTES + len(head) * chart.point_bytes
        found = memo[coordinates] = tuple(map(chart.point, head))
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
    m: Representation, beta: CellIndex, q: int, tables: _Tables | None = None
) -> Iterator[dict[str, Matrix]]:
    """All F_q points of one Schubert cell, as per-vertex echelon matrices.

    Depth-first over the vertex steps with an explicit stack.  Each step
    is looked up in `tables` when the search first reaches it, so a cell
    whose search dies at one step never wires the later ones, and its
    points come from the step's memo (see `_Tables`): the cells of one
    call solve each distinct chart system once, while the memos have
    room; past that, new lists stream as they are solved.  The last step
    is walked inside the loop over the step before it: each point is a
    copy of that prefix's dict plus the last vertex.  `tables`, built for
    m, is shared by the cells of one call, one prime at a time: a search
    at another prime empties its points.  Without it the cell builds its own.
    """
    order = m.quiver.vertices
    n = len(order)
    if n == 0:
        yield {}
        return
    tables = tables or _Tables(m)
    tables.use_prime(q)
    beta_set = set(beta.elements)  # not beta.as_set(): a call keeps all its cells alive
    pivots = [tuple(b for b in block if b in beta_set) for block in tables.blocks]
    last = n - 1
    head, name = order[:last], order[last]
    steps: list = [None] * n  # this cell's later steps, looked up on arrival
    values: list = [()] * last
    mats: list = [()] * last
    first = tables.step(0, pivots)
    if last == 0:
        for _, mat in _step_points(tables, first, values, q):
            yield {name: mat}
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
    return sum(1 for _ in _cell_points(m, beta, q))


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
        per_cell = {beta.key(): sum(1 for _ in _cell_points(m, beta, q, tables)) for beta in cells}
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
