"""Brute-force ground truth over prime fields.

Subrepresentations are enumerated chart by chart: one echelon chart per
pivot-set combination, so per-cell counting is a byproduct of the
partition rather than a post-hoc filter.

Each cell is compiled once per call into a plan: one step per vertex in
quiver order, holding the vertex's chart templates, the arrows to and
from vertices placed earlier with their matrices reduced mod q, its loops
and its frontier.  The search then walks the plan as one flat depth-first
loop.  At each step, containment along arrows whose other endpoint is
already placed is linear in the chart coordinates and solved exactly;
loops are filtered.  The frontier of a step is the set of placed vertices
that share an arrow with a vertex not yet placed; the rest of the search
reads nothing else.  A frontier state that once extended to no point is
dead, so later arrivals at it are skipped, which is exact.  Points come
out in the same order as a plain recursion over the vertices would give,
each chart in `iter_solutions_mod` order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Iterator, Mapping, Sequence

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
    seen = set()
    for q in primes:
        if q in seen:
            raise ValueError(f"prime {q} is repeated in {', '.join(str(p) for p in primes)}")
        seen.add(q)


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
    into x + (0, 1).
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

    def images(self, columns: Sequence[Vector]) -> list:
        """Image of each chart generator under an arrow with these columns mod q.

        One (constant, terms) pair per generator j: the image is
        constant + sum(x[var] * vec for var, vec in terms).  Terms whose
        vector is zero are dropped.
        """
        return [
            (columns[p], [(var, columns[r]) for r, var in free if any(columns[r])])
            for p, free in zip(self.pivot_rows, self.column_free)
        ]


class _Step:
    """One vertex of the search plan and the arrows it meets when placed.

    `incoming` and `outgoing` hold (step of the other end, generator
    images) for arrows to and from vertices placed earlier, and `loops`
    the generator images of loops.  `frontier` lists the earlier steps
    that share an arrow with this step or a later one: the only placed
    vertices the rest of the search reads.
    """

    def __init__(self, chart: _Chart):
        self.chart = chart
        self.incoming: list[tuple[int, list]] = []
        self.outgoing: list[tuple[int, list]] = []
        self.loops: list[list] = []
        self.frontier: tuple[int, ...] = ()


def _plan(m: Representation, beta: CellIndex, q: int) -> list[_Step]:
    """The search plan of one cell: one step per vertex, in quiver order."""
    beta_set = beta.as_set()
    steps = []
    for v in m.quiver.vertices:
        block = m.basis.block(v)
        steps.append(_Step(_Chart(block, [b for b in block if b in beta_set])))
    index = {v: i for i, v in enumerate(m.quiver.vertices)}
    last_neighbour = list(range(len(steps)))
    for a in m.quiver.arrows:
        s, t = index[a.src], index[a.tgt]
        chart = steps[s].chart
        ma = m.matrices[a.name]  # no rows when the target has rank 0
        columns = [tuple(x % q for x in col) for col in zip(*ma)] if ma else [()] * chart.nrows
        images = chart.images(columns)
        if s == t:
            steps[s].loops.append(images)
        elif s < t:
            steps[t].incoming.append((s, images))
        else:
            steps[s].outgoing.append((t, images))
        lo, hi = min(s, t), max(s, t)
        last_neighbour[lo] = max(last_neighbour[lo], hi)
    for i, step in enumerate(steps):
        step.frontier = tuple(k for k in range(i) if last_neighbour[k] >= i)
    return steps


def _image(image, x: Sequence[int]) -> list[int]:
    """One generator image at chart coordinates x (entries not reduced mod q)."""
    const, terms = image
    w = list(const)
    for var, vec in terms:
        c = x[var]
        if c:
            w = [a + c * b for a, b in zip(w, vec)]
    return w


def _chart_equations(
    steps: list[_Step], i: int, values: list, q: int
) -> Iterator[tuple[list[int], int]]:
    """Linear conditions (row, rhs) on step i's chart coordinates from arrows to placed vertices."""
    chart = steps[i].chart
    nfree = chart.nfree
    # an earlier generator's image w lies in this chart's span:
    # w[r] = sum_j w[pivot j] * x[r, j] on each nonpivot row r
    for k, images in steps[i].incoming:
        for image in images:
            w = _image(image, values[k])
            for r, free in zip(chart.nonpivot_rows, chart.row_free):
                row = [0] * nfree
                for j, var in free:
                    row[var] = w[chart.pivot_rows[j]] % q
                yield row, w[r] % q
    # this chart's generator images lie in an earlier span, fixed at y:
    # the residual w[r] - sum_c w[pivot c] * y[r, c] vanishes there
    for k, images in steps[i].outgoing:
        target = steps[k].chart
        y = values[k]
        for r, free in zip(target.nonpivot_rows, target.row_free):
            weights = [(target.pivot_rows[c], y[var]) for c, var in free if y[var]]
            for const, terms in images:
                row = [0] * nfree
                for var, vec in terms:
                    row[var] = (vec[r] - sum(vec[p] * c for p, c in weights)) % q
                yield row, (sum(const[p] * c for p, c in weights) - const[r]) % q


def _chart_solutions(steps: list[_Step], i: int, values: list, q: int) -> Iterator[Vector]:
    """Chart coordinates of step i that satisfy every arrow to a placed vertex.

    Zero rows are dropped, and one with a nonzero right-hand side ends the
    step before any elimination.
    """
    rows: list[list[int]] = []
    rhs: list[int] = []
    for row, b in _chart_equations(steps, i, values, q):
        if any(row):
            rows.append(row)
            rhs.append(b)
        elif b:
            return iter(())
    return iter_solutions_mod(rows, rhs, steps[i].chart.nfree, q)


def _loops_hold(step: _Step, x: Vector, q: int) -> bool:
    """Loop filter: every loop maps each generator back into the span."""
    chart = step.chart
    for images in step.loops:
        for image in images:
            w = _image(image, x)
            for r, free in zip(chart.nonpivot_rows, chart.row_free):
                if (w[r] - sum(w[chart.pivot_rows[j]] * x[var] for j, var in free)) % q:
                    return False
    return True


def _cell_points(
    m: Representation, beta: CellIndex, q: int
) -> Iterator[dict[str, Matrix]]:
    """All F_q points of one Schubert cell, as per-vertex echelon matrices.

    Depth-first over the plan's steps with an explicit stack.  The state
    entering step i is keyed by the chart coordinates at its frontier;
    once a state has extended to no point it is dead, and later arrivals
    at it are skipped.
    """
    order = m.quiver.vertices
    steps = _plan(m, beta, q)
    n = len(steps)
    if n == 0:
        yield {}
        return
    values: list = [()] * n
    mats: list = [()] * n
    pending: list = [iter(())] * n
    keys: list = [None] * n
    points_before = [0] * n
    dead: set = set()
    points = 0
    pending[0] = _chart_solutions(steps, 0, values, q)
    i = 0
    while i >= 0:
        step = steps[i]
        chart = step.chart
        ncols = len(chart.pivot_rows)
        for x in pending[i]:
            if step.loops and not _loops_hold(step, x, q):
                continue
            values[i] = x
            if ncols:
                flat = map((x + (0, 1)).__getitem__, chart.entries)
                mats[i] = tuple(zip(*[flat] * ncols))
            else:
                mats[i] = ((),) * chart.nrows
            if i + 1 == n:
                points += 1
                yield dict(zip(order, mats))
                continue
            key = (i + 1,) + tuple(values[k] for k in steps[i + 1].frontier)
            if key in dead:
                continue
            i += 1
            keys[i] = key
            points_before[i] = points
            pending[i] = _chart_solutions(steps, i, values, q)
            break
        else:
            if i and points == points_before[i]:
                dead.add(keys[i])
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
    for beta in enumerate_cells(m.basis, e, m.quiver.vertices):
        for subspaces in _cell_points(m, beta, q):
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
    for q in primes:
        require_prime(q)
        _check_budget(m, e, q, budget)
    cells = enumerate_cells(m.basis, e, m.quiver.vertices)
    reports = []
    for q in primes:
        per_cell = {beta.key(): cell_count(m, beta, q) for beta in cells}
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
        _require_distinct(ps)
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
    _require_distinct(primes)
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

    Refuses (AffineCertificateError) when some cell fails certification;
    callers may still report the interpolated count at 1 with an explicit
    no-certificate caveat.
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
