"""Brute-force ground truth over prime fields.

Subrepresentations are enumerated chart by chart: one echelon chart per
pivot-set combination, so per-cell counting is a byproduct of the
partition rather than a post-hoc filter.  Within a chart, containment
conditions along arrows whose other endpoint is already fixed are linear
in the chart coordinates and are solved exactly; loops are filtered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Iterator, Mapping, Sequence

from .linalg import (
    Matrix,
    column_echelon_max_pivot,
    eval_poly,
    gaussian_binomial,
    iter_solutions_mod,
    lagrange_interpolate,
    mat_vec_mod,
    primes_iter,
    require_prime,
)
from .representation import Representation
from .schubert import CellIndex, cell_index, enumerate_cells

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


def _check_budget(m: Representation, e: Mapping[str, int], q: int, budget: int) -> None:
    estimate = ambient_size(m, e, q)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)


class _Chart:
    """Echelon chart of one vertex: pivot pattern plus free positions."""

    def __init__(self, block: Sequence[str], pivots: Sequence[str]):
        self.block = list(block)
        self.pivot_rows = [self.block.index(b) for b in pivots]
        self.nrows = len(block)
        self.ncols = len(pivots)
        self.free: list[tuple[int, int]] = []
        pivot_set = set(self.pivot_rows)
        for j, p in enumerate(self.pivot_rows):
            for r in range(self.nrows):
                if r not in pivot_set and r < p:
                    self.free.append((r, j))
        self.nonpivot_rows = [r for r in range(self.nrows) if r not in pivot_set]

    def matrix(self, values: Sequence[int]) -> Matrix:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for j, p in enumerate(self.pivot_rows):
            out[p][j] = 1
        for (r, j), x in zip(self.free, values):
            out[r][j] = x
        return tuple(tuple(row) for row in out)

    def membership_rows(self, vec: Sequence[int], q: int):
        """Linear conditions on the free coordinates for vec to lie in the span."""
        rows = []
        rhs = []
        coeffs = [vec[p] % q for p in self.pivot_rows]
        index = {pos: i for i, pos in enumerate(self.free)}
        for r in self.nonpivot_rows:
            row = [0] * len(self.free)
            for j in range(self.ncols):
                if (r, j) in index:
                    row[index[(r, j)]] = coeffs[j]
            rows.append(row)
            rhs.append(vec[r] % q)
        return rows, rhs

    def contains(self, mat: Matrix, vec: Sequence[int], q: int) -> bool:
        coeffs = [vec[p] % q for p in self.pivot_rows]
        for r in range(self.nrows):
            predicted = sum(coeffs[j] * mat[r][j] for j in range(self.ncols)) % q
            if predicted != vec[r] % q:
                return False
        return True


def _cell_points(
    m: Representation, beta: CellIndex, q: int
) -> Iterator[dict[str, Matrix]]:
    """All F_q points of one Schubert cell, as per-vertex echelon matrices."""
    beta_set = beta.as_set()
    charts = {}
    for v in m.quiver.vertices:
        block = m.basis.block(v)
        charts[v] = _Chart(block, [b for b in block if b in beta_set])
    order = list(m.quiver.vertices)
    matrices_mod = {a.name: tuple(tuple(x % q for x in r) for r in m.matrices[a.name]) for a in m.quiver.arrows}

    def extend(i: int, assigned: dict[str, Matrix]) -> Iterator[dict[str, Matrix]]:
        if i == len(order):
            yield dict(assigned)
            return
        v = order[i]
        chart = charts[v]
        rows: list[list[int]] = []
        rhs: list[int] = []
        incoming = []
        outgoing = []
        loops = []
        for a in m.quiver.arrows:
            if a.src == v and a.tgt == v:
                loops.append(a)
            elif a.tgt == v and a.src in assigned:
                incoming.append(a)
            elif a.src == v and a.tgt in assigned:
                outgoing.append(a)
        for a in incoming:
            src_mat = assigned[a.src]
            ncols = len(src_mat[0]) if src_mat else 0
            for jcol in range(ncols):
                gen = [row[jcol] for row in src_mat]
                vec = mat_vec_mod(matrices_mod[a.name], gen, q)
                r2, b2 = chart.membership_rows(vec, q)
                rows.extend(r2)
                rhs.extend(b2)
        for a in outgoing:
            tgt_chart = charts[a.tgt]
            tgt_mat = assigned[a.tgt]
            ma = matrices_mod[a.name]
            for j in range(chart.ncols):
                # image of generator j is affine-linear in the free coordinates
                base = [0] * len(chart.block)
                base[chart.pivot_rows[j]] = 1
                const_vec = mat_vec_mod(ma, base, q)
                coeff_vecs = [
                    (var_idx, [ma[k][r] % q for k in range(len(ma))])
                    for var_idx, (r, jj) in enumerate(chart.free)
                    if jj == j
                ]
                for rp in tgt_chart.nonpivot_rows:
                    row = [0] * len(chart.free)
                    predicted_const = sum(
                        tgt_mat[rp][c] * const_vec[tgt_chart.pivot_rows[c]]
                        for c in range(tgt_chart.ncols)
                    )
                    for var_idx, cvec in coeff_vecs:
                        contrib = cvec[rp] - sum(
                            tgt_mat[rp][c] * cvec[tgt_chart.pivot_rows[c]]
                            for c in range(tgt_chart.ncols)
                        )
                        row[var_idx] = contrib % q
                    rows.append(row)
                    rhs.append((predicted_const - const_vec[rp]) % q)
        for values in iter_solutions_mod(rows, rhs, len(chart.free), q):
            mat = chart.matrix(values)
            ok = True
            for a in loops:
                ma = matrices_mod[a.name]
                for j in range(chart.ncols):
                    gen = [row[j] for row in mat]
                    vec = mat_vec_mod(ma, gen, q)
                    if not chart.contains(mat, vec, q):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                assigned[v] = mat
                yield from extend(i + 1, assigned)
                del assigned[v]

    yield from extend(0, {})


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
