"""Echelon charts of one vertex, and the arrow and loop conditions on them as integer forms.

A chart is the echelon pattern of one pivot tuple at one vertex: its
points are the subspaces with those pivots, one per tuple of free
coordinates.  An arrow's generator images on a chart, and the rows and
quadratic forms that say those images lie in a span, are built over Z:
the oracle reduces them mod q only where it reads them, so one compiled
form serves every prime.
"""

from __future__ import annotations

import sys
from typing import Iterator, Sequence

from .linalg import Matrix, Vector

_TUPLE_BYTES = sys.getsizeof(())  # plus 8 per item


class Chart:
    """Echelon chart of one vertex: pivot pattern plus free positions.

    Column j of a chart point is 1 in row pivot_rows[j], a free coordinate
    in each nonpivot row above it and 0 elsewhere.  Free coordinates x are
    numbered column by column, top to bottom: `column_free[j]` lists the
    (row, var) pairs of column j, `row_free[k]` the (column, var) pairs of
    row nonpivot_rows[k], and `entries` the row-major matrix as indices
    into x + (0, 1).  `point` keeps each point once per chart, and
    `points` each list of them; `build` makes a fresh one.  The oracle's
    step memos hold bare x, and only a listing asks `points` for the
    matrices of a memoised list, so the chart keeps no point and no list
    that no memo holds.  `point_bytes` is what a memo is charged per
    stored x.  It bounds the memory of the x with what a listing may
    intern for it: x, its ints (28 bytes each below 2**30) and its memo
    slot, then the pair, the matrix and its rows, one intern dict entry
    and its slot in the interned list.
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
        self._lists: dict[tuple, tuple] = {}
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
        """`build(x)`, built on first use and shared after; the oracle asks only for memoised x."""
        found = self._points.get(x)
        if found is None:
            found = self._points[x] = self.build(x)
        return found

    def points(self, xs: tuple[Vector, ...]) -> tuple[tuple[Vector, Matrix], ...]:
        """`point(x)` for each x of a list, as one tuple built on first use and shared after.

        Keyed by the list itself, so a listing that meets a memoised list
        again takes its pairs with one lookup, not one per point.
        """
        found = self._lists.get(xs)
        if found is None:
            found = self._lists[xs] = tuple(map(self.point, xs))
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

    def incoming_rows(self, images: list) -> Iterator[tuple]:
        """Rows (b, ((v, a_v), ...)) saying that these images of an earlier step's generators lie in this chart's span.

        Each image w = const + sum(y[u] * vec) is in the span when, on each
        nonpivot row r, w[r] = sum_j w[pivot j] * x[r, j].
        """
        for const, terms in images:  # integer entries, reduced mod q where the rows are read
            w = [(c, tuple((u, vec[p]) for u, vec in terms if vec[p])) for p, c in enumerate(const)]
            for r, free in zip(self.nonpivot_rows, self.row_free):
                yield w[r], [(var, w[self.pivot_rows[j]]) for j, var in free]

    def outgoing_rows(self, images: list) -> Iterator[tuple]:
        """Rows (b, ((v, a_v), ...)) saying that these images of a later step's generators lie in this chart's span.

        Each image w = const + sum(x[v] * vec) is in the span at this
        chart's coordinates y when, on each nonpivot row r,
        w[r] = sum_c w[pivot c] * y[r, c].
        """
        for r, free in zip(self.nonpivot_rows, self.row_free):
            weights = [(self.pivot_rows[c], var) for c, var in free]
            for const, terms in images:
                b = (-const[r], tuple((var, const[p]) for p, var in weights if const[p]))
                yield b, [(v, (vec[r], tuple((var, -vec[p]) for p, var in weights if vec[p]))) for v, vec in terms]

    def loop_forms(self, images: list) -> tuple:
        """A loop with these generator images, as the distinct nonzero quadratic forms that must vanish.

        With w = const + sum(x[v] * vec) the image, each nonpivot row r
        gives w[r] - sum_j w[pivot j] * x[r, j] = 0, expanded here.
        """
        forms: dict[tuple, None] = {}
        for const, terms in images:
            for r, free in zip(self.nonpivot_rows, self.row_free):
                linear = {v: vec[r] for v, vec in terms}
                quadratic: dict[tuple[int, int], int] = {}
                for j, u in free:
                    p = self.pivot_rows[j]
                    linear[u] = linear.get(u, 0) - const[p]
                    for v, vec in terms:
                        pair = (min(u, v), max(u, v))
                        quadratic[pair] = quadratic.get(pair, 0) - vec[p]
                linear_terms = tuple((v, a) for v, a in sorted(linear.items()) if a)
                quadratic_terms = tuple((u, v, b) for (u, v), b in sorted(quadratic.items()) if b)
                if const[r] or linear_terms or quadratic_terms:
                    forms[const[r], linear_terms, quadratic_terms] = None
        return tuple(forms)
