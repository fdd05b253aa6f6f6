"""Echelon charts of one vertex, and the arrow and loop conditions on them as integer forms.

A chart is the echelon pattern of one pivot tuple at one vertex: each
tuple of its free coordinates gives one subspace with those pivots.  An
arrow's generator images on its source chart are built over Z as
per-row integer forms, once per arrow and source chart; the rows and
quadratic forms that say those images lie in a target chart's span are
picked from them, once per pair of charts.  The oracle reduces them mod
q only where it reads them, so one compiled form serves every prime.  A
chart holds geometry and integer forms, and no memory policy: what the
oracle stores, and what that costs, is the oracle's to decide.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .linalg import Matrix, Vector


class Chart:
    """Echelon chart of one vertex: pivot pattern plus free positions.

    Column j of the matrix at x is 1 in row pivot_rows[j], a free
    coordinate in each nonpivot row above it and 0 elsewhere.  Free
    coordinates x are numbered column by column, top to bottom:
    `column_free[j]` lists the (row, var) pairs of column j, `row_free[k]`
    the (column, var) pairs of row nonpivot_rows[k], and `entries` the
    row-major matrix as indices into x + (0, 1).  `build` makes the pair
    (x, matrix at x) afresh; a chart keeps no points and no matrices.
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

    def build(self, x: Vector) -> tuple[Vector, Matrix]:
        """(x, echelon matrix at x)."""
        ncols = len(self.pivot_rows)
        if ncols:
            flat = map((x + (0, 1)).__getitem__, self.entries)
            return x, tuple(zip(*[flat] * ncols))
        return x, ((),) * self.nrows

    def images(self, columns: Sequence[Vector]) -> list:
        """Image of each chart generator under an arrow with these integer columns, as per-row forms.

        One list w per generator, one form per target row r: w[r] =
        (const[r], ((var, vec[r]), ...)) for the image const + sum(x[var]
        * vec), with terms zero over Z dropped and nothing reduced mod q.
        """
        return [
            [(c, tuple([(v, columns[r][t]) for r, v in free if columns[r][t]])) for t, c in enumerate(columns[p])]
            for p, free in zip(self.pivot_rows, self.column_free)
        ]

    def incoming_rows(self, images: list) -> Iterator[tuple]:
        """Rows (b, ((v, a_v), ...)) saying that these images of an earlier step's generators lie in this chart's span.

        Each image w is in the span when, on each nonpivot row r,
        w[r] = sum_j w[pivot j] * x[r, j]: the rows pick those forms.
        """
        for w in images:
            for r, free in zip(self.nonpivot_rows, self.row_free):
                yield w[r], [(var, w[self.pivot_rows[j]]) for j, var in free]

    def outgoing_rows(self, images: list) -> Iterator[tuple]:
        """Rows (b, ((v, a_v), ...)) saying that these images of a later step's generators lie in this chart's span.

        Each image w, a form in the later step's coordinates x, is in the
        span at this chart's coordinates y when, on each nonpivot row r,
        w[r] = sum_c w[pivot c] * y[r, c]; each x[v] that a picked form
        reads gets its a_v, in increasing v.
        """
        for r, free in zip(self.nonpivot_rows, self.row_free):
            weights = [(self.pivot_rows[c], var) for c, var in free]
            for w in images:
                const, terms = w[r]
                a = {v: (c, []) for v, c in terms}
                for p, var in weights:
                    for v, c in w[p][1]:
                        a.setdefault(v, (0, []))[1].append((var, -c))
                b = (-const, tuple([(var, w[p][0]) for p, var in weights if w[p][0]]))
                yield b, [(v, (c, tuple(ys))) for v, (c, ys) in sorted(a.items())]

    def loop_forms(self, images: list) -> tuple:
        """A loop with these generator images, as the distinct nonzero quadratic forms that must vanish.

        For each image w, each nonpivot row r gives w[r] - sum_j w[pivot j]
        * x[r, j] = 0, expanded here.
        """
        forms: dict[tuple, None] = {}
        for w in images:
            for r, free in zip(self.nonpivot_rows, self.row_free):
                const, terms = w[r]
                linear = dict(terms)
                quadratic: dict[tuple[int, int], int] = {}
                for j, u in free:
                    c, pivot_terms = w[self.pivot_rows[j]]
                    linear[u] = linear.get(u, 0) - c
                    for v, b in pivot_terms:
                        pair = (min(u, v), max(u, v))
                        quadratic[pair] = quadratic.get(pair, 0) - b
                linear_terms = tuple((v, a) for v, a in sorted(linear.items()) if a)
                quadratic_terms = tuple((u, v, b) for (u, v), b in sorted(quadratic.items()) if b)
                if const or linear_terms or quadratic_terms:
                    forms[const, linear_terms, quadratic_terms] = None
        return tuple(forms)
